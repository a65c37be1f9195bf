"""Cold start and warm-delete cost of the SQLite storage engine.

One dense world of ``N`` items is built directly (random modulators via
:meth:`ModulationTree.build_random`, real ciphertexts only for the
delete targets) and made durable two ways:

* as a full-history WAL -- the world's one ``OutsourceRequest`` -- that
  recovery replays into an empty server (``recover_server(wal)``, no
  engine), the only O(n) cold start left; and
* as the SQLite engine ``state.db`` (``compact_storage``), which
  ``recover_server(wal, engine=...)`` opens before replaying only the
  WAL tail -- O(working set), independent of N.

Warm delete latency runs the full two-party deletion protocol over a
loopback channel against both recovered worlds (same keys, same
targets, same client rng) and compares medians.  Finally the WAL-replay
bound is checked: replay work equals the mutations since the last
``compact_storage``, and drops to zero right after one.

Floors: engine cold start >= 10x faster than full-history replay, warm
delete median <= 1.3x in-memory, WAL replay bounded by work since
compaction.  The sweep lands in ``BENCH_storage.json`` at the repo root
(next to ``BENCH_shard.json``) with its scale; ``REPRO_FULL_SCALE=1``
runs the paper scale n=10^6, the default n=10^5 keeps CI within budget.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import tempfile
import time

import pytest

from benchmarks.conftest import save_result
from repro.client.client import AssuredDeletionClient
from repro.core import ops
from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.core.tree import ModulationTree
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.server.engine import make_engine
from repro.server.server import CloudServer
from repro.server.storage import InMemoryCiphertextStore
from repro.server.wal import CommitLog, recover_server

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")
#: Paper scale when REPRO_FULL_SCALE=1; CI-budget scale otherwise.
N_ITEMS = 1_000_000 if FULL_SCALE else 100_000
FILE_ID = 7
WARMUP_DELETES = 4
MEASURED_DELETES = 32
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_storage.json")

#: Registry-free on both sides: engine-materialised files never carry a
#: duplicate-modulator registry, so the in-memory baseline must not pay
#: (or enjoy) one either for the latency comparison to mean anything.
PARAMS = Params(enforce_unique_modulators=False)


def _build_seed(n: int, seed: str) -> tuple[CloudServer, bytes, list[int]]:
    """Build one dense n-item world; returns (server, master_key, targets).

    Modulators are drawn in bulk; every item gets a small placeholder
    ciphertext, and the delete targets get *real* ciphertexts encrypted
    under the chain output of their root-to-leaf path so the client's
    decrypt-and-verify step in the deletion protocol passes.
    """
    rng = DeterministicRandom(seed)
    master_key = rng.bytes(PARAMS.master_key_size)
    tree = ModulationTree.build_random(list(range(n)), PARAMS.modulator_size,
                                       rng)
    cts = InMemoryCiphertextStore()
    placeholder = b"\x00" * 8
    for item_id in range(n):
        cts.put(item_id, placeholder)

    # Targets stay clear of the top 4*(warmup+measured) ids: deletion
    # rebalancing moves the *last* item into the hole, and a moved
    # target would still decrypt (moves preserve chain outputs) but
    # would make the per-delete work less uniform.
    total = WARMUP_DELETES + MEASURED_DELETES
    targets = random.Random(20140707).sample(range(n - 4 * total), total)
    engine = ChainEngine(PARAMS.chain_hash)
    codec = ItemCodec(PARAMS)
    for item_id in targets:
        view = tree.path_view(tree.slot_of_item(item_id))
        output = ops.chain_output_for_path(engine, master_key, view)
        cts.put(item_id, codec.encrypt(output, b"payload-%d" % item_id,
                                       item_id, rng.bytes(8)))

    server = CloudServer(PARAMS)
    server.adopt_file(FILE_ID, tree, cts, build_registry=False)
    return server, master_key, targets


def _write_history(server: CloudServer, wal_path: str) -> None:
    """Log the world as the one ``OutsourceRequest`` that would have
    created it: the full-history WAL an engine-less recovery replays."""
    state = server.file_state(FILE_ID)
    tree = state.tree
    item_ids = sorted(tree.item_ids(), key=tree.slot_of_item)
    links, leaves = [], []
    for kind, _slot, value in tree.iter_modulators():
        (links if kind == "link" else leaves).append(value)
    request = msg.OutsourceRequest(
        file_id=FILE_ID, item_ids=tuple(item_ids), links=tuple(links),
        leaves=tuple(leaves),
        ciphertexts=tuple(state.ciphertexts.get(i) for i in item_ids),
        request_id=1)
    with CommitLog(wal_path) as log:
        log.append(msg.encode_message(server.ctx, request))


def _timed_deletes(server: CloudServer, master_key: bytes,
                   targets: list[int]) -> list[float]:
    """Run the deletion protocol for every target; per-delete seconds."""
    client = AssuredDeletionClient(LoopbackChannel(server), PARAMS,
                                   rng=DeterministicRandom("bench-del"),
                                   store_keys=False)
    timings = []
    key = master_key
    for item_id in targets:
        start = time.perf_counter()
        key = client.delete(FILE_ID, key, item_id)
        timings.append(time.perf_counter() - start)
    return timings


def _engine_world(data_dir: str, n: int, seed: str) -> dict:
    """Build one world; measure full-history replay vs engine cold start."""
    history_wal = os.path.join(data_dir, "history.wal")
    engine_file = os.path.join(data_dir, "state.db")
    wal_path = os.path.join(data_dir, "server.wal")

    seed_server, master_key, targets = _build_seed(n, seed)
    _write_history(seed_server, history_wal)
    engine = make_engine("sqlite", engine_file)
    seed_server.attach_engine(engine)
    convert_start = time.perf_counter()
    seed_server.compact_storage()
    convert_seconds = time.perf_counter() - convert_start
    engine.close()
    del seed_server

    replay_start = time.perf_counter()
    replay_server = recover_server(history_wal, PARAMS)
    replay_seconds = time.perf_counter() - replay_start

    recover_start = time.perf_counter()
    engine_server = recover_server(wal_path, PARAMS,
                                   engine=make_engine("sqlite", engine_file))
    engine_seconds = time.perf_counter() - recover_start

    return {
        "n_items": n,
        "history_wal_bytes": os.path.getsize(history_wal),
        "engine_bytes": os.path.getsize(engine_file),
        "convert_seconds": convert_seconds,
        "replay_cold_start_seconds": replay_seconds,
        "engine_cold_start_seconds": engine_seconds,
        "cold_start_speedup": replay_seconds / engine_seconds,
        "master_key": master_key,
        "targets": targets,
        "replay_server": replay_server,
        "engine_server": engine_server,
        "wal_path": wal_path,
        "engine_file": engine_file,
    }


def _close_world(world: dict) -> None:
    for key in ("replay_server", "engine_server"):
        server = world.get(key)
        if server is None:
            continue
        if server.wal is not None:
            server.wal.close()
        if server.engine is not None:
            server.engine.close()
        world[key] = None


@pytest.fixture(scope="module")
def storage_curve() -> dict:
    data_dir = tempfile.mkdtemp(prefix="repro-bench-storage-")
    record: dict = {"schema": 2, "full_scale": FULL_SCALE,
                    "n_items": N_ITEMS,
                    "measured_deletes": MEASURED_DELETES,
                    "machine": {"cpu_count": os.cpu_count(),
                                "processor": platform.machine(),
                                "python": platform.python_version()}}
    try:
        world = _engine_world(data_dir, N_ITEMS, "storage-bench")
        mem_times = _timed_deletes(world["replay_server"],
                                   world["master_key"], world["targets"])
        eng_times = _timed_deletes(world["engine_server"],
                                   world["master_key"], world["targets"])
        mem_median = statistics.median(mem_times[WARMUP_DELETES:])
        eng_median = statistics.median(eng_times[WARMUP_DELETES:])

        # -- WAL replay bound: work since the last compaction -----------
        deletes = len(world["targets"])
        _close_world(world)
        replay_server = recover_server(world["wal_path"], PARAMS,
                                       engine=make_engine("sqlite",
                                                          world["engine_file"]))
        replayed_before = replay_server.last_recovery["replayed_records"]
        replay_server.compact_storage()
        replay_server.wal.close()
        replay_server.engine.close()
        compacted_start = time.perf_counter()
        compacted = recover_server(world["wal_path"], PARAMS,
                                   engine=make_engine("sqlite",
                                                      world["engine_file"]))
        compacted_seconds = time.perf_counter() - compacted_start
        replayed_after = compacted.last_recovery["replayed_records"]
        compacted.wal.close()
        compacted.engine.close()

        record["sqlite"] = {
            "n_items": N_ITEMS,
            "history_wal_bytes": world["history_wal_bytes"],
            "engine_bytes": world["engine_bytes"],
            "convert_seconds": round(world["convert_seconds"], 4),
            "replay_cold_start_seconds":
                round(world["replay_cold_start_seconds"], 4),
            "engine_cold_start_seconds":
                round(world["engine_cold_start_seconds"], 4),
            "cold_start_speedup": round(world["cold_start_speedup"], 2),
            "delete_median_memory_seconds": round(mem_median, 6),
            "delete_median_engine_seconds": round(eng_median, 6),
            "delete_latency_ratio": round(eng_median / mem_median, 4),
            "wal_records_before_compaction": replayed_before,
            "deletes_since_compaction": deletes,
            "wal_records_after_compaction": replayed_after,
            "cold_start_after_compaction_seconds":
                round(compacted_seconds, 4),
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    sq = record["sqlite"]
    lines = [
        f"Storage-engine cold start vs full-history WAL replay "
        f"(n={N_ITEMS}, {MEASURED_DELETES} measured deletes)",
        "",
        f"replay into an empty server {sq['replay_cold_start_seconds']:.3f}s,"
        f" sqlite engine {sq['engine_cold_start_seconds']:.4f}s "
        f"({sq['cold_start_speedup']:.1f}x)",
        f"warm delete median: memory "
        f"{sq['delete_median_memory_seconds'] * 1e3:.2f} ms, sqlite "
        f"{sq['delete_median_engine_seconds'] * 1e3:.2f} ms "
        f"(ratio {sq['delete_latency_ratio']:.2f}x)",
        f"WAL replay: {sq['wal_records_before_compaction']} records before "
        f"compaction ({sq['deletes_since_compaction']} deletes), "
        f"{sq['wal_records_after_compaction']} after",
    ]
    table = "\n".join(lines)
    save_result("storage_cold_start", table)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + table)
    return record


def test_cold_start_floor(storage_curve):
    """Engine cold start >= 10x faster than replaying the full history
    into an empty server -- the engine opens O(1), replay is O(n)."""
    assert storage_curve["sqlite"]["cold_start_speedup"] >= 10.0, \
        storage_curve["sqlite"]


def test_warm_delete_latency_floor(storage_curve):
    """Paged deletes within 1.3x of in-memory."""
    assert storage_curve["sqlite"]["delete_latency_ratio"] <= 1.3, \
        storage_curve["sqlite"]


def test_wal_replay_bounded_by_compaction(storage_curve):
    """Replay equals mutations since the last compaction; zero after."""
    sq = storage_curve["sqlite"]
    assert sq["wal_records_before_compaction"] == \
        sq["deletes_since_compaction"], sq
    assert sq["wal_records_after_compaction"] == 0, sq
    assert sq["cold_start_after_compaction_seconds"] <= \
        max(1.0, 2 * sq["engine_cold_start_seconds"]), sq


def test_quick_storage_smoke():
    """CI smoke: tiny world, shape only -- engine cold start beats the
    full-history replay and the deletion protocol works over paged
    state."""
    data_dir = tempfile.mkdtemp(prefix="repro-bench-storage-smoke-")
    try:
        world = _engine_world(data_dir, 4096, "smoke")
        times = _timed_deletes(world["engine_server"], world["master_key"],
                               world["targets"][:6])
        assert len(times) == 6
        assert world["engine_cold_start_seconds"] < \
            world["replay_cold_start_seconds"], world
        _close_world(world)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
