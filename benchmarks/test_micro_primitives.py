"""Microbenchmarks of the crypto substrate and the key-modulation core.

These are the constants behind every figure: the chain-hash step, the AES
block, bulk CTR throughput, chain evaluation at the paper's depths, and
the item codec at the paper's 4 KB item size -- and the measured
crossover between the two AES-CTR engines that ``repro.crypto.modes``
dispatches on.
"""

import hashlib
import time

import pytest

from benchmarks.conftest import save_json
from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine, xor_bytes
from repro.core.params import Params
from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform_many
from repro.crypto.modes import BULK_MAX_BLOCKS, BULK_MIN_ITEMS, aes_ctr
from repro.crypto.rng import DeterministicRandom

rng = DeterministicRandom("micro")


def sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


@pytest.mark.benchmark(group="micro-hash")
def test_sha1_short_input(benchmark):
    """One chain step hashes a digest-wide value (20 bytes)."""
    data = rng.bytes(20)
    benchmark(lambda: sha1(data))


@pytest.mark.benchmark(group="micro-hash")
def test_sha1_item_sized_input(benchmark):
    """The per-item integrity hash covers a 4 KB item."""
    data = rng.bytes(4096)
    benchmark(lambda: sha1(data))


@pytest.mark.benchmark(group="micro-aes")
def test_aes_block(benchmark):
    cipher = AES(rng.bytes(16))
    block = rng.bytes(16)
    benchmark(lambda: cipher.encrypt_block(block))


@pytest.mark.benchmark(group="micro-aes")
def test_bulk_ctr_4kb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(4096)
    benchmark(lambda: ctr_transform_many([key], [nonce], [data]))


@pytest.mark.benchmark(group="micro-aes")
def test_bulk_ctr_1mb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(1 << 20)
    benchmark(lambda: ctr_transform_many([key], [nonce], [data]))


@pytest.mark.parametrize("depth", [7, 17, 24],
                         ids=["n=10^2", "n=10^5", "n=10^7"])
@pytest.mark.benchmark(group="micro-chain")
def test_chain_evaluation_at_depth(benchmark, depth):
    """F(K, M) over path lengths matching the paper's n grid."""
    engine = ChainEngine()
    key = rng.bytes(16)
    modulators = [rng.bytes(20) for _ in range(depth + 1)]
    benchmark(lambda: engine.evaluate(key, modulators))


@pytest.mark.benchmark(group="micro-codec")
def test_item_encrypt_4kb(benchmark):
    codec = ItemCodec(Params())
    chain_output = rng.bytes(20)
    message = rng.bytes(4096)
    nonce = rng.bytes(8)
    benchmark(lambda: codec.encrypt(chain_output, message, 1, nonce))


@pytest.mark.benchmark(group="micro-codec")
def test_item_decrypt_verify_4kb(benchmark):
    codec = ItemCodec(Params())
    chain_output = rng.bytes(20)
    ciphertext = codec.encrypt(chain_output, rng.bytes(4096), 1, rng.bytes(8))
    benchmark(lambda: codec.decrypt(chain_output, ciphertext))


@pytest.mark.benchmark(group="micro-xor")
def test_xor_digest_pair(benchmark):
    """One chain step XORs two 20-byte digests (the fast path)."""
    a, b = rng.bytes(20), rng.bytes(20)
    benchmark(lambda: xor_bytes(a, b))


@pytest.mark.benchmark(group="micro-xor")
def test_xor_key_with_digest_prefix(benchmark):
    """The chain's first step XORs a 16-byte key (general path)."""
    a, b = rng.bytes(16), rng.bytes(16)
    benchmark(lambda: xor_bytes(a, b))


def _per_call_us(fn, reps=2000):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6


def test_xor_fast_path_is_correct_and_not_slower():
    """The 20-byte fast path must equal the general path bit-for-bit
    and must not regress it (the chain calls this 3n-2 times per
    outsource)."""
    for _ in range(200):
        a, b = rng.bytes(20), rng.bytes(20)
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
    digest = _per_call_us(lambda: xor_bytes(b"\x5a" * 20, b"\xa5" * 20))
    general = _per_call_us(lambda: xor_bytes(b"\x5a" * 16, b"\xa5" * 16))
    # Loose noise ceiling: the fast path must stay in the same league.
    assert digest < 5 * max(general, 0.01)


def test_micro_timing_record():
    """Persist the substrate constants as a machine-readable record."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    digest_a, digest_b = rng.bytes(20), rng.bytes(20)
    short, item = rng.bytes(20), rng.bytes(4096)
    small_payload = rng.bytes(92)
    cipher = AES(key)
    block = rng.bytes(16)
    save_json("micro_primitives", {
        "op": "micro",
        "microseconds": {
            "xor_digest_20b": _per_call_us(
                lambda: xor_bytes(digest_a, digest_b)),
            "sha1_20b": _per_call_us(lambda: sha1(short)),
            "sha1_4kb": _per_call_us(lambda: sha1(item), reps=200),
            "aes_block": _per_call_us(lambda: cipher.encrypt_block(block)),
            "ctr_small_92b": _per_call_us(
                lambda: aes_ctr(key, nonce, small_payload)),
            "ctr_bulk_4kb": _per_call_us(
                lambda: ctr_transform_many([key], [nonce], [item]), reps=200),
            "ctr_native_4kb": _per_call_us(
                lambda: aes_ctr(key, nonce, item), reps=200),
        },
    })


#: Items per batch when sweeping payload size, and payload blocks when
#: sweeping batch size (92-byte payloads: a 64-byte record plus codec
#: overhead, the ``point-large`` item).
CROSSOVER_BATCH = 1024
CROSSOVER_ITEM_BLOCKS = 6


def _us_per_item(count, blocks):
    """Best-of-5 microseconds per item: (numpy sweep, per-item native)."""
    keys = [rng.bytes(16) for _ in range(count)]
    nonces = [rng.bytes(8) for _ in range(count)]
    datas = [rng.bytes(16 * blocks - 4) for _ in range(count)]

    def native():
        return [aes_ctr(k, n, d) for k, n, d in zip(keys, nonces, datas)]

    def sweep():
        return ctr_transform_many(keys, nonces, datas)

    timings = []
    for fn in (sweep, native):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        timings.append(best / count * 1e6)
    return timings


def test_aes_ctr_crossover_timing_record():
    """Justify ``BULK_MAX_BLOCKS`` and ``BULK_MIN_ITEMS`` by measurement.

    Times the numpy cross-item sweep against one ``cryptography`` call
    per item at 2-64 blocks per item (batch of ``CROSSOVER_BATCH``), and
    at 16-1024 items of ``CROSSOVER_ITEM_BLOCKS`` blocks, and records
    where each pair of curves crosses next to the constants in use.
    """
    by_blocks = {blocks: _us_per_item(CROSSOVER_BATCH, blocks)
                 for blocks in (2, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64)}
    by_items = {count: _us_per_item(count, CROSSOVER_ITEM_BLOCKS)
                for count in (16, 32, 64, 128, 256, 512, 1024)}
    # First point from which the engine favoured at the small end loses.
    crossover_blocks = next((b for b, (sweep, native) in by_blocks.items()
                             if native <= sweep), None)
    crossover_items = next((c for c, (sweep, native) in by_items.items()
                            if sweep <= native), None)
    save_json("aes_ctr_crossover", {
        "op": "aes_ctr_crossover",
        "unit": "us_per_item",
        "by_blocks": {"items": CROSSOVER_BATCH,
                      "rows": [{"blocks": b, "numpy": sweep, "native": native}
                               for b, (sweep, native) in by_blocks.items()],
                      "measured_crossover": crossover_blocks,
                      "BULK_MAX_BLOCKS": BULK_MAX_BLOCKS},
        "by_items": {"blocks": CROSSOVER_ITEM_BLOCKS,
                     "rows": [{"items": c, "numpy": sweep, "native": native}
                              for c, (sweep, native) in by_items.items()],
                     "measured_crossover": crossover_items,
                     "BULK_MIN_ITEMS": BULK_MIN_ITEMS},
    })
    # Well inside each regime the dispatch must pick the faster engine.
    sweep, native = by_blocks[2]
    assert sweep < native, by_blocks
    sweep, native = by_blocks[64]
    assert native < sweep, by_blocks
    sweep, native = by_items[16]
    assert native < sweep, by_items
    sweep, native = by_items[1024]
    assert sweep < native, by_items
