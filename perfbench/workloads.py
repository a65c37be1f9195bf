"""The benchmark's three seeded closed-loop workloads and their checks.

Each workload builds its initial state (``setup_s`` times that, several
times over), runs its closed loop for the requested seconds, then checks
every output against a model the load generator keeps.  The program
only ever receives generated records, positions and an op sequence, all
derived from the seed.

* ``point-large`` -- one caller, in-process ``OutsourcedFileSystem()``:
  loopback channel, in-memory server, no WAL, audit or engine.
* ``durable-paged`` -- two callers (one connection and thread each) on
  the durable CLI server, whose files page in from SQLite.
* ``bulk-sweep`` -- one caller on a second durable CLI server, driving
  whole-file outsource, fetch, batched deletion and file deletion.

The loop runs in slices of ``SLICE_S`` seconds with a host-speed probe
between slices (see ``hostspeed.py``); set-ups and checks are bracketed
by probes too.  A traced run splits the loop in two halves: untraced,
then traced, so one run yields both the per-layer spans and the tracing
slowdown.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import hostspeed
import spans


#: Op mixes as (kind, weight) pairs; weights are per 100 ops.
POINT_LARGE_MIX = (("delete", 35), ("read", 30), ("append", 20),
                   ("write", 15))
DURABLE_PAGED_MIX = (("write", 40), ("read", 30), ("delete", 20),
                     ("append", 10))

#: Op kinds of each loop; the traced run reports per-kind breakdowns
#: under every one of these names on every workload (0 where unused).
POINT_KINDS = ("delete", "read", "write", "append")
BULK_KINDS = ("create", "fetch", "sweep", "drop")
#: Kinds that assuredly delete records (the ``delete_*`` metrics).
DELETE_KINDS = ("delete", "sweep")

#: Id-space partition per durable-paged caller: meta trees below the
#: data-file base, data files from it (``OutsourcedFileSystem`` bases).
META_BASE = 1000
DATA_BASE = 1_000_000

#: Loop slice between two host-speed probes, in seconds.
SLICE_S = 0.5


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` its self-test."""

    setups: int
    pl_files: int
    pl_records: int
    pl_record_bytes: int
    dp_callers: int
    dp_files: int
    dp_records: int
    dp_record_bytes: int
    dp_cache_nodes: int
    bs_records: int
    bs_record_bytes: int
    bs_batch: int
    #: Deletions per caller whose wire bytes / hash calls are reported:
    #: a fixed prefix of the seeded sequence, so the counts repeat
    #: exactly for a seed however many ops the run completes.
    count_prefix: int


FULL = Scale(setups=3, pl_files=2, pl_records=16_384, pl_record_bytes=64,
             dp_callers=2, dp_files=32, dp_records=1024, dp_record_bytes=64,
             dp_cache_nodes=4096, bs_records=4096, bs_record_bytes=1024,
             bs_batch=64, count_prefix=32)
TINY = Scale(setups=2, pl_files=2, pl_records=256, pl_record_bytes=64,
             dp_callers=2, dp_files=2, dp_records=64, dp_record_bytes=64,
             dp_cache_nodes=64, bs_records=256, bs_record_bytes=1024,
             bs_batch=16, count_prefix=4)


class CheckFailed(Exception):
    """An output or durability check found a wrong result."""


@dataclass
class OpResult:
    """One completed generated operation."""

    kind: str
    phase: str
    seconds: float
    wire_bytes: int
    hash_calls: int
    round_trips: int
    retransmits: int
    retries: int
    records: int
    #: Index of the loop slice the op ran in (``Run.slice_factors``).
    slice: int


class Run:
    """Arguments and shared state of one benchmark invocation."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool, scale: Scale) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.state_dir = os.path.join(root, ".perfbench-runs", workload)
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        self.op_ids = itertools.count(1)
        # durable-paged keeps both vCPUs busy at once (client and server
        # process).  bulk-sweep's processes mostly take turns, and a
        # concurrent probe would then read a co-scheduled host as twice
        # as slow as its workload runs; point-large is one process.
        self.speed = hostspeed.HostSpeed(
            both_vcpus=workload == "durable-paged")
        #: Host-speed scale factor of each loop slice, by slice index.
        self.slice_factors: list[float] = []
        #: Set while the traced phase runs.
        self.recorder: Optional[spans.Recorder] = None
        self.phase = "measure"
        #: Every argv the benchmark ran, for the run envelope.
        self.commands: list[list[str]] = []

    def rng(self, *labels) -> random.Random:
        return random.Random(":".join([str(self.seed), self.workload,
                                       *map(str, labels)]))

    def bracketed(self, fn: Callable):
        """Run ``fn`` between two host-speed probes, after collecting
        garbage left by earlier stages; returns its value and the scale
        factor for what it measured."""
        gc.collect()
        before = self.speed.probe()
        value = fn()
        return value, self.speed.factor(before, self.speed.probe())

    def phases(self) -> list[tuple[str, float]]:
        if self.trace:
            return [("untraced", self.seconds / 2),
                    ("traced", self.seconds / 2)]
        return [("measure", self.seconds)]


# ----------------------------------------------------------------------
# One caller: a file-system client plus the model of its files
# ----------------------------------------------------------------------

class Caller:
    """A closed-loop caller with the model it checks the program against.

    ``files`` maps each file name to its ``[item_id, record]`` list in
    logical order; ``deleted`` lists ``(name, file_id, item_id)`` of every
    record the caller assuredly deleted.
    """

    def __init__(self, run: Run, fs, rng: random.Random) -> None:
        self.run = run
        self.fs = fs
        self.rng = rng
        self.files: dict[str, list[list]] = {}
        self.file_ids: dict[str, int] = {}
        self.deleted: list[tuple[str, int, int]] = []
        self.results: list[OpResult] = []
        self.failed = 0
        self.quarantined: set[str] = set()
        #: Op kinds still to deal in the current deck (``point_step``).
        self.deck: list[str] = []

    def measure(self, kind: str, fn: Callable, records: int = 1):
        """Run ``fn`` as one timed op, with its counter deltas."""
        client = self.fs.client
        counters = client.channel.counters
        before = counters.snapshot()
        hashes = client.engine.hash_calls
        first_record = len(self.fs.metrics.records)
        recorder = self.run.recorder
        start = time.perf_counter()
        if recorder is None:
            value = fn()
        else:
            with recorder.op(next(self.run.op_ids), kind):
                value = fn()
        seconds = time.perf_counter() - start
        delta = counters.delta(before)
        self.results.append(OpResult(
            kind=kind, phase=self.run.phase, seconds=seconds,
            wire_bytes=delta.bytes_sent + delta.bytes_received,
            hash_calls=client.engine.hash_calls - hashes,
            round_trips=delta.round_trips, retransmits=delta.retransmits,
            retries=sum(r.retries
                        for r in self.fs.metrics.records[first_record:]),
            records=records, slice=len(self.run.slice_factors)))
        return value

    def create(self, name: str, records: list[bytes],
               kind: Optional[str] = None) -> float:
        """Outsource ``records`` as ``name``; returns the seconds taken."""
        start = time.perf_counter()
        if kind is None:
            handle = self.fs.create_file(name, records)
        else:
            handle = self.measure(kind, lambda: self.fs.create_file(
                name, records), records=len(records))
        seconds = time.perf_counter() - start
        ids = self.fs.client.item_ids_of(len(records))
        self.files[name] = [[item_id, data]
                            for item_id, data in zip(ids, records)]
        self.file_ids[name] = handle.file_id
        return seconds

    def reconnect(self, address, ctx) -> None:
        """Point the client at a relaunched server (same port)."""
        from repro.protocol.tcp import TcpChannel
        old = self.fs.client.channel
        self.fs.client.channel = TcpChannel(address, ctx)
        old.close()

    # -- point ops ----------------------------------------------------------

    def point_step(self, mix, record_bytes: int) -> None:
        """One op of a point mix at a uniform file and position.

        Kinds are dealt from a shuffled deck holding each kind ``weight``
        times, so every run of the deck has the mix exactly and a run's
        throughput does not swing with the seed's share of deletes."""
        rng = self.rng
        if not self.deck:
            self.deck = [kind for kind, weight in mix for _ in range(weight)]
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        names = sorted(self.files)
        name = names[rng.randrange(len(names))]
        records = self.files[name]
        position = rng.randrange(len(records))
        data = rng.randbytes(record_bytes)
        if name in self.quarantined:
            return
        handle = self.fs.open(name)
        try:
            if kind == "delete":
                self.measure(kind, lambda: handle.delete_record(position))
                item_id = records.pop(position)[0]
                self.deleted.append((name, self.file_ids[name], item_id))
            elif kind == "read":
                value = self.measure(kind,
                                     lambda: handle.read_record(position))
                if value != records[position][1]:
                    raise CheckFailed(
                        f"{name}[{position}] read back different bytes")
            elif kind == "write":
                self.measure(kind,
                             lambda: handle.write_record(position, data))
                records[position][1] = data
            else:
                item_id = self.measure(kind,
                                       lambda: handle.append_record(data))
                records.append([item_id, data])
        except CheckFailed:
            raise
        except Exception as exc:  # counted: the op failed or was refused
            self.failed += 1
            self.quarantined.add(name)
            print(f"# op failed: {kind} {name}[{position}]: {exc!r}",
                  file=sys.stderr)

    # -- bulk cycles --------------------------------------------------------

    def bulk_ops(self, scale: Scale):
        """Endless cycles of outsource, fetch, sweep half by
        ``delete_many``, fetch, drop; yields after each op."""
        rng = self.rng
        for cycle in itertools.count():
            name = f"b/c{cycle}"
            self.create(name, [rng.randbytes(scale.bs_record_bytes)
                               for _ in range(scale.bs_records)],
                        kind="create")
            yield
            handle = self.fs.open(name)
            records = self.files[name]
            self.fetch_and_check(name, handle)
            yield
            while len(records) > scale.bs_records // 2:
                positions = rng.sample(range(len(records)), scale.bs_batch)
                self.measure("sweep", lambda: handle.delete_many(positions),
                             records=len(positions))
                for position in sorted(positions, reverse=True):
                    item_id = records.pop(position)[0]
                    self.deleted.append((name, self.file_ids[name], item_id))
                yield
            key = self.master_key(name)
            check_deleted(self.fs, rng.sample(self.deleted, 4), {name: key})
            self.fetch_and_check(name, handle)
            yield
            survivor = records[0][0]
            self.measure("drop", lambda: self.fs.delete_file(name))
            del self.files[name]
            check_deleted(self.fs, [(name, self.file_ids[name], survivor)],
                          {name: key})
            self.deleted.clear()
            yield

    def fetch_and_check(self, name: str, handle) -> None:
        expected = [data for _item_id, data in self.files[name]]
        got = self.measure("fetch", handle.read_all, records=len(expected))
        compare_file(name, got, expected)

    def master_key(self, name: str) -> bytes:
        return self.fs.group_manager_of(name).master_key(self.file_ids[name])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def compare_file(name: str, got: list[bytes], expected: list[bytes]) -> None:
    if len(got) != len(expected):
        raise CheckFailed(f"{name}: read_all returned {len(got)} records, "
                          f"the model holds {len(expected)}")
    for position, (have, want) in enumerate(zip(got, expected)):
        if have != want:
            raise CheckFailed(f"{name}[{position}] differs from the model")


def check_deleted(fs, deleted, keys: dict) -> None:
    """Every deleted record must read as unknown-item."""
    from repro.core.errors import UnknownItemError
    for name, file_id, item_id in deleted:
        key = keys.get(name)
        if key is None:
            key = keys[name] = fs.group_manager_of(name).master_key(file_id)
        try:
            fs.client.access(file_id, key, item_id)
        except UnknownItemError:
            continue
        raise CheckFailed(f"deleted item {item_id} of {name} still reads")


def check_callers(callers: list[Caller], speed: hostspeed.HostSpeed,
                  passes: int = 1) -> list[tuple[int, float, float]]:
    """read_all every file against the model (``passes`` times) and
    probe every deleted record.  Each read_all runs between host-speed
    probes; returns its (plaintext bytes, seconds, factor)."""
    fetched = []
    for _ in range(passes):
        for caller in callers:
            for name in sorted(caller.files):
                if name in caller.quarantined:
                    continue
                expected = [data for _item_id, data in caller.files[name]]
                gc.collect()
                before = speed.probe()
                start = time.perf_counter()
                got = caller.fs.open(name).read_all()
                seconds = time.perf_counter() - start
                fetched.append((sum(map(len, expected)), seconds,
                                speed.factor(before, speed.probe())))
                compare_file(name, got, expected)
    for caller in callers:
        check_deleted(caller.fs, [d for d in caller.deleted
                                  if d[0] not in caller.quarantined], {})
    return fetched


def check_audit(vault: str, callers: list[Caller]) -> int:
    """The audit chain must verify and hold one applied DeleteCommit per
    acknowledged data-file delete; returns the chain length."""
    from repro.obs.audit import AuditError, verify_log
    try:
        records = verify_log(os.path.join(vault, "audit.log"))
    except AuditError as exc:
        raise CheckFailed(f"audit chain: {exc}") from None
    logged = sum(1 for r in records if r["op"] == "DeleteCommit"
                 and r["ok"] and r["file_id"] >= DATA_BASE)
    acked = sum(1 for c in callers for r in c.results if r.kind == "delete")
    if logged != acked:
        raise CheckFailed(f"audit chain holds {logged} data-file deletions, "
                          f"the run acknowledged {acked}")
    return len(records)


# ----------------------------------------------------------------------
# The durable CLI server, in its own process
# ----------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro.cli serve --durable --backend sqlite --audit`` through
    ``launcher.py``, on a fixed port so a relaunch keeps its address."""

    def __init__(self, run: Run, vault: str, port: int,
                 cache_nodes: int) -> None:
        self.run = run
        self.vault = vault
        self.port = port
        self.cache_nodes = cache_nodes
        self.proc: Optional[subprocess.Popen] = None
        #: Launcher dumps live beside the vault, which is removed.
        self.out = vault + ".server"
        self._drain: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def _env(self) -> dict:
        return dict(os.environ, PYTHONPATH=os.path.join(self.run.root, "src"),
                    PERFBENCH_OUT=self.out)

    def _shown(self, argv: list[str]) -> list[str]:
        """``argv`` with the interpreter dropped and paths made relative
        to the checkout, as recorded in the run envelope."""
        return [os.path.relpath(arg, self.run.root)
                if arg.startswith(self.run.root) else arg
                for arg in argv[1:]]

    def init(self) -> None:
        argv = [sys.executable, "-m", "repro.cli", "--server-dir", self.vault,
                "init"]
        self.run.commands.append(self._shown(argv))
        subprocess.run(argv, env=self._env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)

    def start(self) -> None:
        """Launch and block until the server prints its address."""
        argv = [sys.executable, os.path.join(self.run.root, "perfbench",
                                             "launcher.py"),
                "--server-dir", self.vault, "serve", "--durable",
                "--backend", "sqlite", "--audit", "--port", str(self.port),
                "--cache-nodes", str(self.cache_nodes)]
        self.run.commands.append(self._shown(argv))
        with open(os.path.join(self.vault, "server.stderr"), "ab") as err:
            self.proc = subprocess.Popen(
                argv, env=self._env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, text=True)
        for line in self.proc.stdout:
            if line.startswith("serving vault on"):
                break
        else:
            self.proc.wait(timeout=60)
            raise RuntimeError(f"server exited with {self.proc.returncode}; "
                               f"see {self.vault}/server.stderr")
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def _signal_for(self, signum: int, path: str) -> dict:
        if os.path.exists(path):
            os.remove(path)
        self.proc.send_signal(signum)
        deadline = time.monotonic() + 60
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server did not answer signal {signum}")
            time.sleep(0.002)
        return spans.read_json(path)

    def start_tracing(self) -> None:
        self._signal_for(signal.SIGUSR1, self.out + ".on")

    def dump(self) -> dict:
        """Spans, counters and process usage of the running server."""
        return self._signal_for(signal.SIGUSR2, self.out)

    def _reap(self) -> None:
        self.proc.wait(timeout=60)
        self._drain.join(timeout=10)
        self.proc.stdout.close()
        self.proc = None

    def stop(self) -> dict:
        """SIGINT: the CLI checkpoints (``compact_storage``) and exits;
        returns the launcher's exit record.  Only sent once the server
        has been up for a while: an interrupt that lands before the CLI
        parks in its wait escapes its handler and skips the checkpoint."""
        self.proc.send_signal(signal.SIGINT)
        self._reap()
        return spans.read_json(self.out + ".exit")

    def kill(self) -> None:
        self.proc.kill()
        self._reap()

    def ensure_stopped(self) -> None:
        if self.proc is not None:
            self.kill()


def connect(run: Run, server: Server, index: int):
    """A file-system client over TCP with its own id-space partition."""
    from repro.core.params import Params
    from repro.fs.filesystem import OutsourcedFileSystem
    from repro.protocol.tcp import TcpChannel
    from repro.protocol.wire import WireContext
    params = Params()
    ctx = WireContext(modulator_width=params.modulator_size)
    fs = OutsourcedFileSystem(TcpChannel(server.address, ctx), params=params,
                              meta_id_base=1 + index * META_BASE,
                              file_id_base=(index + 1) * DATA_BASE)
    return fs, ctx


def first_reply_seconds(server: Server, ctx, file_id: int,
                        item_id: int, start: float) -> float:
    """Seconds from ``start`` until a started server answers a read of a
    live item."""
    from repro.protocol import messages as msg
    from repro.protocol.tcp import RetryPolicy, TcpChannel
    with TcpChannel(server.address, ctx,
                    retry=RetryPolicy(attempts=1)) as channel:
        reply = channel.request(msg.AccessRequest(file_id=file_id,
                                                  item_id=item_id))
    if not isinstance(reply, msg.AccessReply):
        raise CheckFailed(f"first reply after relaunch: {reply!r}")
    return time.perf_counter() - start


def wal_bytes(vault: str) -> int:
    path = os.path.join(vault, "server.wal")
    return os.path.getsize(path) if os.path.exists(path) else 0


def disk_bytes(vault: str) -> int:
    """Engine + WAL + audit bytes under a vault directory."""
    return sum(os.path.getsize(os.path.join(vault, name))
               for name in os.listdir(vault)
               if name.startswith(("state.db", "server.wal", "audit.log")))


# ----------------------------------------------------------------------
# Phases and tracing
# ----------------------------------------------------------------------

@dataclass
class Phase:
    name: str
    #: Loop wall time, probes excluded, and the same scaled slice by slice.
    seconds: float
    scaled_seconds: float
    ops: int


class Tracing:
    """Turns span recording on in the benchmark process and, when given,
    in the server process; collects what the traced phase recorded."""

    def __init__(self, run: Run, server: Optional[Server] = None) -> None:
        self.run = run
        self.server = server
        self.recorder = spans.Recorder()
        self.server_record: Optional[dict] = None
        self.wal_growth = 0
        self.client_cpu_s = 0.0

    def start(self) -> None:
        targets = spans.client_targets()
        if self.server is None:
            targets += spans.server_targets()
            self.recorder.install_counters()
        else:
            self.server.start_tracing()
            self._wal0 = wal_bytes(self.server.vault)
        self.recorder.install(targets)
        self.run.recorder = self.recorder

    def stop(self) -> None:
        self.client_cpu_s = spans.process_cpu_seconds() - self.recorder.cpu_start
        self.run.recorder = None
        self.recorder.uninstall()
        if self.server is not None:
            self.server_record = self.server.dump()
            self.wal_growth = wal_bytes(self.server.vault) - self._wal0


def run_loop(run: Run, callers: list[Caller], step: Callable,
             tracing: Tracing) -> list[Phase]:
    """Each caller runs ``step(caller)`` back to back in its own thread;
    every ``SLICE_S`` the callers finish their op and pause for a
    host-speed probe.  Traced runs trace the second phase."""

    def until(caller: Caller, stop: float) -> None:
        while time.perf_counter() < stop:
            step(caller)

    phases = []
    for name, seconds in run.phases():
        run.phase = name
        if name == "traced":
            tracing.start()
        counts = [len(c.results) for c in callers]
        end = time.perf_counter() + seconds
        wall = scaled = 0.0
        before = run.speed.probe()
        while time.perf_counter() < end:
            start = time.perf_counter()
            stop = min(start + SLICE_S, end)
            _in_threads([lambda c=c: until(c, stop) for c in callers])
            took = time.perf_counter() - start
            after = run.speed.probe()
            factor = run.speed.factor(before, after)
            run.slice_factors.append(factor)
            wall += took
            scaled += took * factor
            before = after
        if name == "traced":
            tracing.stop()
        phases.append(Phase(name, wall, scaled, sum(
            len(c.results) - n for c, n in zip(callers, counts))))
    run.phase = "check"
    return phases


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What a workload hands to the reporting code.  Timed quantities
    carry the host-speed factor they were measured under."""

    callers: list
    phases: list
    #: (seconds, factor) per set-up.
    setups: list
    #: (plaintext bytes, seconds, factor) per outsourcing / fetching stage.
    outsourced: list
    fetched: list
    slice_factors: list
    peak_rss_mb: float
    tracing: Tracing
    extra: dict
    #: The launcher's exit record of a traced final checkpoint.
    flush_record: Optional[dict] = None


def point_large(run: Run) -> Outcome:
    from repro.fs.filesystem import OutsourcedFileSystem
    scale = run.scale
    data = run.rng("data")
    contents = {f"g/f{i}": [data.randbytes(scale.pl_record_bytes)
                            for _ in range(scale.pl_records)]
                for i in range(scale.pl_files)}

    def setup():
        start = time.perf_counter()
        caller = Caller(run, OutsourcedFileSystem(), run.rng("ops"))
        created = [(sum(map(len, recs)), caller.create(name, recs))
                   for name, recs in contents.items()]
        return caller, created, time.perf_counter() - start

    setups, outsourced = [], []
    caller = None
    for _ in range(scale.setups):
        caller = None  # release the previous state before rebuilding
        (caller, created, took), factor = run.bracketed(setup)
        setups.append((took, factor))
        outsourced.extend((nbytes, seconds, factor)
                          for nbytes, seconds in created)
    tracing = Tracing(run)
    phases = run_loop(run, [caller], lambda c: c.point_step(
        POINT_LARGE_MIX, scale.pl_record_bytes), tracing)
    fetched = check_callers([caller], run.speed, passes=5)
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Outcome([caller], phases, setups, outsourced, fetched,
                   run.slice_factors, peak, tracing, {})


def durable_paged(run: Run) -> Outcome:
    scale = run.scale
    data = run.rng("data")
    contents = [{f"g{c}/f{i}": [data.randbytes(scale.dp_record_bytes)
                                for _ in range(scale.dp_records)]
                 for i in range(scale.dp_files)}
                for c in range(scale.dp_callers)]
    total = sum(len(r) for part in contents for recs in part.values()
                for r in recs)
    port = free_port()

    def setup(vault: str):
        start = time.perf_counter()
        server = Server(run, vault, port, scale.dp_cache_nodes)
        server.init()
        server.start()
        callers = []
        for index in range(scale.dp_callers):
            fs, ctx = connect(run, server, index)
            callers.append(Caller(run, fs, run.rng("ops", index)))
        def load() -> float:
            loading = time.perf_counter()
            _in_threads([lambda c=c, part=part: [
                c.create(name, recs) for name, recs in part.items()]
                for c, part in zip(callers, contents)])
            return time.perf_counter() - loading

        seconds, factor = run.bracketed(load)
        loaded = (total, seconds, factor)
        server.stop()  # checkpoint: compact_storage into SQLite
        server.start()  # files now page in from the engine
        for caller in callers:
            caller.reconnect(server.address, ctx)
        return server, callers, ctx, loaded, time.perf_counter() - start

    setups, outsourced = [], []
    server = callers = None
    try:
        for attempt in range(scale.setups):
            if server is not None:  # discard the previous setup
                for caller in callers:
                    caller.fs.client.channel.close()
                server.kill()
                shutil.rmtree(server.vault)
            vault = os.path.join(run.state_dir, f"vault{attempt}")
            (server, callers, ctx, loaded, took), factor = run.bracketed(
                lambda: setup(vault))
            setups.append((took, factor))
            outsourced.append(loaded)

        tracing = Tracing(run, server)
        phases = run_loop(run, callers, lambda c: c.point_step(
            DURABLE_PAGED_MIX, scale.dp_record_bytes), tracing)
        peak = server.dump()["peak_rss_mb"]
        wal_records = wal_bytes(vault)
        server.kill()
        probe_name = sorted(callers[0].files)[0]
        probe = (callers[0].file_ids[probe_name],
                 callers[0].files[probe_name][0][0])
        start = time.perf_counter()
        server.start()
        recovery_s = first_reply_seconds(server, ctx, *probe, start)
        for caller in callers:
            caller.reconnect(server.address, ctx)
        fetched = check_callers(callers, run.speed)
        if run.trace:  # time the final checkpoint's compact_storage
            server.start_tracing()
        final = server.stop()
        audit_records = check_audit(vault, callers)
        live = sum(len(data) for c in callers for recs in c.files.values()
                   for _item_id, data in recs)
        extra = {"recovery_s": recovery_s,
                 "disk_bytes_per_user_byte": disk_bytes(vault) / live,
                 "wal_bytes_at_kill": wal_records,
                 "audit_records": audit_records}
        shutil.rmtree(vault)
    finally:
        if server is not None:
            server.ensure_stopped()
    return Outcome(callers, phases, setups, outsourced, fetched,
                   run.slice_factors, peak, tracing, extra,
                   flush_record=final if run.trace else None)


def bulk_sweep(run: Run) -> Outcome:
    scale = run.scale
    port = free_port()

    def setup(vault: str):
        start = time.perf_counter()
        server = Server(run, vault, port, scale.dp_cache_nodes)
        server.init()
        server.start()
        fs, _ctx = connect(run, server, 0)
        return server, Caller(run, fs, run.rng("ops")), \
            time.perf_counter() - start

    setups = []
    server = caller = None
    try:
        for attempt in range(scale.setups):
            if server is not None:  # discard the previous setup
                caller.fs.client.channel.close()
                server.kill()
                shutil.rmtree(server.vault)
            vault = os.path.join(run.state_dir, f"vault{attempt}")
            (server, caller, took), factor = run.bracketed(
                lambda: setup(vault))
            setups.append((took, factor))
        tracing = Tracing(run, server)
        caller.bulk = caller.bulk_ops(scale)
        phases = run_loop(run, [caller], lambda c: next(c.bulk), tracing)
        check_callers([caller], run.speed)  # the cycle the loop stopped in
        final = server.stop()
        shutil.rmtree(server.vault)
    finally:
        if server is not None:
            server.ensure_stopped()

    def staged(kind: str) -> list:
        return [(r.records * scale.bs_record_bytes, r.seconds,
                 run.slice_factors[r.slice])
                for r in caller.results if r.kind == kind]

    return Outcome([caller], phases, setups, staged("create"),
                   staged("fetch"), run.slice_factors, final["peak_rss_mb"],
                   tracing, {}, flush_record=final if run.trace else None)


def _in_threads(jobs: list[Callable]) -> None:
    errors: list[BaseException] = []

    def run_job(job):
        try:
            job()
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run_job, args=(job,)) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


RUNNERS = {"point-large": point_large, "durable-paged": durable_paged,
           "bulk-sweep": bulk_sweep}
WORKLOADS = tuple(RUNNERS)
