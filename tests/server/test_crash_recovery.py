"""Kill -9 semantics: every mutating operation is all-or-nothing.

The harness runs the real client against a WAL-backed server through the
fault-injecting channel, fires a simulated crash at each commit crash
point, restarts the server from disk (``recover_server``), and then
replays the client's retransmission -- the same encoded bytes, same
request id.  The pinned property is the one the paper's assurance
argument needs: after recovery the operation is either fully applied or
fully absent, and the retry converges to applied *exactly once*.

Durable state is the SQLite engine (``state.db``) plus the WAL; a
checkpoint is ``compact_storage``.  With an audit chain attached, the
evidence trail must also survive every crash point: the chain's
history equals the WAL's, so a commit that recovery applies is never
missing from the record (nor recorded twice).
"""

import os
import shutil

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import SimulatedCrash, UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.obs.audit import AuditLog, verify_log
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (CRASH_AFTER_APPLY, CRASH_BEFORE_APPLY,
                                   DROP_RESPONSE, NONE, ChannelError,
                                   FaultInjectingChannel)
from repro.server.cluster import ShardCluster
from repro.server.engine import make_engine
from repro.server.server import (CRASH_POINT_AFTER_APPLY,
                                 CRASH_POINT_AFTER_FLUSH,
                                 CRASH_POINT_BEFORE_FLUSH, CloudServer)
from repro.server.wal import CommitLog, recover_server
from repro.sim.threat import snapshot_file

pytestmark = pytest.mark.slow

CRASH_POINTS = [CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY]


def _kill(server):
    """Process death: handles drop, staged engine writes roll back."""
    server.wal.close()
    if server.engine is not None:
        server.engine._conn.rollback()
        server.engine._conn.close()


def _history_matches(wal_path, audit_path, ctx):
    """The audit chain verifies and records exactly the WAL's commits."""
    with CommitLog(wal_path) as log:
        wal_history = [(type(request).__name__, request.request_id)
                       for request in (msg.decode_message(ctx, record)
                                       for record in log.records())]
    audit_history = [(record["op"], record["request_id"])
                     for record in verify_log(audit_path)]
    assert audit_history == wal_history
    return audit_history


class Harness:
    """One durable server + client pair with deterministic randomness.

    ``checkpoint`` compacts right after the first outsource (the WAL then
    holds only later commits); ``audit`` attaches an audit chain.
    """

    def __init__(self, directory, seed="crash", n=6, group_commit=False,
                 checkpoint=True, audit=False):
        directory.mkdir(exist_ok=True)
        self.engine_path = str(directory / "state.db")
        self.wal_path = str(directory / "server.wal")
        self.audit_path = str(directory / "audit.log")
        self.group_commit = group_commit
        self.audit = (AuditLog(self.audit_path, sync="off")
                      if audit else None)
        self.server = CloudServer(
            wal=CommitLog(self.wal_path, group_commit=group_commit),
            engine=make_engine("sqlite", self.engine_path),
            audit=self.audit)
        self.channel = FaultInjectingChannel(self.server, [])
        self.client = AssuredDeletionClient(self.channel,
                                            rng=DeterministicRandom(seed))
        self.key = self.client.outsource(
            1, [b"item-%d" % i for i in range(n)])
        self.ids = self.client.item_ids_of(n)
        if checkpoint:
            self.server.compact_storage()

    def schedule(self, faults):
        self.channel._schedule = iter(faults)

    def restart(self):
        """Simulate the kill -9: only the on-disk state survives."""
        _kill(self.server)
        if self.audit is not None:
            self.audit.close()
            self.audit = AuditLog(self.audit_path, sync="off")
        self.server = recover_server(
            self.wal_path, engine=make_engine("sqlite", self.engine_path),
            audit=self.audit)
        self.channel._server = self.server  # the client re-dials
        return self.server

    def check_audit(self):
        return _history_matches(self.wal_path, self.audit_path,
                                self.server.ctx)


# Each operation, with the fault-schedule prefix covering its
# non-mutating message(s) and the file id its commit lands on.
def _op_modify(h):
    h.client.modify(1, h.key, h.ids[0], b"patched")


def _op_insert(h):
    h.client.insert(1, h.key, b"fresh")


def _op_delete(h):
    h.client.delete(1, h.key, h.ids[1])


def _op_batch_delete(h):
    h.client.delete_many(1, h.key, (h.ids[1], h.ids[4]))


def _op_outsource(h):
    h.client.outsource(2, [b"second-file"])


def _op_delete_file(h):
    h.client.delete_file_state(1)


OPS = [
    ("modify", _op_modify, [NONE], 1),
    ("insert", _op_insert, [NONE], 1),
    ("delete", _op_delete, [NONE], 1),
    ("batch-delete", _op_batch_delete, [NONE], 1),
    ("outsource", _op_outsource, [], 2),
    ("delete-file", _op_delete_file, [], 1),
]


@pytest.mark.parametrize("crash", CRASH_POINTS)
@pytest.mark.parametrize("name,op,prefix,file_id", OPS,
                         ids=[name for name, *_ in OPS])
def test_crash_then_retry_applies_exactly_once(tmp_path, name, op, prefix,
                                               file_id, crash):
    """The WAL record is durable before either crash point, so recovery
    applies the operation; the retransmission is answered from the
    request-id cache without a second application, and the final state
    equals a crash-free run with identical randomness."""
    h = Harness(tmp_path / "crashed")
    twin = Harness(tmp_path / "twin")
    op(twin)  # the crash-free outcome (same seed, same rng draws)

    h.schedule(prefix + [crash])
    with pytest.raises(ChannelError):
        op(h)
    commit_bytes = h.channel.last_request_bytes

    recovered = h.restart()
    # The client's retry: same bytes, same request id -- twice, to pin
    # idempotence of the retry itself.
    first = recovered.handle_bytes(commit_bytes)
    assert isinstance(msg.decode_message(recovered.ctx, first), msg.Ack)
    assert recovered.handle_bytes(commit_bytes) == first

    if name == "delete-file":
        assert not recovered.has_file(1)
        assert not twin.server.has_file(1)
    else:
        assert snapshot_file(recovered, file_id) == \
            snapshot_file(twin.server, file_id)
        assert recovered.file_state(file_id).version == \
            twin.server.file_state(file_id).version


@pytest.mark.parametrize("crash", CRASH_POINTS)
def test_journalled_delete_converges_across_restart(tmp_path, crash):
    """End to end through the client: the deletion journal survives the
    server crash, resume_delete converges, and only then is the old key
    shredded (the paper's deletion time T)."""
    h = Harness(tmp_path)
    h.schedule([NONE, crash])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[2])
    assert h.client.pending_deletes() == [(1, h.ids[2])]

    h.restart()
    new_key = h.client.resume_delete(1, h.ids[2])
    assert h.client.pending_deletes() == []
    assert h.server.file_state(1).tree.leaf_count == 5
    assert h.server.file_state(1).version == 1  # exactly once
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"
    with pytest.raises(UnknownItemError):
        h.client.access(1, new_key, h.ids[2])


@pytest.mark.parametrize("crash", CRASH_POINTS)
def test_journalled_batch_converges_across_restart(tmp_path, crash):
    h = Harness(tmp_path)
    victims = (h.ids[1], h.ids[4])
    h.schedule([NONE, crash])
    with pytest.raises(ChannelError):
        h.client.delete_many(1, h.key, victims)
    assert h.client.pending_batch_deletes() == [(1, victims)]

    h.restart()
    new_key = h.client.resume_delete_many(1, victims)
    assert h.server.file_state(1).tree.leaf_count == 4
    assert h.server.file_state(1).version == 1
    for index in (0, 2, 3, 5):
        assert h.client.access(1, new_key, h.ids[index]) == b"item-%d" % index
    for victim in victims:
        with pytest.raises(UnknownItemError):
            h.client.access(1, new_key, victim)


@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["per-append", "group-commit"])
def test_every_wal_truncation_point_is_all_or_nothing(tmp_path,
                                                      group_commit):
    """Sweep the kill -9 over every byte of the WAL write itself.

    A commit crashes after application; its WAL file is then truncated at
    every possible offset (the torn record a real crash mid-``write``
    leaves).  Recovery from each prefix must yield either the pre-commit
    state (record torn => fully absent) or the applied state (record
    durable => fully applied), and the client's retransmitted commit must
    converge to the same applied-exactly-once state from both.  Group
    commit must not change the on-disk story at any cut."""
    h = Harness(tmp_path / "origin", n=5, group_commit=group_commit)
    baseline = snapshot_file(h.server, 1)
    h.schedule([NONE, CRASH_AFTER_APPLY])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[1])
    commit_bytes = h.channel.last_request_bytes
    _kill(h.server)

    wal_bytes = (tmp_path / "origin" / "server.wal").read_bytes()
    record_start = 6  # header: magic + u16 version
    assert len(wal_bytes) > record_start  # exactly one logged commit
    applied = None
    for cut in range(len(wal_bytes) + 1):
        trial = tmp_path / f"cut-{cut}"
        trial.mkdir()
        wal_copy = trial / "server.wal"
        wal_copy.write_bytes(wal_bytes[:cut])
        shutil.copy(h.engine_path, trial / "state.db")
        engine = make_engine("sqlite", str(trial / "state.db"))
        recovered = recover_server(str(wal_copy), engine=engine)
        torn = cut < len(wal_bytes)
        if torn:
            assert snapshot_file(recovered, 1) == baseline  # fully absent
            assert recovered.file_state(1).version == 0
        # The client's journalled retry: same commit bytes either way.
        reply = msg.decode_message(recovered.ctx,
                                   recovered.handle_bytes(commit_bytes))
        assert isinstance(reply, msg.Ack)
        final = snapshot_file(recovered, 1)
        if applied is None:
            applied = final
        assert final == applied
        assert final != baseline
        assert recovered.file_state(1).version == 1
        recovered.wal.close()
        engine.close()


@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["per-append", "group-commit"])
def test_append_failure_then_crash_keeps_acknowledged_commits(tmp_path,
                                                              group_commit):
    """Injected append failure mid-run: the commit whose fsync failed was
    never acknowledged, the commits before AND after it were.  Recovery
    must replay exactly the acknowledged ones -- the torn record cannot
    be allowed to hide the later appends from the scan."""
    failures = {"armed": False}

    class _FailingSyncLog(CommitLog):
        def _sync(self, fileno):
            if failures["armed"]:
                failures["armed"] = False
                raise OSError(28, "No space left on device")
            super()._sync(fileno)

    directory = tmp_path / "flaky"
    directory.mkdir()
    engine_path = str(directory / "state.db")
    wal_path = str(directory / "server.wal")
    server = CloudServer(wal=_FailingSyncLog(wal_path,
                                             group_commit=group_commit),
                         engine=make_engine("sqlite", engine_path))
    client = AssuredDeletionClient(FaultInjectingChannel(server, []),
                                   rng=DeterministicRandom("flaky"))
    key = client.outsource(1, [b"item-%d" % i for i in range(4)])
    ids = client.item_ids_of(4)
    server.compact_storage()

    client.modify(1, key, ids[0], b"acknowledged-1")
    failures["armed"] = True
    with pytest.raises(OSError):
        client.modify(1, key, ids[1], b"never-acknowledged")
    client.modify(1, key, ids[2], b"acknowledged-2")  # after the repair
    expected = snapshot_file(server, 1)
    _kill(server)

    engine = make_engine("sqlite", engine_path)
    recovered = recover_server(wal_path, engine=engine)
    assert snapshot_file(recovered, 1) == expected
    recovered.wal.close()
    engine.close()


def test_missing_wal_directory_entry_recovers_from_engine(tmp_path):
    """The lost-directory-entry crash: the WAL file's name never became
    durable and the file is simply gone after restart.  Recovery must
    fall back to the engine's last checkpoint, recreate the log (and
    this time fsync the directory), and keep serving durably."""
    h = Harness(tmp_path)
    h.client.modify(1, h.key, h.ids[0], b"checkpointed")
    h.server.compact_storage()
    expected = snapshot_file(h.server, 1)
    _kill(h.server)
    os.unlink(h.wal_path)  # the directory entry the crash forgot

    engine = make_engine("sqlite", h.engine_path)
    recovered = recover_server(h.wal_path, engine=engine)
    assert os.path.exists(h.wal_path)  # recreated, header only
    assert snapshot_file(recovered, 1) == expected
    # And the recreated log keeps accepting durable commits.
    client = AssuredDeletionClient(FaultInjectingChannel(recovered, []),
                                   rng=DeterministicRandom("post"),
                                   keystore=h.client.keystore,
                                   store_keys=False)
    client.modify(1, h.key, h.ids[1], b"after-recreate")
    expected = snapshot_file(recovered, 1)
    _kill(recovered)
    engine = make_engine("sqlite", h.engine_path)
    again = recover_server(h.wal_path, engine=engine)
    assert snapshot_file(again, 1) == expected
    again.wal.close()
    engine.close()


def test_retry_after_checkpoint_answers_from_persisted_cache(tmp_path):
    """The Ack is lost, the server checkpoints (WAL truncated!) and
    crashes.  The only thing that can answer the client's retry
    correctly is the replay table persisted in the engine -- without it
    the retry would bounce off the version check as stale."""
    h = Harness(tmp_path)
    h.schedule([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[3])
    h.server.compact_storage()

    h.restart()
    assert h.server.last_recovery["replayed_records"] == 0
    new_key = h.client.resume_delete(1, h.ids[3])
    assert h.server.file_state(1).version == 1  # answered, not re-applied
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"


def test_crash_without_wal_stays_consistent_in_memory():
    """Crash points also work without a WAL attached (pure fault test):
    before-apply leaves the state untouched, after-apply leaves it
    applied, and the journalled retry converges either way."""
    server = CloudServer()
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel, rng=DeterministicRandom("mem"))
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids = client.item_ids_of(4)

    channel._schedule = iter([NONE, CRASH_BEFORE_APPLY])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])
    assert server.file_state(1).tree.leaf_count == 4  # untouched
    key = client.resume_delete(1, ids[1])
    assert server.file_state(1).tree.leaf_count == 3

    channel._schedule = iter([NONE, CRASH_AFTER_APPLY])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[2])
    assert server.file_state(1).tree.leaf_count == 2  # applied
    key = client.resume_delete(1, ids[2])
    assert server.file_state(1).tree.leaf_count == 2  # exactly once
    assert client.access(1, key, ids[0]) == b"a"


# ---------------------------------------------------------------------
# The audit chain across crashes: audit history == WAL history
# ---------------------------------------------------------------------

@pytest.mark.parametrize("crash", CRASH_POINTS)
@pytest.mark.parametrize("name,op,prefix,file_id", OPS,
                         ids=[name for name, *_ in OPS])
def test_audit_history_equals_wal_history_after_commit_crash(
        tmp_path, name, op, prefix, file_id, crash):
    """A commit logged but not audited before the crash (it died before
    applying, or after applying but before its audit append) is applied
    by replay, so recovery must put it on the chain; the client's retry
    is then answered from the replay cache and records nothing more."""
    h = Harness(tmp_path, checkpoint=False, audit=True)
    h.schedule(prefix + [crash])
    with pytest.raises(ChannelError):
        op(h)
    commit_bytes = h.channel.last_request_bytes

    h.restart()
    assert h.server.last_recovery["audited_records"] == 1
    h.server.handle_bytes(commit_bytes)  # the client's retry
    history = h.check_audit()
    assert history[-1][0] == type(
        msg.decode_message(h.server.ctx, commit_bytes)).__name__


@pytest.mark.parametrize("point", [CRASH_POINT_BEFORE_FLUSH,
                                   CRASH_POINT_AFTER_FLUSH])
def test_audit_history_equals_wal_history_after_compaction_crash(
        tmp_path, point):
    """Both compaction seams leave the WAL untruncated and every record
    already on the chain: replay must record nothing twice, and the
    chain keeps matching as the recovered server takes new commits."""
    h = Harness(tmp_path, checkpoint=False, audit=True)
    h.key = h.client.delete(1, h.key, h.ids[1])
    h.server.arm_crash(point)
    with pytest.raises(SimulatedCrash):
        h.server.compact_storage()

    h.restart()
    assert h.server.last_recovery["replayed_records"] == 2
    assert h.server.last_recovery["audited_records"] == 0
    h.check_audit()
    h.client.modify(1, h.key, h.ids[0], b"after-restart")
    assert len(h.check_audit()) == 3


def test_audit_history_equals_wal_history_on_a_recovered_shard(tmp_path):
    """``ShardCluster.recover_shard`` hands the shard's chain to recovery
    too: an after-apply crash on one shard still reaches its trail."""
    cluster = ShardCluster(2, data_dir=str(tmp_path), durable=True,
                           storage_backend="sqlite", audit=True,
                           audit_sync="off")
    try:
        unit = cluster.unit_for(1)
        client = AssuredDeletionClient(LoopbackChannel(unit.backend),
                                       rng=DeterministicRandom("shard"))
        key = client.outsource(1, [b"a", b"b", b"c"])
        ids = client.item_ids_of(3)
        unit.server.arm_crash(CRASH_POINT_AFTER_APPLY)
        with pytest.raises(SimulatedCrash):
            client.delete(1, key, ids[1])
        _kill(unit.server)
        unit.engine = make_engine("sqlite", unit.engine_path)
        recovered = cluster.recover_shard(unit.shard_id)
        assert recovered.last_recovery["audited_records"] == 1
        key = client.resume_delete(1, ids[1])
        assert client.access(1, key, ids[0]) == b"a"
        history = _history_matches(unit.wal_path, unit.audit_path,
                                   recovered.ctx)
        assert [op for op, _rid in history] == ["OutsourceRequest",
                                                "DeleteCommit"]
    finally:
        cluster.stop()
