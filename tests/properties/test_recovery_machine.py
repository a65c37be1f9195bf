"""Stateful property test for the one recovery path: engine + WAL.

Hypothesis drives the real client against a durable server (SQLite
``state.db`` plus a write-ahead log) through random outsource, modify,
insert, delete, batch-delete and delete-file operations, interleaved
with checkpoints (``compact_storage``), crashes at each of the four
crash points, and clean close-and-``recover_server`` restarts.  A
resident twin server, driven by a client with the same seed, applies
the same operations without ever crashing.  After every step:

* every file's plaintexts match a dict model (read back through the
  durable client's ``fetch_file``);
* the durable server's per-file state (modulators, item map,
  ciphertexts, version) is bit-identical to the twin's
  (``snapshot_file``).
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.client.client import AssuredDeletionClient
from repro.core.errors import SimulatedCrash
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (CRASH_AFTER_APPLY, CRASH_BEFORE_APPLY,
                                   NONE, ChannelError, FaultInjectingChannel)
from repro.server.engine import make_engine
from repro.server.server import (CRASH_POINT_AFTER_FLUSH,
                                 CRASH_POINT_BEFORE_FLUSH, CloudServer)
from repro.server.wal import CommitLog, recover_server
from repro.sim.threat import snapshot_file
from tests.conftest import scaled_examples

pytestmark = pytest.mark.slow

payloads = st.binary(min_size=1, max_size=16)


class RecoveryMachine(RuleBasedStateMachine):

    @initialize(seed=st.integers(0, 2 ** 32))
    def setup(self, seed):
        self.dir = tempfile.mkdtemp(prefix="repro-recovery-machine-")
        self.engine_path = f"{self.dir}/state.db"
        self.wal_path = f"{self.dir}/server.wal"
        self.server = CloudServer(
            wal=CommitLog(self.wal_path),
            engine=make_engine("sqlite", self.engine_path))
        self.channel = FaultInjectingChannel(self.server, [])
        self.client = AssuredDeletionClient(
            self.channel, rng=DeterministicRandom(f"recovery-{seed}"))
        self.twin = CloudServer()
        self.twin_client = AssuredDeletionClient(
            LoopbackChannel(self.twin),
            rng=DeterministicRandom(f"recovery-{seed}"))
        #: file id -> (master key, {item id: plaintext}).
        self.model: dict[int, tuple[bytes, dict[int, bytes]]] = {}
        self.next_file = 1

    def teardown(self):
        if hasattr(self, "server"):
            self.server.wal.close()
            self.server.engine.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- helpers ----------------------------------------------------------

    def _restart(self, *, crashed):
        """Drop the server and recover it from ``state.db`` + WAL.

        A crash loses the engine's staged, unflushed writes; a clean
        close commits them (without compacting the WAL).
        """
        self.server.wal.close()
        if crashed:
            self.server.engine._conn.rollback()
            self.server.engine._conn.close()
        else:
            self.server.engine.close()
        self.server = recover_server(
            self.wal_path, engine=make_engine("sqlite", self.engine_path),
            cache_nodes=16)
        self.channel._server = self.server

    def _pick(self, data, min_items=1):
        fids = sorted(fid for fid, (_key, items) in self.model.items()
                      if len(items) >= min_items)
        return data.draw(st.sampled_from(fids))

    def _set_key(self, fid, key, twin_key):
        assert key == twin_key  # lockstep clients draw identical keys
        self.model[fid] = (key, self.model[fid][1])

    # -- operations -----------------------------------------------------

    @rule(records=st.lists(payloads, min_size=1, max_size=5))
    @precondition(lambda self: len(self.model) < 4)
    def outsource(self, records):
        fid = self.next_file
        self.next_file += 1
        key = self.client.outsource(fid, records)
        twin_key = self.twin_client.outsource(fid, records)
        ids = self.client.item_ids_of(len(records))
        assert ids == self.twin_client.item_ids_of(len(records))
        self.model[fid] = (key, dict(zip(ids, records)))
        self._set_key(fid, key, twin_key)

    @rule(data=st.data(), value=payloads)
    @precondition(lambda self: self.model)
    def modify(self, data, value):
        fid = self._pick(data)
        key, items = self.model[fid]
        item = data.draw(st.sampled_from(sorted(items)))
        self.client.modify(fid, key, item, value)
        self.twin_client.modify(fid, key, item, value)
        items[item] = value

    @rule(data=st.data(), value=payloads)
    @precondition(lambda self: self.model)
    def insert(self, data, value):
        fid = self._pick(data)
        key, items = self.model[fid]
        item = self.client.insert(fid, key, value)
        assert self.twin_client.insert(fid, key, value) == item
        items[item] = value

    @rule(data=st.data())
    @precondition(lambda self: any(len(items) >= 2
                                   for _key, items in self.model.values()))
    def delete(self, data):
        fid = self._pick(data, min_items=2)
        key, items = self.model[fid]
        item = data.draw(st.sampled_from(sorted(items)))
        new_key = self.client.delete(fid, key, item)
        self._set_key(fid, new_key, self.twin_client.delete(fid, key, item))
        del items[item]

    @rule(data=st.data())
    @precondition(lambda self: any(len(items) >= 3
                                   for _key, items in self.model.values()))
    def batch_delete(self, data):
        fid = self._pick(data, min_items=3)
        key, items = self.model[fid]
        victims = data.draw(st.lists(st.sampled_from(sorted(items)),
                                     min_size=2, max_size=len(items) - 1,
                                     unique=True))
        new_key = self.client.delete_many(fid, key, victims)
        self._set_key(fid, new_key,
                      self.twin_client.delete_many(fid, key, victims))
        for victim in victims:
            del items[victim]

    @rule(data=st.data())
    @precondition(lambda self: self.model)
    def delete_file(self, data):
        fid = self._pick(data)
        self.client.delete_file_state(fid)
        self.twin_client.delete_file_state(fid)
        del self.model[fid]

    # -- durability -----------------------------------------------------

    @rule()
    def compact(self):
        self.server.compact_storage()

    @rule(data=st.data(),
          crash=st.sampled_from([CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY]))
    @precondition(lambda self: any(len(items) >= 2
                                   for _key, items in self.model.values()))
    def crash_mid_delete(self, data, crash):
        """The commit is durable in the WAL before either crash point;
        recovery applies it and the journalled resend is answered."""
        fid = self._pick(data, min_items=2)
        key, items = self.model[fid]
        item = data.draw(st.sampled_from(sorted(items)))
        self.channel._schedule = iter([NONE, crash])
        with pytest.raises(ChannelError):
            self.client.delete(fid, key, item)
        self._restart(crashed=True)
        new_key = self.client.resume_delete(fid, item)
        self._set_key(fid, new_key, self.twin_client.delete(fid, key, item))
        del items[item]

    @rule(point=st.sampled_from([CRASH_POINT_BEFORE_FLUSH,
                                 CRASH_POINT_AFTER_FLUSH]))
    def crash_mid_compaction(self, point):
        self.server.arm_crash(point)
        with pytest.raises(SimulatedCrash):
            self.server.compact_storage()
        self._restart(crashed=True)

    @rule()
    def restart(self):
        self._restart(crashed=False)

    # -- the oracle -----------------------------------------------------

    @invariant()
    def matches_model_and_twin(self):
        if not hasattr(self, "server"):
            return
        assert self.server.file_ids() == self.twin.file_ids() == \
            sorted(self.model)
        for fid, (key, items) in self.model.items():
            assert self.client.fetch_file(fid, key) == items
            assert snapshot_file(self.server, fid) == \
                snapshot_file(self.twin, fid)


RecoveryMachine.TestCase.settings = settings(
    max_examples=scaled_examples(20), stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestRecovery = RecoveryMachine.TestCase
