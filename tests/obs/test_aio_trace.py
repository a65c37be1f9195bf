"""Trace trailers across the one TCP host, where the asyncio transport used to carry them.

``test_wire_trace.py`` pins the trailer bytes and ``test_end_to_end.py``
follows a deletion over a plain WAL.  With the tagged (pipelined)
framing gone, a request frame is tagged only by its trace trailer; this
module proves that tag survives what the asyncio transport was tested
for: a group-commit WAL whose fsync runs on another thread, a
retransmit (re-dialled over TCP, not re-sent under a fresh tag), the
host's synthesized ErrorReply, untraced traffic, and application spans.
"""

import io
import json
import socket
import time

import pytest

from repro import obs
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.obs.trace import TraceContext, span
from repro.protocol import messages as msg
from repro.protocol.tcp import (RetryPolicy, TcpChannel, TcpServerHost,
                                recv_frame, send_frame)
from repro.server.server import CloudServer
from repro.server.wal import CommitLog

pytestmark = pytest.mark.socket


def records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def spans_named(recs, name):
    return [r for r in recs if r.get("event") == "span" and r["name"] == name]


def _seeded(host, server, seed, n=4):
    with TcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel,
                                       rng=DeterministicRandom(seed))
        client.outsource(1, [b"net-%d" % i for i in range(n)])
        ids = client.item_ids_of(n)
    return client.keystore.get("master:1"), ids, client.keystore


def test_traced_delete_over_tagged_framing_shares_one_trace_id(tmp_path):
    """Under group commit the fsync runs on the committer thread, yet the
    wal.append spans stay in the deleting client's trace."""
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    with CommitLog(str(tmp_path / "server.wal"), group_commit=True) as wal:
        server.attach_wal(wal)
        with TcpServerHost(server) as host:
            key, ids, keystore = _seeded(host, server, seed="gc-trace")
            buf.truncate(0)
            buf.seek(0)
            with TcpChannel(host.address, server.ctx) as channel:
                client = AssuredDeletionClient(channel,
                                               rng=DeterministicRandom("t2"),
                                               keystore=keystore,
                                               store_keys=False)
                client.delete(1, key, ids[1])

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    trace_id = root["trace_id"]
    for name in ("rpc.request", "server.handle", "wal.append"):
        named = spans_named(recs, name)
        assert named, name
        assert all(r["trace_id"] == trace_id for r in named), name
    rpc_ids = {r["span_id"] for r in spans_named(recs, "rpc.request")}
    assert all(r["parent_span_id"] in rpc_ids
               for r in spans_named(recs, "server.handle"))


class _SlowReplyOnce:
    """Apply the first DeleteCommit but stall its reply past the client
    timeout, forcing a retransmit of identical bytes."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.ctx = inner.ctx
        self.delay = delay
        self.stalled = False

    def handle_bytes(self, data):
        response = self.inner.handle_bytes(data)
        request = msg.decode_message(self.ctx, data)
        if isinstance(request, msg.DeleteCommit) and not self.stalled:
            self.stalled = True
            time.sleep(self.delay)
        return response


def test_retransmit_under_fresh_tag_keeps_the_trace_id():
    """TcpChannel retransmits on a fresh connection with the same bytes,
    trailer included: both deliveries hang off the one rpc span."""
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    backend = _SlowReplyOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded(host, server, seed="rt")
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("rt2"),
                                           keystore=keystore,
                                           store_keys=False)
            client.delete(1, key, ids[0])
            assert channel.counters.retransmits >= 1

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    retransmits = [r for r in recs if r.get("event") == "rpc.retransmit"]
    hits = [r for r in recs if r.get("event") == "server.replay_cache_hit"]
    assert retransmits and hits
    assert all(r["trace_id"] == root["trace_id"] for r in retransmits)
    assert all(h["trace_id"] == root["trace_id"] for h in hits)
    commits = [r for r in spans_named(recs, "server.handle")
               if r["type"] == "DeleteCommit"]
    (rpc,) = [r for r in spans_named(recs, "rpc.request")
              if r["type"] == "DeleteCommit"]
    assert len(commits) >= 2
    assert all(r["trace_id"] == root["trace_id"]
               and r["parent_span_id"] == rpc["span_id"] for r in commits)
    # And the duplicate applied exactly once.
    assert server.file_state(1).version == 1


class _Exploding:
    """Backend that dies on every request -- drives the host's
    error_reply_bytes path, the only reply that echoes a trailer."""

    def __init__(self, inner):
        self.ctx = inner.ctx

    def handle_bytes(self, data):
        raise RuntimeError("backend down")


def test_raw_tagged_frame_error_reply_echoes_tag_and_trailer():
    """Byte-level: a frame is [u32 len][payload] where the payload ends
    with the trace trailer; when the backend dies the synthesized
    ErrorReply echoes both correlators -- the request_id (protocol
    layer) and the trace trailer (obs layer)."""
    context = TraceContext(trace_id=bytes(range(16)),
                           span_id=bytes(range(8)))
    server = CloudServer()
    commit = msg.ModifyCommit(file_id=404, item_id=1, ciphertext=b"x",
                              tree_version=0, request_id=9)
    with TcpServerHost(_Exploding(server)) as host:
        with socket.create_connection(host.address, timeout=10) as raw:
            send_frame(raw, msg.encode_message(server.ctx, commit,
                                               trace=context))
            reply = msg.decode_message(server.ctx, recv_frame(raw))
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_BAD_REQUEST
    assert reply.request_id == 9
    echoed = msg.get_trace(reply)
    assert echoed is not None
    assert echoed.trace_id == context.trace_id


def test_untraced_tagged_frames_carry_no_trailer():
    """With observability off no frame carries a trailer, and the host's
    ErrorReply echoes none back -- no per-request trace overhead."""
    assert not obs.runtime.enabled
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=404))
            assert isinstance(reply, msg.ErrorReply)
            assert msg.get_trace(reply) is None
    with TcpServerHost(_Exploding(server)) as host:
        with socket.create_connection(host.address, timeout=10) as raw:
            send_frame(raw, msg.encode_message(
                server.ctx, msg.FetchFileRequest(file_id=404)))
            reply = msg.decode_message(server.ctx, recv_frame(raw))
    assert isinstance(reply, msg.ErrorReply)
    assert msg.get_trace(reply) is None


def test_client_span_context_rides_the_tagged_framing():
    """An application-level span around a request becomes the parent of
    the server.handle span on the other side of the socket."""
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            with span("app.batch"):
                channel.request(msg.FetchFileRequest(file_id=404))
    recs = records(buf)
    (app,) = spans_named(recs, "app.batch")
    (rpc,) = spans_named(recs, "rpc.request")
    assert rpc["parent_span_id"] == app["span_id"]
    handles = spans_named(recs, "server.handle")
    assert handles
    assert all(r["trace_id"] == app["trace_id"]
               and r["parent_span_id"] == rpc["span_id"] for r in handles)
