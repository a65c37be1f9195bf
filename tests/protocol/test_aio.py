"""What clients of the removed asyncio transport relied on, held by the one host.

The pipelined asyncio channel and host are gone; ``TcpServerHost`` plus
``TcpChannel`` carry every connection.  This module keeps the client-
visible guarantees that transport was tested for, checked against the
thread host: request-id echo on failures, idempotent duplicate mutators
that leave the connection usable, close() failing a pending request
promptly, constructor validation, and protocol byte counts that match
loopback with trace-carrying frames.
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.faults import ChannelError
from repro.protocol.tcp import (RetryPolicy, TcpChannel, TcpServerHost,
                                recv_frame, send_frame)
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket


def _seeded(host, server, seed, n=4):
    with TcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel, rng=DeterministicRandom(seed))
        key = client.outsource(1, [b"net-%d" % i for i in range(n)])
        ids = client.item_ids_of(n)
    return key, ids, client.keystore


def test_error_reply_echoes_request_id():
    """A failing mutator's ErrorReply carries the request_id that caused
    it, so the client can correlate the failure."""
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(
                msg.ModifyCommit(file_id=999, item_id=1, ciphertext=b"x",
                                 tree_version=0, request_id=77))
    assert isinstance(reply, msg.ErrorReply)
    assert reply.request_id == 77


class _RecordModify:
    """Backend wrapper that keeps the bytes of every ModifyCommit."""

    def __init__(self, inner):
        self.inner = inner
        self.ctx = inner.ctx
        self.commits = []

    def handle_bytes(self, data):
        if isinstance(msg.decode_message(self.ctx, data), msg.ModifyCommit):
            self.commits.append(data)
        return self.inner.handle_bytes(data)


def test_inflight_mutator_retransmit_is_idempotent_and_keeps_connection():
    """An applied ModifyCommit re-sent twice back to back on one raw
    connection -- the duplicate already in flight behind the first -- is
    answered from the request-id cache with the original reply both
    times, applies once, and the connection keeps serving."""
    server = CloudServer()
    backend = _RecordModify(server)
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded(host, server, seed="idem")
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("idem2"),
                                           keystore=keystore,
                                           store_keys=False)
            client.modify(1, key, ids[1], b"patched")
            (commit,) = backend.commits
            first_reply = server.handle_bytes(commit)
            with socket.create_connection(host.address, timeout=10) as raw:
                raw.sendall(b"".join(
                    len(commit).to_bytes(4, "big") + commit
                    for _ in range(2)))
                assert recv_frame(raw) == first_reply
                assert recv_frame(raw) == first_reply
                send_frame(raw, msg.encode_message(
                    server.ctx, msg.FetchFileRequest(file_id=1)))
                fetched = msg.decode_message(server.ctx, recv_frame(raw))
            assert isinstance(fetched, msg.FetchFileReply)
            assert server.file_state(1).version == 0  # modify: no bump
            assert client.access(1, key, ids[1]) == b"patched"
            assert client.access(1, key, ids[0]) == b"net-0"


class _StallFirstAccess:
    """Backend wrapper: the first AccessRequest parks until released."""

    def __init__(self, inner):
        self.inner = inner
        self.ctx = inner.ctx
        self.release = threading.Event()
        self.parked = threading.Event()

    def handle_bytes(self, data):
        request = msg.decode_message(self.ctx, data)
        if isinstance(request, msg.AccessRequest) and not self.parked.is_set():
            self.parked.set()
            assert self.release.wait(10.0)
        return self.inner.handle_bytes(data)


def test_close_interrupts_pending_requests():
    """close() fails a request waiting on its reply promptly instead of
    letting it wait out its full timeout."""
    server = CloudServer()
    backend = _StallFirstAccess(server)
    with TcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server, seed="close")
        retry = RetryPolicy(attempts=1, timeout=30.0)
        channel = TcpChannel(host.address, server.ctx, retry=retry)
        failures = []

        def waiter():
            try:
                channel.request(msg.AccessRequest(file_id=1, item_id=ids[0]))
            except ChannelError as exc:
                failures.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        assert backend.parked.wait(5.0)
        start = time.monotonic()
        channel.close()
        thread.join(timeout=5.0)
        backend.release.set()
        assert not thread.is_alive()
        assert time.monotonic() - start < 5.0
        assert failures  # the pending request failed with ChannelError


def test_channel_validation():
    server = CloudServer()
    with TcpServerHost(server) as host:
        with pytest.raises(ValueError):
            TcpChannel(host.address, server.ctx, timeout=1.0,
                       retry=RetryPolicy())
        # A bare timeout becomes the retry policy's per-attempt timeout.
        with TcpChannel(host.address, server.ctx, timeout=2.5) as channel:
            assert channel.retry.timeout == 2.5
        address = host.address
    # The constructor dials: an unreachable server fails fast.
    with pytest.raises(OSError):
        TcpChannel(address, server.ctx, timeout=1.0)
    with pytest.raises(ValueError):
        TcpServerHost(server, max_conns=-1)


def _loopback_delete_record():
    from repro.protocol.channel import LoopbackChannel

    client = AssuredDeletionClient(LoopbackChannel(CloudServer()),
                                   rng=DeterministicRandom("acct"))
    key = client.outsource(1, [b"x"] * 8)
    client.delete(1, key, client.item_ids_of(8)[0])
    return client.metrics.for_op("delete")[0]


def test_byte_accounting_matches_loopback_for_tagged_frames():
    """With tracing on, every request frame carries a trace trailer;
    protocol byte counts still match loopback and the framing stays a
    4-byte length word each way, tracked separately."""
    untraced = _loopback_delete_record()
    obs.enable()
    try:
        server = CloudServer()
        with TcpServerHost(server) as host:
            with TcpChannel(host.address, server.ctx) as channel:
                client = AssuredDeletionClient(
                    channel, rng=DeterministicRandom("acct"))
                key = client.outsource(1, [b"x"] * 8)
                client.delete(1, key, client.item_ids_of(8)[0])
                record = client.metrics.for_op("delete")[0]
                assert channel.frame_bytes == 8 * channel.counters.round_trips
        loop_record = _loopback_delete_record()
    finally:
        obs.disable()
    assert record.bytes_sent == loop_record.bytes_sent
    assert record.bytes_received == loop_record.bytes_received
    # The trailers are in the count: one per request frame.
    assert record.bytes_sent == untraced.bytes_sent + \
        msg.TRACE_TRAILER_LEN * record.round_trips
