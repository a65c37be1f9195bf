"""TCP transport: run the cloud server as a real network service.

The loopback channel is exact for measurement, but a reproduction of a
*distributed* system should also actually cross a socket.  This module
frames the existing binary messages over TCP (4-byte big-endian length
prefix) and provides the one server host and its client channel:

* :class:`TcpServerHost` -- a thread-per-connection TCP host wrapping
  any object with ``handle_bytes`` (the honest
  :class:`~repro.server.server.CloudServer`, a malicious variant, or a
  :class:`~repro.baselines.base.BlobStoreServer`);
* :class:`TcpChannel` -- a :class:`~repro.protocol.channel.Channel` that
  speaks the framing over a persistent connection, with the same byte
  accounting as the loopback channel;
* :class:`RetryPolicy` -- per-request timeout and exponential-backoff
  retry knobs for the channel.

One request is in flight per connection: the paper's deletion is two
dependent round trips (the ``MT(k)`` challenge, then the delta commit),
so pipelining could not shorten it, and a thread per connection lets
concurrent WAL appends pile up into one group-commit fsync.  A length
word above :data:`MAX_FRAME` (which includes any word with its top bit
set) is a framing violation: the host logs one warning and closes that
connection.

A request that fails mid-round-trip (timeout, reset, EINTR) *invalidates
the connection*: a late reply to request N must never be consumed as the
reply to request N+1, so the socket is torn down and re-dialled before
the retransmit.  Retransmits are safe because every mutating message
carries an idempotent ``request_id`` the server dedupes on.

The framing adds 4 bytes per message; the accounting counts message bytes
only (as the paper excludes transport framing), with the frame overhead
available separately.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import log_event
from repro.protocol.channel import Channel
from repro.protocol.faults import ChannelError
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel

_LENGTH = struct.Struct(">I")
#: Upper bound on one message frame (a whole-file reply can be large).
MAX_FRAME = 1 << 30

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for :class:`TcpChannel`.

    ``attempts`` bounds total tries (1 = no retry).  Attempt ``i`` waits
    ``min(max_delay, base_delay * multiplier ** (i-1))`` before its
    retransmit; delays are deterministic (no jitter) so tests and
    measurements are reproducible.
    """

    attempts: int = 4
    timeout: float = 30.0
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay_before(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (the first retry is 1)."""
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** (attempt - 1))


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError("frame too large")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame."""
    (length,) = _LENGTH.unpack(recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ProtocolError("peer announced an oversized frame")
    return recv_exact(sock, length)


def error_reply_bytes(backend, request_bytes: bytes,
                      exc: Exception) -> bytes | None:
    """Encode an ErrorReply for a request the backend failed on.

    The failing request is re-decoded (best effort) so the reply echoes
    its ``request_id`` and trace trailer -- the client, and the obs
    layer, can then correlate the failure with the request that caused
    it.  Returns ``None`` when the backend has no wire context
    (a baseline backend cannot produce protocol messages at all).
    """
    ctx = getattr(backend, "ctx", None)
    if ctx is None:
        return None
    from repro.protocol import messages as msg
    request_id = 0
    trace = None
    try:
        request = msg.decode_message(ctx, request_bytes)
        request_id = getattr(request, "request_id", 0) or 0
        trace = msg.get_trace(request)
    except Exception:
        pass  # undecodable request: nothing to echo
    reply = msg.ErrorReply(code=msg.E_BAD_REQUEST, detail=str(exc),
                           request_id=request_id)
    return msg.encode_message(ctx, reply, trace=trace)


class _Handler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        super().setup()
        self.server.track_handler(self.request)  # type: ignore[attr-defined]
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.TCP_CONNECTIONS.inc()
            ins.TCP_INFLIGHT.inc()

    def finish(self) -> None:
        self.server.untrack_handler(self.request)  # type: ignore[attr-defined]
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.TCP_INFLIGHT.dec()
        super().finish()

    def handle(self) -> None:
        backend = self.server.backend  # type: ignore[attr-defined]
        while True:
            try:
                request = recv_frame(self.request)
            except ProtocolError as exc:
                logger.warning("tcp host: %s from %s; closing connection",
                               exc, self.client_address)
                return
            except (ConnectionError, OSError):
                return
            try:
                response = backend.handle_bytes(request)
            except Exception as exc:  # never kill the connection silently
                response = error_reply_bytes(backend, request, exc)
                if response is None:
                    # A baseline backend without a wire context cannot
                    # produce an ErrorReply; close the connection loudly
                    # instead of dying with an AttributeError.
                    logger.error("backend %r failed without a wire context "
                                 "to report through: %s",
                                 type(backend).__name__, exc)
                    return
            try:
                send_frame(self.request, response)
            except OSError:
                return


class _ThreadedServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    # Handler threads are daemonic so a crashed process still exits, but
    # TcpServerHost.stop() joins them itself (with a deadline) instead of
    # the unbounded join block_on_close would do in server_close().
    daemon_threads = True
    block_on_close = False

    def __init__(self, server_address, handler_class,
                 max_conns: int | None = None) -> None:
        super().__init__(server_address, handler_class)
        #: Bounds concurrently served connections: the accept loop blocks
        #: on a slot before dispatching a handler thread (backpressure --
        #: excess clients queue in the listen backlog).
        self.conn_slots = (threading.BoundedSemaphore(max_conns)
                           if max_conns else None)
        self._handlers_mutex = threading.Lock()
        #: Live handler threads and their client sockets, so shutdown can
        #: join them and unblock the ones parked in recv.
        self._handler_threads: dict[threading.Thread, socket.socket] = {}

    # -- connection bookkeeping (called from _Handler.setup/finish) -----

    def track_handler(self, sock: socket.socket) -> None:
        with self._handlers_mutex:
            self._handler_threads[threading.current_thread()] = sock

    def untrack_handler(self, _sock: socket.socket) -> None:
        with self._handlers_mutex:
            self._handler_threads.pop(threading.current_thread(), None)

    def live_handlers(self) -> list[tuple[threading.Thread, socket.socket]]:
        with self._handlers_mutex:
            return [(t, s) for t, s in self._handler_threads.items()
                    if t.is_alive()]

    # -- concurrency bound ----------------------------------------------

    def process_request(self, request, client_address) -> None:
        if self.conn_slots is not None:
            self.conn_slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            # Dispatch failed before process_request_thread could run
            # (e.g. thread creation hit a resource limit), so the
            # release in its finally block will never happen.  Give the
            # slot back here or the connection budget shrinks forever.
            if self.conn_slots is not None:
                self.conn_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            if self.conn_slots is not None:
                self.conn_slots.release()


class TcpServerHost:
    """Hosts a ``handle_bytes`` backend on a TCP port.

    Usable as a context manager::

        with TcpServerHost(CloudServer()) as host:
            channel = TcpChannel(host.address, server.ctx)

    A stopped host can be started again: ``start`` after ``stop``
    recreates the server socket (rebinding the same address) and a fresh
    acceptor thread.

    ``max_conns`` bounds the number of concurrently served connections;
    further clients wait in the listen backlog until a slot frees up.

    ``stop()`` shuts down in an orderly, bounded way: the accept loop is
    stopped, idle connections are nudged closed (read-half shutdown, so a
    reply in flight still goes out), and outstanding handler threads are
    *joined* up to ``grace`` seconds -- a handler mid-request (e.g. inside
    a WAL fsync) finishes its work instead of being killed mid-write.
    Only handlers still alive after the grace period are abandoned (their
    sockets force-closed) so a wedged backend cannot hang shutdown
    forever.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0,
                 max_conns: int | None = None) -> None:
        if not hasattr(backend, "handle_bytes"):
            raise TypeError("backend must expose handle_bytes")
        if max_conns is not None and max_conns < 1:
            raise ValueError("max_conns must be >= 1")
        self.backend = backend
        self.max_conns = max_conns
        self._bind_address = (host, port)
        self._server: _ThreadedServer | None = self._make_server()
        self._thread: threading.Thread | None = None
        self._started = False

    def _make_server(self) -> _ThreadedServer:
        server = _ThreadedServer(self._bind_address, _Handler,
                                 max_conns=self.max_conns)
        server.backend = self.backend  # type: ignore[attr-defined]
        # Remember the kernel-assigned port so a restart rebinds it.
        self._bind_address = server.server_address
        return server

    @property
    def address(self) -> tuple[str, int]:
        if self._server is not None:
            return self._server.server_address  # type: ignore[return-value]
        return self._bind_address

    def start(self) -> "TcpServerHost":
        if not self._started:
            if self._server is None:
                self._server = self._make_server()
            # threading.Thread objects are single-use: make a new one
            # per start so stop() -> start() works.
            self._thread = threading.Thread(target=self._server.serve_forever,
                                            name="repro-tcp-server",
                                            daemon=True)
            self._thread.start()
            self._started = True
        return self

    def stop(self, grace: float = 5.0) -> None:
        """Stop accepting, drain handlers (bounded by ``grace`` seconds)."""
        if not self._started:
            return
        assert self._server is not None
        server = self._server
        server.shutdown()  # stop the accept loop

        # Nudge every open connection: closing the read half makes a
        # handler parked in recv_frame() return immediately, while a
        # handler mid-request can still send its reply and the backend
        # work it started (WAL append + fsync) completes untouched.
        for _thread, sock in server.live_handlers():
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass

        deadline = time.monotonic() + max(0.0, grace)
        abandoned = 0
        for thread, sock in server.live_handlers():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                # Out of grace: force the socket closed and give the
                # thread one last brief chance before abandoning it
                # (it is daemonic and can no longer reach a live socket).
                abandoned += 1
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                thread.join(timeout=0.1)
        if abandoned:
            logger.warning("tcp host stop: abandoned %d handler thread(s) "
                           "still running after %.1fs grace", abandoned, grace)

        server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._started = False

    def __enter__(self) -> "TcpServerHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class TcpChannel(Channel):
    """Client channel over a persistent TCP connection.

    Round trips run under ``retry``: a timed-out or broken exchange tears
    the socket down (late replies die with it), re-dials, and retransmits
    the same encoded bytes.  Mutating messages carry idempotent request
    ids, so a retransmit the server already applied is answered from its
    replay cache.
    """

    def __init__(self, address: tuple[str, int], ctx: WireContext,
                 network: NetworkModel | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(ctx, network)
        if retry is None:
            retry = RetryPolicy(timeout=timeout if timeout is not None
                                else 30.0)
        elif timeout is not None:
            raise ValueError("pass the timeout inside the RetryPolicy")
        self.retry = retry
        self._address = address
        self._sock: socket.socket | None = None
        #: Transport framing bytes, kept apart from the protocol counters.
        self.frame_bytes = 0
        self._lock = threading.Lock()
        #: Set by close(): wakes a retry parked in its backoff sleep and
        #: stops further attempts from re-dialling.
        self._closing = threading.Event()
        self._connect()  # fail fast if the server is unreachable

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address,
                                        timeout=self.retry.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _invalidate(self) -> None:
        """Drop the connection: its byte stream can hold a stale reply."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _transport(self, request_bytes: bytes) -> bytes:
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            if attempt:
                # Back off OUTSIDE the lock: a concurrent close() (or
                # another caller) must not wait out the whole retry
                # schedule.  The wait doubles as the close interrupt.
                if self._closing.wait(self.retry.delay_before(attempt)):
                    break
                self.counters.retransmits += 1
                if obs.enabled:
                    from repro.obs import instruments as ins
                    ins.RPC_RETRANSMITS.inc()
                    log_event("rpc.retransmit", attempt=attempt,
                              error=repr(last_error))
            with self._lock:
                if self._closing.is_set():
                    break
                try:
                    sock = self._sock if self._sock is not None \
                        else self._connect()
                    send_frame(sock, request_bytes)
                    response = recv_frame(sock)
                except ProtocolError:
                    # Peer framing violation: not transient, do not retry.
                    self._invalidate()
                    raise
                except (OSError, ConnectionError) as exc:
                    # Includes socket.timeout/TimeoutError.  The stream
                    # may still deliver this request's reply later, so
                    # the socket must never be reused.
                    self._invalidate()
                    last_error = exc
                    continue
                self.frame_bytes += 8  # 4-byte length each way
                return response
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        raise ChannelError(
            f"request failed after {self.retry.attempts} attempt(s): "
            f"{last_error!r}")

    def close(self) -> None:
        self._closing.set()  # wakes a retry parked in its backoff sleep
        sock = self._sock
        if sock is not None:
            # Unblock an exchange parked in recv while holding the lock,
            # so close() fails it now instead of after its full timeout.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._lock:
            self._invalidate()

    def __enter__(self) -> "TcpChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
