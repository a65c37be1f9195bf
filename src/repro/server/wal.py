"""Write-ahead commit log: crash-safe server state.

The paper's assurance argument (Theorem 2) implicitly assumes the server
state the client verified against is the state that survives.  In a real
deployment the server process can die at any instruction -- between
receiving a commit and applying it, between applying it and replying --
so every mutating request is made durable *before* it is applied:

1. the encoded request bytes are appended to the commit log and fsync'd;
2. the request is applied to the in-memory state;
3. the reply is sent.

The log and the SQLite storage engine (:mod:`repro.server.engine`,
``state.db``) are the server's whole durable state.  A checkpoint is
:meth:`~repro.server.server.CloudServer.compact_storage`: dirty state
flushes into the engine, then :meth:`CommitLog.compact` truncates the
log behind a snapshot marker.  Recovery (:func:`recover_server`) opens
the engine and re-executes every logged request through the ordinary
message handlers.  Because mutating requests carry idempotent
``request_id``\\ s, a record that is also reflected in the engine (crash
between the engine flush and the log truncate) is answered from the
persisted replay table instead of being applied twice, and a client
retrying an un-acknowledged commit after the restart converges to
exactly-once application.  Without an engine, recovery replays the
whole log into an empty server.

Log file format (all integers big-endian)::

    header  magic "RWAL" | u16 format version
    record  u32 payload length | u32 CRC-32 of payload | payload bytes

A torn tail record -- the ``kill -9`` landed mid-``write`` -- fails the
length or CRC check; :class:`CommitLog` truncates it away on open, which
is exactly the all-or-nothing outcome the client's retry expects (the
commit was never acknowledged, so re-sending it applies it once).

Two failure modes beyond the torn tail are handled explicitly:

* **Failed append** (disk full, I/O error): the write may have left a
  torn record *mid*-file; if later appends succeeded after it, the
  stop-at-first-bad-record scan would silently discard them on the next
  open.  The log therefore tracks its last durable offset and, on an
  append failure, truncates back to it before accepting anything else;
  if even that repair fails the log **fails closed** (every further
  append raises) rather than acknowledge commits it may lose.
* **Lost directory entry**: file data is fsync'd but a freshly created
  file's *name* lives in the directory, which has its own durability.
  Log creation and compaction fsync the parent directory (POSIX only;
  no-op elsewhere) so a crash cannot forget the log file itself.

Group commit
------------

With ``group_commit=True`` concurrent appenders enqueue their records
and a single committer thread (started lazily on the first grouped
append) coalesces the queue into ONE ``write`` + ONE ``fsync``; every
``append`` still blocks until *its* record is durable.  Batching is
natural: while one fsync is in flight, new appenders pile up in the
queue and the committer takes them all on its next pass.  Appenders
wait only on their own entry's event -- never on the commit lock -- so
a committed append returns immediately even while the next batch's
fsync is in flight (a leader-follower scheme where followers re-take
the lock convoys exactly there).  :data:`GROUP_MAX_BATCH` bounds one
batch; the committer never lingers to fill it.
The observable durability contract is identical to per-append fsync --
``append`` returning means the record survives a crash -- only the
fsyncs-per-record ratio changes.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import log_event, span

_MAGIC = b"RWAL"
_FORMAT_VERSION = 1
_HEADER = _MAGIC + struct.pack(">H", _FORMAT_VERSION)
_RECORD = struct.Struct(">II")

#: Top bit of a record's length field marks a compaction snapshot
#: marker: not a replayable request, just fsync'd evidence of where the
#: truncated history went.  Pre-compaction readers reject such a log
#: loudly (the flagged length fails their bounds check) instead of
#: replaying garbage.
_MARKER_FLAG = 0x80000000

#: Most records one group-commit batch makes durable with one fsync.
GROUP_MAX_BATCH = 128


def fsync_directory(path: str) -> None:
    """Best-effort fsync of ``path``'s parent directory.

    On POSIX a newly created (or truncated-and-recreated) file is only
    crash-durable once the directory holding its name is synced too.
    Elsewhere (or when the directory cannot be opened) this is a no-op:
    the platforms without ``O_DIRECTORY`` semantics do not expose the
    failure mode either.
    """
    if os.name != "posix":
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _GroupEntry:
    """One enqueued record waiting for the committer to make it durable."""

    __slots__ = ("payload", "event", "error")

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.event = threading.Event()
        self.error: Exception | None = None


class CommitLog:
    """Append-only fsync'd log of encoded mutating requests.

    Opening scans the file, validates every record, and truncates a torn
    tail.  ``append`` is durable on return (``flush`` + ``fsync``);
    ``compact`` truncates it once the storage engine holds its effects.

    ``group_commit=True`` coalesces concurrent appends into one
    write+fsync of at most :data:`GROUP_MAX_BATCH` records (see the
    module docstring).
    """

    def __init__(self, path: str, *, group_commit: bool = False) -> None:
        self.path = path
        self.group_commit = group_commit
        #: Compactions performed on this log object (``compact`` calls);
        #: the latest snapshot marker found on disk or written survives
        #: in ``snapshot_marker``.
        self.compactions = 0
        self.snapshot_marker: bytes | None = None
        self._records: list[bytes] = self._scan()
        self._handle = open(path, "ab")
        #: Records appended since the last compaction/open.
        self.appended = 0
        #: Serialises the write+fsync of one record (or one group-commit
        #: batch): appends arriving from different per-file handler
        #: threads land whole, never interleaved mid-record (the bottom
        #: of the lock hierarchy).
        self._lock = threading.Lock()
        #: End of the validated, fsync'd prefix of the file.  A failed
        #: append truncates back to this before the log accepts more.
        self._durable_size = self._handle.tell()
        #: Fail-closed flag: set when the durable prefix could not be
        #: restored after an append failure.
        self._failed = False
        # Group-commit queue (guarded by its own tiny lock so enqueue
        # never waits on an fsync in flight) and the committer thread
        # that drains it, started lazily on the first grouped append.
        self._queue_lock = threading.Lock()
        self._queue: list[_GroupEntry] = []
        self._work = threading.Condition(self._queue_lock)
        self._committer: threading.Thread | None = None
        self._stop_committer = False

    def _scan(self) -> list[bytes]:
        """Validate the on-disk log, truncating a torn tail record."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._write_header()
            fsync_directory(self.path)  # make the new *name* durable too
            return []
        if not data:
            # An empty file can be left by a crash between open and the
            # header write; rewrite the header.
            self._write_header()
            fsync_directory(self.path)
            return []
        if len(data) < len(_HEADER):
            if _HEADER.startswith(data):
                # Torn header: the crash landed during log creation.
                self._write_header()
                fsync_directory(self.path)
                return []
            raise ProtocolError(f"{self.path!r} is not a commit log")
        if data[:4] != _MAGIC:
            raise ProtocolError(f"{self.path!r} is not a commit log")
        version = struct.unpack(">H", data[4:6])[0]
        if version != _FORMAT_VERSION:
            raise ProtocolError(
                f"unsupported commit log version {version!r}")

        records = []
        pos = len(_HEADER)
        good_end = pos
        while pos < len(data):
            if pos + _RECORD.size > len(data):
                break  # torn length/CRC prefix
            length, crc = _RECORD.unpack_from(data, pos)
            marker = bool(length & _MARKER_FLAG)
            length &= ~_MARKER_FLAG
            payload = data[pos + _RECORD.size:pos + _RECORD.size + length]
            if len(payload) < length:
                break  # torn payload
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break  # corrupt (partially overwritten) record
            if marker:
                # Compaction snapshot evidence, not a replayable request.
                self.snapshot_marker = payload
            else:
                records.append(payload)
            pos += _RECORD.size + length
            good_end = pos
        if good_end < len(data):
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.WAL_TRUNCATED.inc()
                log_event("wal.truncated_tail", path=self.path,
                          discarded_bytes=len(data) - good_end)
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return records

    def _write_header(self) -> None:
        with open(self.path, "wb") as handle:
            handle.write(_HEADER)
            handle.flush()
            os.fsync(handle.fileno())

    def _sync(self, fileno: int) -> None:
        """The durability barrier (seam for fault/latency injection)."""
        os.fsync(fileno)

    def records(self) -> list[bytes]:
        """The validated records found on disk when the log was opened."""
        return list(self._records)

    def append(self, payload: bytes) -> None:
        """Durably append one record (fsync'd before returning).

        Thread-safe: concurrent appenders serialise on the log's lock
        (or, under group commit, enqueue for the current leader), so
        each CRC-framed record (and its fsync) lands whole on disk.
        Raises if the log has failed closed after an unrepairable append
        error -- an unacknowledged commit, never a silently lost one.
        """
        if obs.enabled:
            with span("wal.append", record_bytes=len(payload)):
                if self.group_commit:
                    self._append_grouped(payload)
                else:
                    self._write_record(payload)
        elif self.group_commit:
            self._append_grouped(payload)
        else:
            self._write_record(payload)

    def _check_usable(self) -> None:
        if self._failed:
            raise ProtocolError(
                f"commit log {self.path!r} failed closed after an append "
                f"error; refusing to acknowledge commits it may lose")

    def _write_record(self, payload: bytes) -> None:
        frame = _RECORD.pack(len(payload),
                             zlib.crc32(payload) & 0xFFFFFFFF) + payload
        with self._lock:
            self._check_usable()
            start = time.perf_counter()
            try:
                self._handle.write(frame)
                self._handle.flush()
                self._sync(self._handle.fileno())
            except Exception:
                self._restore_durable_prefix()
                raise
            self._durable_size += len(frame)
            self.appended += 1
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)
            ins.WAL_APPENDS.inc()
            ins.WAL_APPEND_BYTES.inc(len(payload))

    # -- group commit ---------------------------------------------------

    def _append_grouped(self, payload: bytes) -> None:
        entry = _GroupEntry(payload)
        with self._work:
            if self._committer is None or not self._committer.is_alive():
                self._stop_committer = False
                self._committer = threading.Thread(
                    target=self._committer_loop,
                    name="repro-wal-committer", daemon=True)
                self._committer.start()
            self._queue.append(entry)
            depth = len(self._queue)
            self._work.notify()
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_GROUP_QUEUE.set(depth)
        # Wait on OUR entry only -- never on the commit lock.  (A
        # leader-follower scheme convoys here: committed appenders must
        # re-take the lock to observe their event, and a fresh appender
        # holding it through an fsync starves them all.)
        entry.event.wait()
        if entry.error is not None:
            raise entry.error

    def _committer_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._stop_committer:
                    self._work.wait()
                if not self._queue:
                    return  # stopping and fully drained
            try:
                with self._lock:
                    self._commit_batch()
            except Exception as exc:  # defensive: never strand waiters
                with self._queue_lock:
                    batch = self._queue
                    self._queue = []
                for e in batch:
                    e.error = exc
                    e.event.set()

    def _commit_batch(self) -> None:
        """Drain one batch and make it durable (commit lock held)."""
        with self._queue_lock:
            batch = self._queue[:GROUP_MAX_BATCH]
            del self._queue[:len(batch)]
            depth = len(self._queue)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_GROUP_QUEUE.set(depth)
        if not batch:
            return

        error: Exception | None = None
        if self._failed:
            error = ProtocolError(
                f"commit log {self.path!r} failed closed after an append "
                f"error; refusing to acknowledge commits it may lose")
        else:
            blob = b"".join(
                _RECORD.pack(len(e.payload),
                             zlib.crc32(e.payload) & 0xFFFFFFFF) + e.payload
                for e in batch)
            start = time.perf_counter()
            try:
                self._handle.write(blob)
                self._handle.flush()
                self._sync(self._handle.fileno())
            except Exception as exc:
                self._restore_durable_prefix()
                error = exc
            else:
                self._durable_size += len(blob)
                self.appended += len(batch)
                if obs.enabled:
                    from repro.obs import instruments as ins
                    ins.WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)
                    ins.WAL_GROUP_COMMIT_BATCH.observe(len(batch))
                    ins.WAL_APPENDS.inc(len(batch))
                    ins.WAL_APPEND_BYTES.inc(
                        sum(len(e.payload) for e in batch))
        for e in batch:
            e.error = error
            e.event.set()

    # -- failure repair -------------------------------------------------

    def _restore_durable_prefix(self) -> None:
        """Truncate back to the last durable offset (commit lock held).

        A failed write/flush/fsync can leave a torn record mid-file; if
        later appends were allowed to land after it, the next open's
        stop-at-first-bad-record scan would silently discard them.  The
        handle is reopened (dropping any half-flushed userspace buffer)
        and the file cut back to the durable prefix.  If the repair
        itself fails the log fails closed.
        """
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._handle = open(self.path, "ab")
            self._handle.truncate(self._durable_size)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except Exception:
            self._failed = True
        if obs.enabled:
            log_event("wal.append_failed", path=self.path,
                      failed_closed=self._failed,
                      durable_bytes=self._durable_size)

    def health(self) -> tuple[bool, str]:
        """Readiness probe for ``/readyz``: can this log still commit?

        Fails when the log has failed closed (an unrepairable append
        error) or when grouped appends are queued but the committer
        thread is dead -- both mean new mutations cannot be made
        durable, so traffic should drain elsewhere.
        """
        if self._failed:
            return False, "failed closed after an append error"
        if self._handle.closed:
            return False, "log handle is closed"
        if self.group_commit:
            with self._queue_lock:
                pending = len(self._queue)
            committer = self._committer
            if pending and (committer is None or not committer.is_alive()):
                return False, (f"{pending} queued appends but the "
                               f"committer thread is dead")
        return True, f"durable through {self._durable_size} bytes"

    def compact(self, marker: bytes = b"") -> None:
        """Truncate replayed history behind an fsync'd snapshot marker.

        Called by ``compact_storage`` after the storage engine has
        durably absorbed every logged record: the replacement log holds
        only the marker (length top-bit flagged, CRC-framed like any
        record, skipped by replay).  The swap is a write-temp +
        ``os.replace`` + directory fsync, so a crash at any instruction
        leaves either the full old log or the compacted one -- never a
        torn in-between.  Callers must guarantee no append is in flight
        (the server holds its registry lock exclusively).
        """
        if len(marker) >= _MARKER_FLAG:
            raise ValueError("snapshot marker too large")
        with self._lock:
            frame = _RECORD.pack(len(marker) | _MARKER_FLAG,
                                 zlib.crc32(marker) & 0xFFFFFFFF) + marker
            tmp = self.path + ".compact.tmp"
            with open(tmp, "wb") as handle:
                handle.write(_HEADER + frame)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            fsync_directory(self.path)
            self._handle = open(self.path, "ab")
            self._records = []
            self.appended = 0
            self._durable_size = self._handle.tell()
            self._failed = False
            self.compactions += 1
            self.snapshot_marker = bytes(marker)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_COMPACTIONS.inc()
            log_event("wal.compacted", path=self.path,
                      marker=marker.decode("utf-8", "replace"))

    def close(self) -> None:
        committer = self._committer
        if committer is not None and committer.is_alive():
            with self._work:
                self._stop_committer = True
                self._work.notify_all()
            committer.join(timeout=10.0)
        try:
            self._handle.close()
        except OSError:
            pass

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def recover_server(wal_path: str, params=None, *, engine=None,
                   group_commit: bool = False, cache_nodes: int = 65536,
                   audit=None):
    """Rebuild a server from its storage engine plus commit log.

    With ``engine`` given, the server pages its files from the storage
    engine on demand -- recovery cost is O(records since the last
    compaction), not O(total state).  With ``engine=None`` recovery
    starts from an empty server and the WAL must hold the full history.
    Every validated WAL record is re-executed through the normal
    handlers *before* the log is attached for new appends, so replay
    never re-logs.  ``group_commit`` selects the coalescing append path
    for the re-attached log.

    ``audit`` (an :class:`~repro.obs.audit.AuditLog`) is attached for
    good afterwards, and during replay it records every WAL record the
    chain does not already hold: a commit that was logged but crashed
    before its audit append (``after-apply``) or before it applied at
    all (``before-apply``) is applied by replay, so it must reach the
    evidence trail too.  See :func:`_unaudited`.

    The recovery breakdown (state load vs WAL replay) lands in the
    ``repro_server_cold_start_seconds`` /
    ``repro_recovery_*_seconds`` gauges and a ``server.recovered``
    event, so the compaction win shows up in ``/statusz``.
    """
    from repro.server.server import CloudServer

    with span("server.recover", wal=wal_path):
        start = time.perf_counter()
        server = CloudServer(params)
        if engine is not None:
            server.attach_engine(engine, cache_nodes=cache_nodes)
        load_seconds = time.perf_counter() - start
        log = CommitLog(wal_path, group_commit=group_commit)
        records = log.records()
        unaudited = (_unaudited(server.ctx, records, audit)
                     if audit is not None else ())
        replay_start = time.perf_counter()
        with span("server.recover.replay"):
            for index, record in enumerate(records):
                server.audit = audit if index in unaudited else None
                server.handle_bytes(record)
        replay_seconds = time.perf_counter() - replay_start
        replayed = len(records)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_REPLAYED.inc(replayed)
            ins.RECOVERIES.inc()
            ins.COLD_START_SECONDS.set(time.perf_counter() - start)
            ins.RECOVERY_CHECKPOINT_SECONDS.set(load_seconds)
            ins.RECOVERY_REPLAY_SECONDS.set(replay_seconds)
            log_event("server.recovered", replayed_records=replayed,
                      audited_records=len(unaudited),
                      load_seconds=round(load_seconds, 6),
                      replay_seconds=round(replay_seconds, 6),
                      engine=engine is not None)
        server.last_recovery = {
            "replayed_records": replayed,
            "audited_records": len(unaudited),
            "load_seconds": load_seconds,
            "replay_seconds": replay_seconds,
            "engine": engine is not None,
        }
        server.attach_audit(audit)
        server.attach_wal(log)
    return server


def _unaudited(ctx, records: list[bytes], audit) -> set[int]:
    """Indices of the WAL ``records`` the audit chain does not hold.

    The WAL holds the commits since the last compaction; the chain holds
    every audited commit ever.  So a record is already on the chain iff
    its ``request_id`` is among the chain's last ``len(records)``
    entries.  Comparing against that tail, not just the chain's last
    record, keeps commits on different files whose WAL and audit
    appends interleaved in opposite orders from being recorded twice.
    A WAL with no record on the chain is recorded whole.
    """
    from collections import deque

    from repro.obs.audit import iter_records
    from repro.protocol import messages as msg
    if not records:
        return set()
    on_chain = {entry.get("request_id") for entry in
                deque(iter_records(audit.path), maxlen=len(records))}
    return {index for index, record in enumerate(records)
            if getattr(msg.decode_message(ctx, record), "request_id", 0)
            not in on_chain}
