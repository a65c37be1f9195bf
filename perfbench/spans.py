"""In-memory span recording around the program's public layer calls.

A :class:`Recorder` patches the functions named by :func:`client_targets`
and :func:`server_targets` with wrappers that record one span per call:
``(name, start_ns, end_ns, span_id, parent_id, op_id, tag)``.  Starts and
ends are ``CLOCK_MONOTONIC`` nanoseconds, which every process on the host
shares, so client and server spans line up.  The parent is the innermost
span open on the same thread; the op id is the load generator's id for
the operation the thread is running (0 on the server, which cannot see
it).  Spans stay in memory until :meth:`Recorder.dump` writes them out.

Nothing under ``src/`` is modified: the wrappers replace attributes on
the program's classes and modules at run time and
:meth:`Recorder.uninstall` puts the originals back.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import resource
import threading
import time
from contextlib import contextmanager

#: Index of each field in a span tuple.
NAME, START, END, SID, PARENT, OP, TAG = range(7)


def client_targets():
    """(owner, attribute, span name) for the client-side layers."""
    from repro.client.client import AssuredDeletionClient
    from repro.core import ops
    from repro.core.ciphertext import ItemCodec
    from repro.core.meta import MetaKeyManager
    from repro.core.modulated_chain import ChainEngine
    from repro.protocol import channel
    targets = [(MetaKeyManager, "replace_master_key", "fs.meta"),
               (channel.Channel, "request", "rpc"),
               (channel, "encode_message", "wire.client"),
               (channel, "decode_message", "wire.client"),
               (ChainEngine, "evaluate", "chain"),
               (ItemCodec, "encrypt", "aes.scalar"),
               (ItemCodec, "decrypt", "aes.scalar"),
               (ItemCodec, "encrypt_many", "aes.bulk"),
               (ItemCodec, "decrypt_many", "aes.bulk")]
    for method in ("outsource", "access", "modify", "insert", "delete",
                   "delete_many", "fetch_file", "delete_file_state"):
        targets.append((AssuredDeletionClient, method, "client"))
    for function in ("chain_output_for_path", "compute_deltas",
                     "compute_balance_values", "chain_values_for_view",
                     "batch_chain_outputs", "compute_batch_moves",
                     "compute_insertion", "derive_all_keys"):
        targets.append((ops, function, "chain"))
    return targets


def server_targets():
    """(owner, attribute, span name) for the server-side layers."""
    from repro.obs.audit import AuditLog
    from repro.protocol import messages
    from repro.server.engine import TreeStore
    from repro.server.locks import RWLock
    from repro.server.server import CloudServer
    from repro.server.wal import CommitLog
    targets = [(CloudServer, "handle_bytes", "server.handle_bytes"),
               (CloudServer, "handle", "server.handle"),
               (CloudServer, "compact_storage", "engine.flush"),
               (messages, "encode_message", "wire.server"),
               (messages, "decode_message", "wire.server"),
               (RWLock, "acquire_shared", "locks.wait"),
               (RWLock, "acquire_exclusive", "locks.wait"),
               (CommitLog, "append", "wal.append"),
               (AuditLog, "append", "audit.append")]
    for store in TreeStore.__subclasses__():
        for method in ("get_meta", "get_node", "get_slot", "get_item",
                       "get_ciphertext"):
            if method in vars(store):
                targets.append((store, method, "engine.read"))
    return targets


def _request_tag(args) -> str:
    """Tag of a ``CloudServer.handle`` span: the request's type name."""
    return type(args[1]).__name__


class Recorder:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``fsync`` calls, node-cache lookups and hits.
        self.counts: collections.Counter = collections.Counter()
        #: Distinct ``(file_id, kind, slot)`` keys looked up in the cache.
        self.nodes_touched: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.cpu_start = 0.0

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, targets) -> None:
        """Wrap every target; record the process CPU time at the start."""
        for owner, attr, name in targets:
            original = (vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            tag = _request_tag if name == "server.handle" else None
            self._patch(owner, attr, self._wrap(original, name, tag))
        self.cpu_start = process_cpu_seconds()

    def install_counters(self) -> None:
        """Count ``os.fsync`` calls and node-cache hits (server process)."""
        from repro.server.paging import NodeCache
        counts, touched = self.counts, self.nodes_touched
        fsync = os.fsync
        cache_get = NodeCache.get

        def counted_fsync(fd):
            counts["fsync"] += 1
            return fsync(fd)

        def counted_get(cache, key):
            value = cache_get(cache, key)
            counts["cache_get"] += 1
            counts["cache_hit"] += value is not None
            touched.add(key)
            return value

        self._patch(os, "fsync", counted_fsync)
        self._patch(NodeCache, "get", counted_get)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, tag_of):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, sid, parent,
                              getattr(local, "op", 0),
                              tag_of(args) if tag_of else None))
        wrapper.__wrapped__ = fn
        return wrapper

    # -- load-generator ops -------------------------------------------------

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one generated operation on the calling thread."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        stack.append(sid)
        local.op = op_id
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            stack.pop()
            local.op = 0
            self.spans.append(("op", start, end, sid, 0, op_id, kind))

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Spans, counters and process usage, JSON-ready."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {"spans": list(self.spans),
                "counts": dict(self.counts),
                "nodes_touched": len(self.nodes_touched),
                "cpu_s": process_cpu_seconds() - self.cpu_start,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` atomically."""
        write_json(path, self.snapshot())


def process_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, record: dict) -> None:
    """Write ``record`` to ``path`` via a rename, so readers never see
    a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp, path)
