"""Turn a workload's outcome into end-to-end and per-layer metrics.

End-to-end metrics come from the untraced loop; per-layer metrics from
the spans of the traced half of a traced run.  Every metric is returned
as ``name -> (value, unit)``.
"""

from __future__ import annotations

import statistics

from spans import END, NAME, OP, PARENT, SID, START, TAG
from workloads import BULK_KINDS, DELETE_KINDS, POINT_KINDS, Outcome

#: Per-layer metrics also reported per op kind as ``<metric>.<kind>``.
PER_KIND = ("client.self_ms_per_op", "client.chain_ms_per_op",
            "client.aes_scalar_ms_per_op", "client.aes_bulk_ms_per_op",
            "client.hash_calls_per_op", "transport.round_trips_per_op",
            "trace.coverage")
KINDS = POINT_KINDS + BULK_KINDS

#: Tail percentiles need this many samples beyond them.
TAIL_SAMPLES = 10


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile_ms(seconds: list[float], q: float):
    """The ``q`` quantile in ms, or ``None`` with too few samples beyond."""
    if len(seconds) * (1 - q) < TAIL_SAMPLES:
        return None
    ordered = sorted(seconds)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

def _rate_mb(stages, scaled: bool) -> float:
    """Median plaintext MB/s of ``(bytes, seconds, factor)`` stages."""
    return _median([b / (t * f if scaled else t) / 1e6
                    for b, t, f in stages])


def end_to_end(outcome: Outcome, count_prefix: int):
    """Gated metrics as ``name -> (scaled, raw, unit)``, and printed-only
    ones as ``name -> (value, unit, samples)``."""
    factors = outcome.slice_factors
    results = [r for c in outcome.callers for r in c.results]
    deletes = [r for r in results if r.kind in DELETE_KINDS]
    prefix = [r for c in outcome.callers
              for r in [r for r in c.results
                        if r.kind in DELETE_KINDS][:count_prefix]]
    ops = sum(p.ops for p in outcome.phases)

    def delete_seconds(scaled: bool) -> list[float]:
        return [r.seconds * factors[r.slice] if scaled else r.seconds
                for r in deletes]

    def both(fn, unit: str):
        return (fn(True), fn(False), unit)

    gated = {
        "setup_s": both(lambda scaled: _median(
            [t * f if scaled else t for t, f in outcome.setups]), "s"),
        "ops_per_s": both(lambda scaled: ops / sum(
            p.scaled_seconds if scaled else p.seconds
            for p in outcome.phases), "op/s"),
        "delete_p50_ms": both(lambda scaled: _median(
            delete_seconds(scaled)) * 1e3, "ms"),
        "sweep_records_per_s": both(lambda scaled: sum(
            r.records for r in deletes) / sum(delete_seconds(scaled)),
            "rec/s"),
        "fetch_mb_per_s": both(lambda scaled: _rate_mb(
            outcome.fetched, scaled), "MB/s"),
        "outsource_mb_per_s": both(lambda scaled: _rate_mb(
            outcome.outsourced, scaled), "MB/s"),
    }
    wire = _median([r.wire_bytes for r in prefix])
    hashes = _median([r.hash_calls for r in prefix])
    gated["delete_wire_bytes"] = (wire, wire, "B")
    gated["delete_hash_calls"] = (hashes, hashes, "count")
    gated["peak_rss_mb"] = (outcome.peak_rss_mb, outcome.peak_rss_mb, "MB")

    failed = sum(c.failed for c in outcome.callers)
    printed = {"failed_op_share": (failed / (len(results) + failed),
                                   "ratio", len(results) + failed)}
    tail = percentile_ms(delete_seconds(True), 0.95)
    if tail is not None:
        printed["delete_p95_ms"] = (tail, "ms", len(deletes))
    for kind in ("read", "write", "append"):
        times = [r.seconds * factors[r.slice] for r in results
                 if r.kind == kind]
        if times:
            printed[f"{kind}_p50_ms"] = (_median(times) * 1e3, "ms",
                                         len(times))
    for name in ("recovery_s", "disk_bytes_per_user_byte"):
        if name in outcome.extra:
            unit = "s" if name == "recovery_s" else "ratio"
            printed[name] = (outcome.extra[name], unit, 1)
    samples = {"delete_p50_ms": len(deletes), "setup_s": len(outcome.setups),
               "delete_wire_bytes": len(prefix),
               "delete_hash_calls": len(prefix), "ops_per_s": ops}
    return gated, printed, samples


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------

class _Tree:
    """Parent links of one process's spans."""

    def __init__(self, recorded) -> None:
        self.spans = [tuple(s) for s in recorded]
        self.by_sid = {s[SID]: s for s in self.spans}

    def under(self, span, names) -> bool:
        parent = span[PARENT]
        while parent:
            ancestor = self.by_sid.get(parent)
            if ancestor is None:
                return False
            if ancestor[NAME] in names:
                return True
            parent = ancestor[PARENT]
        return False

    def outermost(self, name: str, within=None) -> list:
        """Spans called ``name`` not nested in another one (and, with
        ``within``, nested in a span of that name)."""
        return [s for s in self.spans if s[NAME] == name
                and not self.under(s, (name,))
                and (within is None or self.under(s, (within,)))]


def _ms(span) -> float:
    return (span[END] - span[START]) / 1e6


def layers(outcome: Outcome) -> dict:
    """Per-layer metrics of the traced phase."""
    from repro.server.server import MUTATING_REQUESTS
    tracing = outcome.tracing
    client = _Tree(tracing.recorder.spans)
    remote = tracing.server_record
    server = _Tree(remote["spans"]) if remote else client
    counts = remote["counts"] if remote else dict(tracing.recorder.counts)
    results = [r for c in outcome.callers for r in c.results
               if r.phase == "traced"]
    n_ops = len(results)
    metrics: dict = {}

    # -- client side, per op kind -----------------------------------------
    kind_of = {s[OP]: s[TAG] for s in client.spans if s[NAME] == "op"}
    sums: dict = {}

    def add(kind: str, key: str, value: float) -> None:
        sums[(kind, key)] = sums.get((kind, key), 0.0) + value

    for span in client.spans:
        kind = kind_of.get(span[OP])
        if kind is None:
            continue
        name = span[NAME]
        if name == "op":
            add(kind, "wall", _ms(span))
        if client.under(span, ("rpc",)):
            continue
        if name == "client":
            add(kind, "client", _ms(span))
        elif name == "rpc" and client.under(span, ("client",)):
            add(kind, "client", -_ms(span))
        elif name in ("chain", "aes.scalar", "aes.bulk", "fs.meta") \
                and not client.under(span, (name,)):
            add(kind, name, _ms(span))
    root_of = {s[SID]: s for s in client.spans if s[NAME] == "op"}
    for span in client.spans:
        root = root_of.get(span[PARENT])
        if root is not None:
            add(root[TAG], "covered", _ms(span))

    by_kind: dict = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r)
    per_kind_values = {
        "client.self_ms_per_op": "client",
        "client.chain_ms_per_op": "chain",
        "client.aes_scalar_ms_per_op": "aes.scalar",
        "client.aes_bulk_ms_per_op": "aes.bulk",
    }
    units = {"client.hash_calls_per_op": "count",
             "transport.round_trips_per_op": "count",
             "trace.coverage": "ratio"}

    def kind_metric(metric: str, kinds) -> float:
        ops = [r for k in kinds for r in by_kind.get(k, [])]
        if metric in per_kind_values:
            key = per_kind_values[metric]
            return _ratio(sum(sums.get((k, key), 0.0) for k in kinds),
                          len(ops))
        if metric == "client.hash_calls_per_op":
            return _ratio(sum(r.hash_calls for r in ops), len(ops))
        if metric == "transport.round_trips_per_op":
            return _ratio(sum(r.round_trips for r in ops), len(ops))
        return _ratio(sum(sums.get((k, "covered"), 0.0) for k in kinds),
                      sum(sums.get((k, "wall"), 0.0) for k in kinds))

    for metric in PER_KIND:
        unit = units.get(metric, "ms")
        metrics[metric] = (kind_metric(metric, KINDS), unit)
        for kind in KINDS:
            metrics[f"{metric}.{kind}"] = (kind_metric(metric, (kind,)), unit)

    deletes = [r for r in results if r.kind in DELETE_KINDS]
    metrics["fs.meta_ms_per_delete"] = (_ratio(
        sum(sums.get((k, "fs.meta"), 0.0) for k in DELETE_KINDS),
        len(deletes)), "ms")
    metrics["client.retries_per_op"] = (
        _ratio(sum(r.retries for r in results), n_ops), "count")
    metrics["transport.retransmits_per_op"] = (
        _ratio(sum(r.retransmits for r in results), n_ops), "count")

    # -- wire and transport, per round trip -------------------------------
    rtts = sum(r.round_trips for r in results)
    wire_client = sum(_ms(s) for s in client.spans
                      if s[NAME] == "wire.client")
    rpc = sum(_ms(s) for s in client.outermost("rpc"))
    handle_bytes = [s for s in server.spans
                    if s[NAME] == "server.handle_bytes"]
    handled = sum(_ms(s) for s in handle_bytes)
    wire_server = sum(_ms(s) for s in server.spans if s[NAME] == "wire.server"
                      and server.by_sid.get(s[PARENT], ("",))[NAME]
                      == "server.handle_bytes")
    metrics["wire.client_ms_per_rtt"] = (_ratio(wire_client, rtts), "ms")
    metrics["wire.server_ms_per_rtt"] = (_ratio(wire_server,
                                                len(handle_bytes)), "ms")
    metrics["wire.bytes_per_rtt"] = (
        _ratio(sum(r.wire_bytes for r in results), rtts), "B")
    metrics["transport.ms_per_rtt"] = (
        _ratio(rpc - wire_client - handled, rtts), "ms")

    # -- server, per request ----------------------------------------------
    handles = server.outermost("server.handle")
    reqs = len(handles)
    mutating = {cls.__name__ for cls in MUTATING_REQUESTS}
    mutations = sum(1 for s in handles if s[TAG] in mutating)
    inside = {name: server.outermost(name, within="server.handle")
              for name in ("locks.wait", "wal.append", "audit.append",
                           "engine.read")}
    busy = {name: sum(_ms(s) for s in found)
            for name, found in inside.items()}
    handle_ms = sum(_ms(s) for s in handles)
    metrics["server.handle_ms_per_req"] = (_ratio(handle_ms, reqs), "ms")
    metrics["server.self_ms_per_req"] = (
        _ratio(handle_ms - sum(busy.values()), reqs), "ms")
    metrics["locks.wait_ms_per_req"] = (_ratio(busy["locks.wait"], reqs),
                                        "ms")
    metrics["wal.append_ms_per_mutation"] = (
        _ratio(busy["wal.append"], mutations), "ms")
    metrics["wal.bytes_per_mutation"] = (
        _ratio(tracing.wal_growth, mutations), "B")
    metrics["wal.fsyncs_per_mutation"] = (
        _ratio(counts.get("fsync", 0), mutations), "count")
    metrics["audit.append_ms_per_mutation"] = (
        _ratio(busy["audit.append"], mutations), "ms")
    metrics["engine.reads_per_req"] = (
        _ratio(len(inside["engine.read"]), reqs), "count")
    metrics["engine.read_ms_per_req"] = (_ratio(busy["engine.read"], reqs),
                                         "ms")
    metrics["engine.node_cache_hit_ratio"] = (
        _ratio(counts.get("cache_hit", 0), counts.get("cache_get", 0)),
        "ratio")
    metrics["engine.nodes_touched"] = (
        remote["nodes_touched"] if remote
        else len(tracing.recorder.nodes_touched), "count")
    flushes = (outcome.flush_record or {}).get("spans", [])
    metrics["engine.flush_s"] = (
        sum(_ms(s) for s in flushes if s[NAME] == "engine.flush") / 1e3, "s")

    # -- processes and the trace itself ------------------------------------
    metrics["proc.client_cpu_ms_per_op"] = (
        _ratio(tracing.client_cpu_s * 1e3, n_ops), "ms")
    metrics["proc.server_cpu_ms_per_op"] = (
        _ratio(remote["cpu_s"] * 1e3, n_ops) if remote else 0.0, "ms")
    rate = {p.name: p.ops / p.scaled_seconds for p in outcome.phases}
    metrics["trace.slowdown"] = (_ratio(rate["untraced"], rate["traced"]),
                                 "ratio")
    return metrics
