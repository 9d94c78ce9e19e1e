"""Metrics from one run: end-to-end figures from the client's samples,
per-layer figures from the spans of the traced phase.

Timings are reported in full precision.  A failed operation counts as
missing every latency limit: it sorts above every successful sample.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from spans import self_times


@dataclass
class Sample:
    kind: str
    key: str
    start: float
    seconds: float  # wall time
    cpu: float  # CPU time of the benchmark and server processes
    loop: float  # CPU time of the reference loop run just before
    ok: bool
    request_bytes: int
    end_of_round: bool


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated quantile of *values* (``inf`` marks failures)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latencies_ms(samples, kind: str, field: str = "seconds") -> "list[float]":
    return [getattr(s, field) * 1000.0 if s.ok else math.inf
            for s in samples if s.kind == kind]


def round_cpu_ms_per_op(samples) -> "list[float]":
    """CPU time per operation of each round (``inf`` if one of its
    operations failed).  Rounds have a fixed composition, so these are
    comparable with each other and from run to run."""
    out, cpu, n, ok = [], 0.0, 0, True
    for s in samples:
        cpu, n, ok = cpu + s.cpu, n + 1, ok and s.ok
        if s.end_of_round:
            out.append(cpu * 1000.0 / n if ok else math.inf)
            cpu, n, ok = 0.0, 0, True
    return out


def has_p90(n: int) -> bool:
    """A p90 needs at least ten samples beyond it."""
    return n * 0.1 >= 10


#: CPU time of ``run.reference_loop`` at the reference speed, close to its
#: median on a 2-vCPU Xeon virtual machine at 2.1 GHz.  Scaled figures read
#: as CPU time on a host running Python at that speed.
REFERENCE_LOOP_MS = 1.0


def end_to_end(samples, wall_s, headline, setup_cpu_s, setup_wall_s,
               peak_rss_mb) -> "tuple[dict, dict]":
    """``(metrics for the result line, every named metric with its count)``.

    The result line carries CPU-time figures scaled to the reference speed:
    each is multiplied by :data:`REFERENCE_LOOP_MS` over the run's median
    reference-loop time, so that how fast the host ran Python during the run
    cancels out.  They are the headline operation's ``ref_p50_ms`` and
    ``ref_p90_ms``, ``ref_ms_per_op`` (the median over rounds of a round's
    CPU time per operation) and ``setup_s`` (the median set-up's CPU time).
    The named view adds the unscaled CPU times and the wall-clock times a
    client sees, split by kind (``explain_cpu_p50_ms``, ``query_p90_ms``,
    ``mutate_p50_ms``, ...).
    """
    named: dict = {}
    lat = latencies_ms(samples, headline, "cpu")
    per_round = round_cpu_ms_per_op(samples)
    loop_ms = statistics.median(s.loop for s in samples) * 1000.0
    scale = REFERENCE_LOOP_MS / loop_ms
    named["ref_p50_ms"] = (percentile(lat, 0.5) * scale, "ms", len(lat))
    named["ref_p90_ms"] = (percentile(lat, 0.9) * scale, "ms", len(lat))
    named["ref_ms_per_op"] = (
        statistics.median(per_round) * scale if per_round else math.inf, "ms", len(per_round)
    )
    named["setup_s"] = (statistics.median(setup_cpu_s) * scale, "s", len(setup_cpu_s))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    metrics = {name: value[:2] for name, value in named.items()}
    named["reference_loop_ms"] = (loop_ms, "ms", len(samples))
    for kind in ("explain", "query", "mutate"):
        for prefix, field in (("", "seconds"), ("cpu_", "cpu")):
            lat = latencies_ms(samples, kind, field)
            if not lat:
                continue
            named[f"{kind}_{prefix}p50_ms"] = (percentile(lat, 0.5), "ms", len(lat))
            if has_p90(len(lat)):
                named[f"{kind}_{prefix}p90_ms"] = (percentile(lat, 0.9), "ms", len(lat))
    ok = sum(1 for s in samples if s.ok)
    named["ops_per_s"] = (ok / wall_s, "1/s", len(samples))
    named["setup_cpu_s"] = (statistics.median(setup_cpu_s), "s", len(setup_cpu_s))
    named["setup_wall_s"] = (statistics.median(setup_wall_s), "s", len(setup_wall_s))
    named["failed_frac"] = ((len(samples) - ok) / max(1, len(samples)), "ratio", len(samples))
    return metrics, named


#: Per-layer metric name -> unit, in the order they are printed.
LAYER_UNITS = {
    "whynot.validate_ms": "ms",
    "whynot.backtrace_ms": "ms",
    "whynot.alternatives_ms": "ms",
    "whynot.tracing_ms": "ms",
    "whynot.approximate_ms": "ms",
    "whynot.summarize_ms": "ms",
    "whynot.rows_traced": "count",
    "whynot.sas": "count",
    "whynot.tracing_us_per_row": "us",
    "wire.request_bytes": "B",
    "wire.request_decode_ms": "ms",
    "wire.response_encode_ms": "ms",
    "lang.compile_ms": "ms",
    "api.explain_self_ms": "ms",
    "api.cache_hits": "count",
    "api.cache_misses": "count",
    "api.cache_hit_ratio": "ratio",
    "api.mutate_self_ms": "ms",
    "http.handler_self_ms": "ms",
    "http.client_gap_ms": "ms",
    "sharded.routing_key_ms": "ms",
    "sharded.dispatch_ms": "ms",
    "engine.execute_ms": "ms",
    "engine.rows_processed": "count",
    "engine.kernel_hits": "count",
    "engine.kernel_fallbacks": "count",
    "engine.apply_mutations_ms": "ms",
    "engine.db_version": "count",
    "setup.build_db_s": "s",
    "setup.register_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _merge(per_file: "list[dict]") -> dict:
    total: dict = {}
    for stats in per_file:
        for name, entry in stats.items():
            into = total.setdefault(name, {"calls": 0, "wall": 0.0, "self": 0.0, "counters": {}})
            into["calls"] += entry["calls"]
            into["wall"] += entry["wall"]
            into["self"] += entry["self"]
            for key, value in entry["counters"].items():
                into["counters"][key] = into["counters"].get(key, 0) + value
    return total


def _overhead(untraced, traced) -> float:
    """How much more scaled CPU time traced operations took than the same
    operations untraced: per operation type, weighted by the traced counts.
    Each half is scaled by its own median reference-loop time."""
    def means(samples):
        loop = statistics.median(s.loop for s in samples)
        by_key: dict = {}
        for s in samples:
            if s.ok:
                by_key.setdefault(s.key, []).append(s.cpu / loop)
        return {k: statistics.fmean(v) for k, v in by_key.items()}

    before, after = means(untraced), means(traced)
    counts: dict = {}
    for s in traced:
        counts[s.key] = counts.get(s.key, 0) + 1
    extra = base = 0.0
    for key, mean in after.items():
        if key in before:
            extra += counts[key] * (mean - before[key])
            base += counts[key] * before[key]
    return extra / base if base else 0.0


def per_layer(span_files, phase_start, untraced, traced, setups, headline) -> dict:
    """Every metric of :data:`LAYER_UNITS` from the traced phase's spans.

    Times are means per call of the layer's span (``_self_ms``: self time);
    counts are means per call, except cache hits/misses and the database
    version, which are totals.  A layer the workload never reaches reads 0.
    """
    stats = _merge([self_times(spans, phase_start) for spans in span_files])
    in_phase = [[s for s in spans if s[1] >= phase_start] for spans in span_files]

    def entry(name):
        return stats.get(name, {"calls": 0, "wall": 0.0, "self": 0.0, "counters": {}})

    def per_call_ms(name, field="wall"):
        e = entry(name)
        return e[field] * 1000.0 / e["calls"] if e["calls"] else 0.0

    def counter(name, key):
        return entry(name)["counters"].get(key, 0)

    def per_call(name, key):
        calls = entry(name)["calls"]
        return counter(name, key) / calls if calls else 0.0

    jobs_s = sum(
        s[2] - s[1] for spans in in_phase for s in spans
        if s[0] == "sharded.job" and s[5].get("kind") in ("explain", "query")
    )
    dispatch = entry("sharded.dispatch")
    rows = counter("whynot.tracing", "rows_traced")
    hits, misses = counter("api.explain", "cache_hit"), counter("api.explain", "cache_miss")
    http_posts = [s for s in traced if s.request_bytes]
    root = "api.explain" if headline == "explain" else "api.query"
    core = "whynot.explain" if headline == "explain" else "api.query"
    root_wall = entry(root)["wall"]
    out = {
        "whynot.validate_ms": per_call_ms("whynot.validate"),
        "whynot.backtrace_ms": per_call_ms("whynot.backtrace"),
        "whynot.alternatives_ms": per_call_ms("whynot.alternatives"),
        "whynot.tracing_ms": per_call_ms("whynot.tracing"),
        "whynot.approximate_ms": per_call_ms("whynot.approximate"),
        "whynot.summarize_ms": per_call_ms("whynot.summarize"),
        "whynot.rows_traced": per_call("whynot.tracing", "rows_traced"),
        "whynot.sas": per_call("whynot.alternatives", "sas"),
        "whynot.tracing_us_per_row": (
            entry("whynot.tracing")["wall"] * 1e6 / rows if rows else 0.0
        ),
        "wire.request_bytes": (
            statistics.fmean(s.request_bytes for s in http_posts) if http_posts else 0
        ),
        "wire.request_decode_ms": per_call_ms("wire.request_decode"),
        "wire.response_encode_ms": per_call_ms("wire.response_encode"),
        "lang.compile_ms": per_call_ms("lang.compile"),
        "api.explain_self_ms": per_call_ms("api.explain", "self"),
        "api.cache_hits": hits,
        "api.cache_misses": misses,
        "api.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.mutate_self_ms": per_call_ms("api.mutate", "self"),
        "http.handler_self_ms": per_call_ms("http.handler", "self"),
        "http.client_gap_ms": (
            (sum(s.seconds for s in http_posts) - entry("http.handler")["wall"])
            * 1000.0 / len(http_posts) if http_posts and entry("http.handler")["calls"] else 0.0
        ),
        "sharded.routing_key_ms": per_call_ms("sharded.routing_key"),
        "sharded.dispatch_ms": (
            (dispatch["wall"] - entry("sharded.routing_key")["wall"] - jobs_s)
            * 1000.0 / dispatch["calls"] if dispatch["calls"] else 0.0
        ),
        "engine.execute_ms": per_call_ms("engine.execute"),
        "engine.rows_processed": per_call("engine.execute", "rows_processed"),
        "engine.kernel_hits": counter("engine.execute", "kernel_hits"),
        "engine.kernel_fallbacks": counter("engine.execute", "kernel_fallbacks"),
        "engine.apply_mutations_ms": per_call_ms("engine.apply_mutations"),
        "engine.db_version": max(
            (s[5].get("db_version", 0) for spans in in_phase for s in spans), default=0
        ),
        "setup.build_db_s": statistics.median(s["build_db_s"] for s in setups),
        "setup.register_s": statistics.median(s["register_s"] for s in setups),
        "trace.overhead_frac": _overhead(untraced, traced),
        "trace.unattributed_frac": entry(core)["self"] / root_wall if root_wall else 0.0,
    }
    return out
