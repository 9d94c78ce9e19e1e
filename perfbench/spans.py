"""Timing spans recorded from outside the program, by wrapping the public
functions each layer calls into the next.

Every patch replaces a name *where its caller looks it up* (for example
``repro.whynot.explain.trace``, the global the Algorithm-1 function calls, not
``repro.whynot.tracing.trace``) and :meth:`Recorder.uninstall` puts the
original object back.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, request, counters]``: ``parent`` is
the index of the enclosing span on the same thread (``-1`` for a root),
``request`` the index of that thread's root span, and ``counters`` a small
dict filled by per-patch hooks (rows traced, SAs, cache hits, ...).  Spans
stay in memory; :meth:`Recorder.dump` writes them out as JSON at the end.
"""

from __future__ import annotations

import importlib
import json
import threading
import time


def _hook_cache(args, kwargs, result, counters):
    use_cache = kwargs.get("use_cache", args[2] if len(args) > 2 else True)
    if getattr(result, "cached", False):
        counters["cache_hit"] = 1
    elif use_cache:
        counters["cache_miss"] = 1


def _hook_trace(args, kwargs, result, counters):
    counters["rows_traced"] = result.total_rows()


def _hook_sas(args, kwargs, result, counters):
    counters["sas"] = len(result)


def _hook_execute(args, kwargs, result, counters):
    metrics = args[0].last_metrics
    counters["rows_processed"] = metrics.total_rows_processed()
    if metrics.kernels:
        counters["kernel_hits"] = metrics.kernels.get("hits", 0)
        counters["kernel_fallbacks"] = metrics.kernels.get("fallbacks", 0)


def _hook_version(args, kwargs, result, counters):
    counters["db_version"] = result.version_id


def _hook_job(args, kwargs, result, counters):
    counters["kind"] = args[1]


#: (span name, module, attribute path inside the module, result hook).
#: Each row is one call site's lookup: the span covers every call made
#: through that name.
PATCHES = [
    # repro.api: the service entry points the front ends call.
    ("api.explain", "repro.api.service", "ExplanationService.explain", _hook_cache),
    ("api.mutate", "repro.api.service", "ExplanationService.mutate_database", None),
    ("api.query", "repro.api.service", "ExplanationService.query", None),
    # repro.whynot: the service calls ``explain``/``attach_summaries`` through
    # its own module globals and ``question.validate()`` on the instance; the
    # Algorithm-1 function calls its four phases through repro.whynot.explain.
    ("whynot.explain", "repro.api.service", "explain", None),
    ("whynot.validate", "repro.whynot.question", "WhyNotQuestion.validate", None),
    ("whynot.summarize", "repro.api.service", "attach_summaries", None),
    ("whynot.backtrace", "repro.whynot.explain", "backtrace", None),
    ("whynot.alternatives", "repro.whynot.explain", "enumerate_schema_alternatives", _hook_sas),
    ("whynot.tracing", "repro.whynot.explain", "trace", _hook_trace),
    ("whynot.approximate", "repro.whynot.explain", "approximate_msrs", None),
    # repro.lang: text requests import compile_program from the package at
    # call time.
    ("lang.compile", "repro.lang", "compile_program", None),
    # repro.engine: the executor behind ExplanationService.query and the
    # version chain behind mutate_database.
    ("engine.execute", "repro.engine.executor", "Executor.execute", _hook_execute),
    ("engine.apply_mutations", "repro.engine.database", "Database.apply_mutations", _hook_version),
    # repro.wire: request decoding in both front ends, response encoding.
    ("wire.request_decode", "repro.api.service", "ExplainRequest.from_json", None),
    ("wire.request_decode", "repro.api.http", "mutation_from_json", None),
    ("wire.request_decode", "repro.api.sharded", "mutation_from_json", None),
    ("wire.response_encode", "repro.api.service", "ExplainResponse.to_json", None),
    # HTTP front ends: one root span per POST.
    ("http.handler", "repro.api.http", "_Handler.do_POST", None),
    ("http.handler", "repro.api.sharded", "_ShardedHandler.do_POST", None),
    # Sharded relay and its workers.
    ("sharded.routing_key", "repro.api.sharded", "routing_key", None),
    ("sharded.dispatch", "repro.api.sharded", "ShardDispatcher.dispatch", None),
    ("sharded.broadcast", "repro.api.sharded", "ShardDispatcher.mutate_database_doc", None),
    ("sharded.job", "repro.api.sharded", "_handle_job", _hook_job),
]


class Recorder:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def reset(self) -> None:
        """Forget every span (a forked worker starts from an empty store)."""
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, func, hook=None):
        """``func`` wrapped in a span named *name*."""
        recorder = self

        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else -1
            with recorder._lock:
                index = len(recorder.spans)
                request = recorder.spans[parent][4] if stack else index
                span = [name, time.perf_counter(), 0.0, parent, request, {}]
                recorder.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result, span[5])
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Apply every patch in :data:`PATCHES`."""
        for name, module_name, path, hook in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, hook))
            else:
                wrapped = self.wrap(name, original, hook)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans out as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load(path: str) -> list:
    """Spans written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans: list, since: float = 0.0) -> "dict[str, dict]":
    """Per span name: calls, summed wall time, summed self time, counters,
    over the spans that started at or after *since*.

    Self time is a span's duration minus the part its direct children cover
    (children run on the parent's thread, so they nest inside it).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, request, counters in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: "dict[str, dict]" = {}
    for i, (name, start, end, parent, request, counters) in enumerate(spans):
        if end <= 0.0 or start < since:
            continue  # outside the phase, or still open when dumped
        entry = out.setdefault(name, {"calls": 0, "wall": 0.0, "self": 0.0, "counters": {}})
        entry["calls"] += 1
        entry["wall"] += end - start
        entry["self"] += end - start - child_time[i]
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                entry["counters"][key] = entry["counters"].get(key, 0) + value
    return out
