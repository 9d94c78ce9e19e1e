"""Top-level why-not explanation API (Algorithm 1).

``explain`` runs the four steps of the paper's heuristic algorithm:

1. schema backtracing (:mod:`repro.whynot.backtrace`),
2. schema alternatives (:mod:`repro.whynot.alternatives`),
3. data tracing (:mod:`repro.whynot.tracing`),
4. approximate MSR computation (:mod:`repro.whynot.approximate`),

and returns a :class:`WhyNotResult` with the ranked explanations.

Modes:

* ``explain(q, alternatives=groups)`` — the full algorithm **RP**;
* ``explain(q)`` or ``use_schema_alternatives=False`` — **RPnoSA**
  (only the original schema S1 is traced);
* ``revalidate=False`` — ablation: compatibility is inherited blindly along
  lineage (the behaviour of prior lineage-based approaches, kept for the
  comparison experiments).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.whynot.alternatives import SchemaAlternative, enumerate_schema_alternatives
from repro.whynot.approximate import Explanation, approximate_msrs
from repro.whynot.backtrace import BacktraceResult, backtrace
from repro.whynot.question import WhyNotQuestion
from repro.whynot.tracing import TraceResult, trace


@dataclass
class WhyNotResult:
    """Outcome of the heuristic algorithm for one why-not question."""

    question: WhyNotQuestion
    explanations: list[Explanation]
    sas: list[SchemaAlternative]
    backtrace: BacktraceResult
    trace: Optional[TraceResult] = field(repr=False, default=None)
    timings: dict[str, float] = field(default_factory=dict)
    #: Rule-fire summary of the answer-path optimizer run (None: not used).
    optimizer: Optional[dict] = None
    #: Ontology-aware summary groups (:mod:`repro.whynot.summarize`);
    #: ``None`` until :func:`~repro.whynot.summarize.attach_summaries` runs.
    summaries: Optional[list] = None

    @property
    def n_sas(self) -> int:
        """Number of schema alternatives that were traced."""
        return len(self.sas)

    def explanation_sets(self) -> list[frozenset[int]]:
        """Ranked explanations as operator-id sets."""
        return [e.ops for e in self.explanations]

    def explanation_labels(self) -> list[tuple[str, ...]]:
        """Ranked explanations as operator-label tuples (Table 8 format)."""
        return [e.labels for e in self.explanations]

    def rows_traced(self) -> int:
        """Total number of rows the data-tracing step materialized."""
        return self.trace.total_rows() if self.trace is not None else 0

    def describe(self) -> str:
        """Multi-line human-readable summary of the ranked explanations."""
        lines = [
            f"Why-not question: {self.question.name or '(unnamed)'}",
            f"  missing answer: {self.question.nip!r}",
            f"  schema alternatives: {len(self.sas)}",
            f"  explanations ({len(self.explanations)}):",
        ]
        for e in self.explanations:
            lines.append(
                f"    {e.rank}. {{{', '.join(e.labels)}}}  "
                f"[side effects {e.lb:.0f}..{e.ub:.0f}, via {e.sa_description}]"
            )
        if not self.explanations:
            lines.append("    (none found)")
        if self.summaries is not None:
            lines.append(f"  summaries ({len(self.summaries)}):")
            for s in self.summaries:
                lines.append(f"    {s.describe()}")
        return "\n".join(lines)


def explain(
    question: WhyNotQuestion,
    alternatives: Sequence[Iterable] = (),
    use_schema_alternatives: bool = True,
    revalidate: bool = True,
    max_sas: int = 64,
    validate: bool = True,
    optimize: Optional[bool] = None,
    engine: Optional[str] = None,
) -> WhyNotResult:
    """Compute query-based explanations for *question* (Algorithm 1).

    ``alternatives`` is a sequence of groups of interchangeable source
    attributes, e.g. ``[["person.address2", "person.address1"]]`` — see
    paper §5.2 (attribute alternatives are an input to the algorithm).

    ``engine`` (default: the ``REPRO_ENGINE`` environment variable) selects
    the chain-evaluation engine for the answer-path ``Q(D)`` evaluation —
    ``"columnar"`` runs it through the partitioned executor's generated
    kernels (:mod:`repro.engine.columnar`).  Explanation sets are identical
    on either engine; the differential fuzz oracle enforces it.

    ``optimize`` (default: the ``REPRO_OPTIMIZE`` environment variable) runs
    the logical plan optimizer on the *answer path* — the ``Q(D)`` evaluation
    that validation and the side-effect bounds consume.  The explanation path
    (backtracing, SA enumeration, tracing, Algorithm 4) always runs against
    the original plan, because explanations are sets of *user* operators
    (paper Def. 9); the optimizer is explanation-preserving by construction
    and the equivalence suite asserts identical explanation sets either way.
    """
    from repro.engine.columnar import resolve_engine
    from repro.engine.optimizer import optimize_query, resolve_optimize

    timings: dict[str, float] = {}
    engine = resolve_engine(engine)
    optimizer_summary: Optional[dict] = None
    answer_query = question.query
    if resolve_optimize(optimize):
        started = time.perf_counter()
        report = optimize_query(question.query, question.db)
        optimizer_summary = report.summary()
        answer_query = report.optimized
        timings["optimize"] = time.perf_counter() - started
    if question._result_cache is None:
        # Seed ``Q(D)`` before validation (or the side-effect bounds)
        # computes it: through the optimized plan when the optimizer ran,
        # and through the partitioned executor's generated kernels when the
        # columnar engine is selected.  An already-cached result is reused
        # as-is — all paths produce identical bags by the equivalence
        # guarantees.
        if engine == "columnar":
            from repro.engine.executor import Executor

            question._result_cache = Executor(
                num_partitions=4, optimize=False, engine=engine
            ).execute(answer_query, question.db)
        elif answer_query is not question.query:
            question._result_cache = answer_query.evaluate(question.db)
    if validate:
        question.validate()

    started = time.perf_counter()
    base = backtrace(question.query, question.db, question.nip)
    timings["backtrace"] = time.perf_counter() - started

    started = time.perf_counter()
    groups = alternatives if use_schema_alternatives else ()
    sas = enumerate_schema_alternatives(
        question.query, question.db, question.nip, base, groups=groups, max_sas=max_sas
    )
    timings["alternatives"] = time.perf_counter() - started

    started = time.perf_counter()
    traced = trace(question.query, question.db, sas, revalidate=revalidate)
    timings["tracing"] = time.perf_counter() - started

    started = time.perf_counter()
    explanations = approximate_msrs(question, sas, traced)
    timings["approximate"] = time.perf_counter() - started

    return WhyNotResult(
        question, explanations, sas, base, traced, timings, optimizer_summary
    )
