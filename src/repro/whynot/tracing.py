"""Step 3: data tracing (paper §5.3).

Operators are instrumented to evaluate *relaxed* semantics jointly under all
schema alternatives: selections pass everything, flattens run as outer
flattens, joins as full outer joins — while annotations record, per schema
alternative Sᵢ:

* ``valid``      — does the tuple exist under Sᵢ (``vals[i] is not None``)?
* ``consistent`` — does it (still) match the backtraced NIP at this operator
  (the paper's *re-validation* of compatibles)?
* ``retained``   — would the operator, as written in Sᵢ's query, produce it
  (``None`` when the operator never filters: projection, nesting, ...)?

Instead of the paper's ever-widening annotation columns on Spark, each traced
row carries one tuple per SA plus the flags created *at* the producing
operator; per-operator snapshots with parent pointers give Algorithm 4 the
same information (see docs/ARCHITECTURE.md §4, "Why-not pipeline").

Work sharing across schema alternatives
---------------------------------------

Most SAs differ from the original schema in a handful of operators, so the
relaxed evaluation is *shared*: at every operator the SA indices are
partitioned into groups whose members are indistinguishable — identical
operator parameters/schemas *and* identical input tuples (tracked as *column
groups*: an invariant of each operator snapshot stating that ``vals[i] is
vals[j]`` for every row when i and j share a group).  Each group is evaluated
once through its representative SA and the result objects are shared by all
members, so tracing cost scales with the number of *distinct outcomes*, not
with the number of SAs (the Fig. 11 axis).

Per-SA ``valid``/``consistent``/``retained`` flags are bitmask integers
(``valid_mask``/``consistent_mask``/``retained_true``+``retained_known``);
:class:`TRow` exposes tuple-style ``consistent``/``retained`` views for
compatibility and ``*_at(i)`` accessors for hot paths.

The SA groups at an operator are *independent* — each group is evaluated
through its own representative query against its own column of input
tuples.  The ``_group_*`` methods of :class:`Tracer` compute one group's
share of an operator (outputs, expansions, matches or buckets, indexed by
input position); the ``_trace_*`` methods merge the per-group results back
into bitmask-flagged rows.

Aggregate-value constraints in NIPs are checked softly: if no row at an
operator is strictly consistent under some SA, consistency is re-evaluated
against the pattern with aggregate constraints relaxed to ``?`` (the tracer
does not enumerate input subsets for aggregates — paper §5.5 caveat (iii)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.algebra.operators import (
    BagDestroy,
    CartesianProduct,
    Deduplication,
    Difference,
    EvalContext,
    GroupAggregation,
    Join,
    Map,
    NestedAggregation,
    Operator,
    Projection,
    Query,
    RelationFlatten,
    RelationNesting,
    Renaming,
    Selection,
    TableAccess,
    TupleFlatten,
    TupleNesting,
    Union,
)
from repro.engine.database import Database
from repro.nested.values import Bag, Layout, Tup
from repro.whynot.alternatives import SchemaAlternative
from repro.whynot.matching import compile_pattern


class UnsupportedOperator(ValueError):
    """Raised when the tracer meets an operator it cannot instrument (map)."""


class TRow:
    """One traced row: a tuple per schema alternative plus bitmask flags.

    ``vals[i]`` is the tuple under SA i (None when the row does not exist
    there); the masks store one bit per SA.  ``retained`` is tri-state: the
    bit in ``retained_known`` says whether the producing operator filters at
    all, ``retained_true`` whether it kept the row.
    """

    __slots__ = (
        "rid",
        "parents",
        "vals",
        "valid_mask",
        "consistent_mask",
        "retained_true",
        "retained_known",
    )

    def __init__(
        self,
        rid: int,
        parents: tuple[int, ...],
        vals: tuple[Optional[Tup], ...],
        valid_mask: int,
        consistent_mask: int = 0,
        retained_true: int = 0,
        retained_known: int = 0,
    ):
        self.rid = rid
        self.parents = parents
        self.vals = vals
        self.valid_mask = valid_mask
        self.consistent_mask = consistent_mask
        self.retained_true = retained_true
        self.retained_known = retained_known

    def valid(self, i: int) -> bool:
        """Does this row exist under schema alternative *i*?"""
        return (self.valid_mask >> i) & 1 == 1

    def consistent_at(self, i: int) -> bool:
        """Does this row match the backtraced NIP under SA *i*?"""
        return (self.consistent_mask >> i) & 1 == 1

    def retained_at(self, i: int) -> Optional[bool]:
        """Tri-state retained flag under SA *i* (None: operator never filters)."""
        if (self.retained_known >> i) & 1 == 0:
            return None
        return (self.retained_true >> i) & 1 == 1

    @property
    def consistent(self) -> tuple[bool, ...]:
        """Tuple view of the consistency bitmask (one bool per SA)."""
        mask = self.consistent_mask
        return tuple(bool((mask >> i) & 1) for i in range(len(self.vals)))

    @property
    def retained(self) -> tuple[Optional[bool], ...]:
        """Tuple view of the tri-state retained flags (one entry per SA)."""
        return tuple(self.retained_at(i) for i in range(len(self.vals)))

    def __repr__(self) -> str:
        return (
            f"TRow(rid={self.rid}, parents={self.parents}, vals={self.vals!r}, "
            f"consistent={self.consistent}, retained={self.retained})"
        )


class SAGroups:
    """A partition of SA indices into indistinguishable groups.

    ``gids[i]`` is the group of SA i, ``reps[g]`` a representative SA of
    group g, ``masks[g]`` the bitmask of its members.  Attached to an
    operator snapshot it asserts the *column sharing* invariant: for every
    row, ``vals[i] is vals[j]`` whenever ``gids[i] == gids[j]``.
    """

    __slots__ = ("gids", "reps", "masks")

    def __init__(self, gids: tuple[int, ...], reps: list[int], masks: list[int]):
        self.gids = gids
        self.reps = reps
        self.masks = masks

    @classmethod
    def single(cls, n: int) -> "SAGroups":
        """The trivial partition: all *n* SAs share one group."""
        return cls((0,) * n, [0], [(1 << n) - 1])

    def __len__(self) -> int:
        return len(self.reps)


def _group_equal(n: int, items: list) -> tuple[int, ...]:
    """Group indices 0..n-1 by (possibly unhashable) equality of *items*."""
    gids: list[int] = []
    reps: list[int] = []
    for i in range(n):
        for g, rep in enumerate(reps):
            if items[i] == items[rep]:
                gids.append(g)
                break
        else:
            gids.append(len(reps))
            reps.append(i)
    return tuple(gids)


def _meet(n: int, *assignments: tuple[int, ...]) -> SAGroups:
    """The common refinement (meet) of several group assignments."""
    key_to_gid: dict[tuple[int, ...], int] = {}
    gids: list[int] = []
    reps: list[int] = []
    masks: list[int] = []
    for i in range(n):
        key = tuple(a[i] for a in assignments)
        gid = key_to_gid.get(key)
        if gid is None:
            gid = len(reps)
            key_to_gid[key] = gid
            reps.append(i)
            masks.append(0)
        gids.append(gid)
        masks[gid] |= 1 << i
    return SAGroups(tuple(gids), reps, masks)


@dataclass
class OpTrace:
    """Snapshot of one operator's annotated (relaxed) output."""

    op_id: int
    rows: list[TRow]
    groups: SAGroups = None  # type: ignore[assignment]


@dataclass
class TraceResult:
    """All per-operator snapshots plus lookup indexes."""

    traces: dict[int, OpTrace]
    root_id: int
    n_sas: int
    rows_by_rid: dict[int, TRow] = field(default_factory=dict)
    op_of_rid: dict[int, int] = field(default_factory=dict)

    def final_rows(self) -> list[TRow]:
        """The traced rows of the root operator (the relaxed final result)."""
        return self.traces[self.root_id].rows

    def ancestors(self, rids: "set[int] | list[int]") -> set[int]:
        """Transitive parents of the given rows (including themselves)."""
        seen: set[int] = set()
        stack = list(rids)
        while stack:
            rid = stack.pop()
            if rid in seen:
                continue
            seen.add(rid)
            stack.extend(self.rows_by_rid[rid].parents)
        return seen

    def total_rows(self) -> int:
        """Total number of traced rows across all operators."""
        return len(self.rows_by_rid)


class Tracer:
    """Runs the instrumented evaluation for a list of schema alternatives."""

    def __init__(
        self,
        query: Query,
        db: Database,
        sas: list[SchemaAlternative],
        revalidate: bool = True,
        reuse: "Optional[dict[int, OpTrace]]" = None,
        rid_start: int = 0,
    ):
        self.query = query
        self.db = db
        self.sas = sas
        self.revalidate = revalidate
        self.n = len(sas)
        self._full_mask = (1 << self.n) - 1
        self.reuse = reuse or {}
        self._rid = itertools.count(rid_start + 1)
        # Per-SA operator views, schemas and evaluation contexts.
        self._ops = {
            op.op_id: [sa.query.op(op.op_id) for sa in sas] for op in query.ops
        }
        self._schemas = [sa.query.infer_schemas(db) for sa in sas]
        self._ctxs = [EvalContext(db, schemas) for schemas in self._schemas]
        self._op_group_cache: dict[int, tuple[int, ...]] = {}

    # -- public entry --------------------------------------------------------

    def run(self) -> TraceResult:
        """Trace every operator bottom-up and assemble the :class:`TraceResult`.

        Operators listed in ``reuse`` (a retained base trace, keyed by op id)
        are **not** re-evaluated: their annotated rows — including the per-SA
        validity/consistency bitmasks — are merged into the result as-is, and
        only operators outside the reuse set are traced afresh.  This is what
        makes incremental re-tracing after a mutation cheap: the caller passes
        the base version's :class:`OpTrace` for every operator whose inputs
        did not change (see :mod:`repro.engine.deltas`), together with a
        ``rid_start`` above every retained row id so new rows never collide.
        """
        result = TraceResult({}, self.query.root.op_id, self.n)
        for op in self.query.ops:
            reused = self.reuse.get(op.op_id)
            if reused is not None:
                rows, groups = reused.rows, reused.groups
            else:
                child_traces = [result.traces[c.op_id] for c in op.children]
                rows, groups = self._trace_op(op, child_traces)
                self._annotate_consistency(op, rows, groups, result.rows_by_rid)
            result.traces[op.op_id] = OpTrace(op.op_id, rows, groups)
            for row in rows:
                result.rows_by_rid[row.rid] = row
                result.op_of_rid[row.rid] = op.op_id
        return result

    # -- helpers -------------------------------------------------------------

    def _next_rid(self) -> int:
        return next(self._rid)

    def _sa_op(self, op: Operator, i: int) -> Operator:
        return self._ops[op.op_id][i]

    def _op_param_groups(self, op: Operator) -> tuple[int, ...]:
        """Group SAs by the op's parameters and surrounding schemas."""
        cached = self._op_group_cache.get(op.op_id)
        if cached is None:
            items = []
            for i in range(self.n):
                schemas = self._schemas[i]
                items.append(
                    (
                        self._ops[op.op_id][i].params(),
                        tuple(schemas[c.op_id] for c in op.children),
                        schemas[op.op_id],
                    )
                )
            cached = _group_equal(self.n, items)
            self._op_group_cache[op.op_id] = cached
        return cached

    def _meet_for(self, op: Operator, *child_groups: SAGroups) -> SAGroups:
        """SAs indistinguishable at *op*: same params/schemas, same inputs."""
        return _meet(
            self.n, self._op_param_groups(op), *(g.gids for g in child_groups)
        )

    def _annotate_consistency(
        self, op: Operator, rows: list[TRow], groups: SAGroups, rows_by_rid: dict[int, TRow]
    ) -> None:
        """Fill ``consistent`` masks, with the soft aggregate fallback."""
        if not self.revalidate and not isinstance(op, TableAccess):
            # Ablation: inherit compatibility from the parents (lineage-style
            # blind successor tracking, no re-validation).
            for row in rows:
                inherited = 0
                for p in row.parents:
                    inherited |= rows_by_rid[p].consistent_mask
                row.consistent_mask = row.valid_mask & inherited
            return
        n = self.n
        strict = [self.sas[i].backtrace.nip_at[op.op_id] for i in range(n)]
        relaxed = [self.sas[i].backtrace.relaxed_at[op.op_id] for i in range(n)]
        # Refine the column groups by pattern equality: within a subgroup the
        # match flags are identical, so evaluate them once.
        sub_keys: list[tuple[int, Any, Any]] = []
        sub_masks: list[int] = []
        sub_reps: list[int] = []
        for i in range(n):
            key = (groups.gids[i], strict[i], relaxed[i])
            for g, existing in enumerate(sub_keys):
                if existing == key:
                    sub_masks[g] |= 1 << i
                    break
            else:
                sub_keys.append(key)
                sub_masks.append(1 << i)
                sub_reps.append(i)
        for (_, s_pat, r_pat), gmask, rep in zip(sub_keys, sub_masks, sub_reps):
            bit = 1 << rep
            strict_match = compile_pattern(s_pat)
            # Within a subgroup validity is uniform (column sharing), so the
            # whole gmask can be committed as soon as the representative
            # column is valid and matches.
            matched_any = False
            for row in rows:
                if row.valid_mask & bit and strict_match(row.vals[rep]):
                    row.consistent_mask |= gmask
                    matched_any = True
            if not matched_any and s_pat != r_pat:
                relaxed_match = compile_pattern(r_pat)
                for row in rows:
                    if row.valid_mask & bit and relaxed_match(row.vals[rep]):
                        row.consistent_mask |= gmask

    # -- per-operator tracing --------------------------------------------------

    def _trace_op(
        self, op: Operator, child_traces: list[OpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        if isinstance(op, TableAccess):
            return self._trace_table(op)
        if isinstance(op, Selection):
            return self._trace_selection(op, child_traces[0])
        if isinstance(op, (Projection, Renaming, TupleFlatten, TupleNesting, NestedAggregation)):
            return self._trace_narrow(op, child_traces[0])
        if isinstance(op, RelationFlatten):
            return self._trace_flatten(op, child_traces[0])
        if isinstance(op, Join):
            return self._trace_join(op, child_traces)
        if isinstance(op, (RelationNesting, GroupAggregation)):
            return self._trace_grouping(op, child_traces[0])
        if isinstance(op, Union):
            return self._trace_union(op, child_traces)
        if isinstance(op, Deduplication):
            return self._trace_passthrough(child_traces[0])
        if isinstance(op, Difference):
            return self._trace_difference(op, child_traces)
        if isinstance(op, CartesianProduct):
            return self._trace_product(op, child_traces)
        if isinstance(op, Map):
            raise UnsupportedOperator("data tracing does not support map (paper §5.5)")
        if isinstance(op, BagDestroy):
            raise UnsupportedOperator("data tracing does not support bag-destroy")
        raise UnsupportedOperator(f"no tracing rule for {type(op).__name__}")

    def _trace_table(self, op: TableAccess) -> tuple[list[TRow], SAGroups]:
        full = self._full_mask
        n = self.n
        rows = [
            TRow(
                rid=self._next_rid(),
                parents=(),
                vals=(tup,) * n,
                valid_mask=full,
                retained_true=full,
                retained_known=full,
            )
            for tup in self.db.relation(op.table)
        ]
        return rows, SAGroups.single(n)

    def _trace_selection(self, op: Selection, child: OpTrace) -> tuple[list[TRow], SAGroups]:
        mg = self._meet_for(op, child.groups)
        preds = [self._sa_op(op, rep).pred.compile() for rep in mg.reps]
        reps = mg.reps
        masks = mg.masks
        full = self._full_mask
        rows = []
        for parent in child.rows:
            pvals = parent.vals
            retained_true = 0
            for g, rep in enumerate(reps):
                v = pvals[rep]
                if v is not None and preds[g](v):
                    retained_true |= masks[g]
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=pvals,
                    valid_mask=parent.valid_mask,
                    retained_true=retained_true & parent.valid_mask,
                    retained_known=full,
                )
            )
        # Selections pass tuples through unchanged: column sharing persists.
        return rows, child.groups

    def _trace_narrow(self, op: Operator, child: OpTrace) -> tuple[list[TRow], SAGroups]:
        """Non-filtering unary operators: transform each group's tuple once."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        sa_ops = [self._sa_op(op, rep) for rep in reps]
        ctxs = [self._ctxs[rep] for rep in reps]
        full = self._full_mask
        rows = []
        if len(reps) == 1:
            # All SAs share the computation: one eval, one shared tuple.
            # Inlined: merging ``_group_narrow``'s output list instead
            # measured slower on this, the common case.
            sa_op, ctx, rep = sa_ops[0], ctxs[0], reps[0]
            for parent in child.rows:
                v = parent.vals[rep]
                out = None
                if v is not None:
                    produced = sa_op.eval_rows([[v]], ctx)
                    out = produced[0] if produced else None
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=(out,) * n,
                        valid_mask=full if out is not None else 0,
                    )
                )
            return rows, groups
        # Multiple distinguishable groups: evaluate each group once.
        group_outs = [
            self._group_narrow(op, rep, [p.vals[rep] for p in child.rows])
            for rep in reps
        ]
        for idx, parent in enumerate(child.rows):
            vals = []
            valid_mask = 0
            for i in range(n):
                out = group_outs[gids[i]][idx]
                vals.append(out)
                if out is not None:
                    valid_mask |= 1 << i
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=tuple(vals),
                    valid_mask=valid_mask,
                )
            )
        return rows, groups

    def _trace_flatten(self, op: RelationFlatten, child: OpTrace) -> tuple[list[TRow], SAGroups]:
        """Algorithm 3: run as outer flatten per SA group, merge by parent."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        sa_ops: list[RelationFlatten] = [self._sa_op(op, rep) for rep in reps]  # type: ignore[misc]
        ctxs = [self._ctxs[rep] for rep in reps]
        full = self._full_mask
        rows = []
        if len(reps) == 1:
            # The single-group case inlined, as in ``_trace_narrow``.
            sa_op, ctx, rep = sa_ops[0], ctxs[0], reps[0]
            outer = sa_op.outer
            for parent in child.rows:
                v = parent.vals[rep]
                if v is None:
                    continue
                expanded, padded = sa_op.expand(v, ctx)
                if padded:
                    rows.append(
                        TRow(
                            rid=self._next_rid(),
                            parents=(parent.rid,),
                            vals=(expanded[0],) * n,
                            valid_mask=full,
                            retained_true=full if outer else 0,
                            retained_known=full,
                        )
                    )
                    continue
                for t in expanded:
                    rows.append(
                        TRow(
                            rid=self._next_rid(),
                            parents=(parent.rid,),
                            vals=(t,) * n,
                            valid_mask=full,
                            retained_true=full,
                            retained_known=full,
                        )
                    )
            return rows, groups
        # Per-group outer-flatten expansions, merged column-aligned (the
        # k-th expansion of each group forms one traced row).
        group_expansions = [
            self._group_flatten(op, rep, [p.vals[rep] for p in child.rows])
            for rep in reps
        ]
        for idx, parent in enumerate(child.rows):
            expansions: list[list[tuple[Optional[Tup], bool]]] = [
                group_expansions[g][idx] for g in range(len(reps))
            ]
            width = max((len(e) for e in expansions), default=0)
            for k in range(width):
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    expansion = expansions[gids[i]]
                    if k < len(expansion):
                        tup, flag = expansion[k]
                        vals.append(tup)
                        bit = 1 << i
                        valid_mask |= bit
                        if flag:
                            retained_true |= bit
                    else:
                        vals.append(None)
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=tuple(vals),
                        valid_mask=valid_mask,
                        retained_true=retained_true,
                        retained_known=full,
                    )
                )
        return rows, groups

    def _trace_join(self, op: Join, child_traces: list[OpTrace]) -> tuple[list[TRow], SAGroups]:
        """Relaxed join: full-outer semantics per SA group, merged across."""
        left_trace, right_trace = child_traces
        left_rows, right_rows = left_trace.rows, right_trace.rows
        groups = self._meet_for(op, left_trace.groups, right_trace.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        full = self._full_mask
        n_groups = len(reps)

        # Each group's full-outer match set: {(left_idx, right_idx):
        # combined} plus the matched index sets; the pads are schema-derived.
        results = [
            self._group_join(
                op, rep, [l.vals[rep] for l in left_rows], [r.vals[rep] for r in right_rows]
            )
            for rep in reps
        ]
        match_sets: list[dict[tuple[int, int], Tup]] = [r[0] for r in results]
        left_matched: list[set[int]] = [r[1] for r in results]
        right_matched: list[set[int]] = [r[2] for r in results]
        sa_ops: list[Join] = []
        pads_left: list[Tup] = []
        pads_right: list[Tup] = []
        for g in range(n_groups):
            rep = reps[g]
            sa_op: Join = self._sa_op(op, rep)  # type: ignore[assignment]
            sa_ops.append(sa_op)
            schemas = self._schemas[rep]
            pads_right.append(
                sa_op._pad(schemas[op.children[1].op_id], sa_op._right_drop())
            )
            pads_left.append(sa_op._pad(schemas[op.children[0].op_id]))

        rows: list[TRow] = []
        all_pairs: dict[tuple[int, int], None] = {}
        for matches_g in match_sets:
            for pair in matches_g:
                all_pairs.setdefault(pair, None)
        single = n_groups == 1
        for pair in all_pairs:
            ldx, jdx = pair
            if single:
                combined = match_sets[0][pair]
                vals_t: tuple[Optional[Tup], ...] = (combined,) * n
                valid_mask = full
            else:
                vals = []
                valid_mask = 0
                for i in range(n):
                    combined = match_sets[gids[i]].get(pair)
                    vals.append(combined)
                    if combined is not None:
                        valid_mask |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(left_rows[ldx].rid, right_rows[jdx].rid),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=valid_mask,
                    retained_known=full,
                )
            )
        # Left rows without partner: padded (tracks tuples that an outer join
        # variant would keep — needed to reparameterize the join type).
        for ldx, l in enumerate(left_rows):
            unmatched_groups = [
                g
                for g in range(n_groups)
                if l.vals[reps[g]] is not None and ldx not in left_matched[g]
            ]
            if not unmatched_groups:
                continue
            if single:
                out = l.vals[reps[0]].concat(pads_right[0])
                vals_t = (out,) * n
                valid_mask = full
                retained_true = full if sa_ops[0].how in ("left", "full") else 0
            else:
                padded: dict[int, Tup] = {
                    g: l.vals[reps[g]].concat(pads_right[g]) for g in unmatched_groups
                }
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    out = padded.get(gids[i])
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                        if sa_ops[gids[i]].how in ("left", "full"):
                            retained_true |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(l.rid,),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=retained_true,
                    retained_known=full,
                )
            )
        for jdx, r in enumerate(right_rows):
            unmatched_groups = [
                g
                for g in range(n_groups)
                if r.vals[reps[g]] is not None and jdx not in right_matched[g]
            ]
            if not unmatched_groups:
                continue
            padded = {}
            for g in unmatched_groups:
                right_val = r.vals[reps[g]]
                drop = sa_ops[g]._right_drop()
                if drop:
                    right_val = right_val.drop(drop)
                padded[g] = pads_left[g].concat(right_val)
            if single:
                vals_t = (padded[0],) * n
                valid_mask = full
                retained_true = full if sa_ops[0].how in ("right", "full") else 0
            else:
                vals = []
                valid_mask = 0
                retained_true = 0
                for i in range(n):
                    out = padded.get(gids[i])
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                        if sa_ops[gids[i]].how in ("right", "full"):
                            retained_true |= 1 << i
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(r.rid,),
                    vals=vals_t,
                    valid_mask=valid_mask,
                    retained_true=retained_true,
                    retained_known=full,
                )
            )
        return rows, groups

    def _trace_grouping(
        self, op: "RelationNesting | GroupAggregation", child: OpTrace
    ) -> tuple[list[TRow], SAGroups]:
        """Figure 7's four steps: per-SA-group nest/aggregate valid rows, then
        merge the per-group results full-outer-join-style on the group key."""
        groups = self._meet_for(op, child.groups)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        merged: dict[Tup, dict[int, tuple[Tup, list[int]]]] = {}
        order: list[Tup] = []

        # Per-group nest/aggregate ``(key, out, member_indices)`` buckets,
        # merged full-outer-join-style on the group key.
        results = [
            self._group_grouping(op, rep, [p.vals[rep] for p in child.rows])
            for rep in reps
        ]
        for g in range(len(reps)):
            for key, out, member_idxs in results[g]:
                slot = merged.get(key)
                if slot is None:
                    slot = {}
                    merged[key] = slot
                    order.append(key)
                slot[g] = (out, [child.rows[i].rid for i in member_idxs])
        rows = []
        full = self._full_mask
        single = len(reps) == 1
        for key in order:
            slot = merged[key]
            if single:
                out, rids = slot[0]
                vals_t: tuple[Optional[Tup], ...] = (out,) * n
                valid_mask = full
                parents = dict.fromkeys(rids)
            else:
                vals = []
                valid_mask = 0
                parents = {}
                for i in range(n):
                    entry = slot.get(gids[i])
                    if entry is None:
                        vals.append(None)
                    else:
                        vals.append(entry[0])
                        valid_mask |= 1 << i
                for entry, rids in slot.values():
                    for rid in rids:
                        parents.setdefault(rid, None)
                vals_t = tuple(vals)
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=tuple(parents),
                    vals=vals_t,
                    valid_mask=valid_mask,
                )
            )
        return rows, groups

    # -- one SA group's share of an operator --------------------------------

    def _group_narrow(self, op: Operator, sa: int, parent_vals: list) -> list:
        """One SA group's outputs for a non-filtering unary operator.

        Each parent tuple that exists under the group's representative SA
        *sa* is pushed through the SA's operator; missing parents stay
        missing.
        """
        sa_op = self._sa_op(op, sa)
        ctx = self._ctxs[sa]
        outs: list = []
        for v in parent_vals:
            if v is None:
                outs.append(None)
            else:
                produced = sa_op.eval_rows([[v]], ctx)
                outs.append(produced[0] if produced else None)
        return outs

    def _group_flatten(self, op: RelationFlatten, sa: int, parent_vals: list) -> list:
        """One SA group's outer-flatten expansions, one list per parent row.

        Each expansion entry is ``(tuple, retained)``; a padded expansion is
        retained only when the SA's own flatten is the outer variant.
        """
        sa_op: RelationFlatten = self._sa_op(op, sa)  # type: ignore[assignment]
        ctx = self._ctxs[sa]
        outer = sa_op.outer
        expansions: list = []
        for v in parent_vals:
            if v is None:
                expansions.append([])
                continue
            expanded, padded = sa_op.expand(v, ctx)
            if padded:
                expansions.append([(expanded[0], outer)])
            else:
                expansions.append([(t, True) for t in expanded])
        return expansions

    def _group_join(
        self, op: Join, sa: int, left_vals: list, right_vals: list
    ) -> "tuple[dict, set[int], set[int]]":
        """One SA group's join matches: ``{(left_idx, right_idx): combined}``
        plus the matched index sets on each side (for outer padding)."""
        sa_op: Join = self._sa_op(op, sa)  # type: ignore[assignment]
        left_key, right_key = sa_op.key_fns()
        extra = sa_op.extra.compile() if sa_op.extra is not None else None
        combine = sa_op._combine
        index: dict = {}
        for jdx, v in enumerate(right_vals):
            if v is None:
                continue
            key = right_key(v)
            if key is not None:
                index.setdefault(key, []).append(jdx)
        matches: dict = {}
        left_matched: set[int] = set()
        right_matched: set[int] = set()
        empty: tuple[int, ...] = ()
        for ldx, v in enumerate(left_vals):
            if v is None:
                continue
            key = left_key(v)
            if key is None:
                continue
            for jdx in index.get(key, empty):
                combined = combine(v, right_vals[jdx])
                if extra is not None and not extra(combined):
                    continue
                matches[(ldx, jdx)] = combined
                left_matched.add(ldx)
                right_matched.add(jdx)
        return matches, left_matched, right_matched

    def _group_grouping(
        self, op: "RelationNesting | GroupAggregation", sa: int, parent_vals: list
    ) -> list:
        """One SA group's nesting/aggregation buckets as ``(key, out, indices)``.

        Indices point into *parent_vals*; :meth:`_trace_grouping` maps them
        back to traced-row ids when it merges the groups on the group key.
        """
        sa_op = self._sa_op(op, sa)
        nesting = isinstance(sa_op, RelationNesting)
        buckets: dict = {}
        if not nesting and not sa_op.key_specs:
            buckets[Tup()] = [i for i, v in enumerate(parent_vals) if v is not None]
        else:
            key_fn = sa_op.group_key if nesting else sa_op.key_fn()
            for i, v in enumerate(parent_vals):
                if v is None:
                    continue
                buckets.setdefault(key_fn(v), []).append(i)
        out = []
        if nesting:
            target_layout = Layout.of((sa_op.target,))
            for key, idxs in buckets.items():
                nested = Bag(parent_vals[i].project(sa_op.attrs) for i in idxs)
                out.append((key, key.concat(Tup.from_layout(target_layout, (nested,))), idxs))
        else:
            for key, idxs in buckets.items():
                out.append(
                    (key, key.concat(sa_op.aggregate_tuple([parent_vals[i] for i in idxs])), idxs)
                )
        return out

    def _trace_union(self, op: Union, child_traces: list[OpTrace]) -> tuple[list[TRow], SAGroups]:
        rows = []
        for trace in child_traces:
            for parent in trace.rows:
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(parent.rid,),
                        vals=parent.vals,
                        valid_mask=parent.valid_mask,
                    )
                )
        groups = _meet(self.n, *(t.groups.gids for t in child_traces))
        return rows, groups

    def _trace_passthrough(self, child: OpTrace) -> tuple[list[TRow], SAGroups]:
        rows = [
            TRow(
                rid=self._next_rid(),
                parents=(parent.rid,),
                vals=parent.vals,
                valid_mask=parent.valid_mask,
            )
            for parent in child.rows
        ]
        return rows, child.groups

    def _trace_difference(
        self, op: Difference, child_traces: list[OpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        left, right = child_traces
        mg = _meet(self.n, left.groups.gids, right.groups.gids)
        right_bags = [
            Bag(r.vals[rep] for r in right.rows if r.vals[rep] is not None)
            for rep in mg.reps
        ]
        full = self._full_mask
        rows = []
        for parent in left.rows:
            retained_true = 0
            for g, rep in enumerate(mg.reps):
                v = parent.vals[rep]
                if v is not None and right_bags[g].mult(v) == 0:
                    retained_true |= mg.masks[g]
            rows.append(
                TRow(
                    rid=self._next_rid(),
                    parents=(parent.rid,),
                    vals=parent.vals,
                    valid_mask=parent.valid_mask,
                    retained_true=retained_true & parent.valid_mask,
                    retained_known=full,
                )
            )
        return rows, left.groups

    def _trace_product(
        self, op: CartesianProduct, child_traces: list[OpTrace]
    ) -> tuple[list[TRow], SAGroups]:
        left, right = child_traces
        if len(left.rows) * len(right.rows) > 250_000:
            raise UnsupportedOperator(
                "cartesian product too large to trace; the paper's algorithm "
                "avoids cross products (§5.5)"
            )
        groups = _meet(self.n, left.groups.gids, right.groups.gids)
        reps = groups.reps
        gids = groups.gids
        n = self.n
        rows = []
        for l in left.rows:
            for r in right.rows:
                outs: list[Optional[Tup]] = []
                for rep in reps:
                    lv = l.vals[rep]
                    rv = r.vals[rep]
                    outs.append(lv.concat(rv) if lv is not None and rv is not None else None)
                vals = []
                valid_mask = 0
                for i in range(n):
                    out = outs[gids[i]]
                    vals.append(out)
                    if out is not None:
                        valid_mask |= 1 << i
                rows.append(
                    TRow(
                        rid=self._next_rid(),
                        parents=(l.rid, r.rid),
                        vals=tuple(vals),
                        valid_mask=valid_mask,
                    )
                )
        return rows, groups


def trace(
    query: Query,
    db: Database,
    sas: list[SchemaAlternative],
    revalidate: bool = True,
    reuse: "Optional[dict[int, OpTrace]]" = None,
    rid_start: int = 0,
) -> TraceResult:
    """Run the instrumented (relaxed) evaluation for all schema alternatives.

    *reuse* merges retained per-operator traces from a base version instead of
    re-evaluating them (incremental re-trace after a mutation); *rid_start*
    offsets freshly allocated row ids above the retained ones.
    """
    return Tracer(
        query, db, sas, revalidate=revalidate, reuse=reuse, rid_start=rid_start
    ).run()
