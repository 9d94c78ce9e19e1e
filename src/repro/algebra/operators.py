"""NRAB operators (paper Table 1) and query plans.

Every operator of the paper's nested relational algebra for bags is
implemented with exact bag semantics:

* table access, projection (with computed columns), renaming, selection,
* inner / left outer / right outer / full outer join (``Join`` with ``how``),
* tuple flatten ``F^T``, relation inner/outer flatten ``F^I``/``F^O``
  (``RelationFlatten`` with an ``outer`` flag),
* tuple nesting ``N^T`` and relation nesting ``N^R``,
* per-tuple aggregation over a nested relation (``NestedAggregation``, the
  Table-1 ``γ``) and the derived group-by aggregation (``GroupAggregation``),
* additive union, difference, deduplication, cartesian product, restructuring
  ``map``, and bag-destroy.

A :class:`Query` wraps an operator tree, assigns stable operator identifiers
(Def. 7 requires operators to retain identity across reparameterizations), and
evaluates against a :class:`~repro.engine.database.Database`.

Evaluation works on Python lists of :class:`~repro.nested.values.Tup` (lists
carry multiplicities naturally); the final result is wrapped into a
:class:`~repro.nested.values.Bag`.

Compiled evaluation
-------------------

Operators compile their hot-path machinery once and reuse it for every row:
expressions lower to closures (:meth:`Expr.compile`), dotted paths to interned
getters (:func:`compile_path`), and output shapes to interned
:class:`~repro.nested.values.Layout` objects.  Compiled state is cached
lazily on the operator instance (``_compiled_*`` attributes); it never goes
stale because reparameterization always builds fresh operator instances
(:meth:`Operator.with_params` / :meth:`Query.reparameterize`).  Key-based
operators (``Join``, ``GroupAggregation``, ``RelationNesting``) additionally
expose ``eval_keyed`` so the partitioned executor can reuse the shuffle keys
instead of recomputing them per partition.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.algebra.aggregates import AggSpec, apply_aggregate
from repro.algebra.expressions import Attr, Expr, KernelUnsupported
from repro.nested.paths import Path, compile_path, parse_path, path_str
from repro.nested.types import AnyType, BagType, TupleType
from repro.nested.values import NULL, Bag, Layout, Tup, is_null

#: ⊥'s concrete type, for inlined null tests in aggregation hot loops
#: (identity against ``NULL`` is not enough: unpickling creates new ⊥s).
_NULL_TYPE = type(NULL)


class EvalContext:
    """Evaluation context: database plus per-operator row schemas."""

    def __init__(self, db, schemas: Mapping[int, TupleType]):
        self.db = db
        self.schemas = schemas

    def schema_of(self, op: "Operator") -> TupleType:
        """The inferred output row schema of *op* in the current plan."""
        return self.schemas[op.op_id]


class Operator:
    """Base class for all NRAB operators.

    Operators are nodes of a query tree.  ``op_id`` is assigned by
    :class:`Query` in deterministic topological order; reparameterizations
    preserve the tree structure, so identifiers persist (paper Def. 7).
    Operator instances must not be shared between structurally different
    queries.
    """

    symbol = "?"

    #: True when the operator may change row cardinality (filtering or
    #: flattening).  The kernel builder (:mod:`repro.engine.kernels`) emits
    #: per-operator row counters only after these operators; every other
    #: chain operator is 1:1 and inherits its input count.
    kernel_changes_cardinality = False

    def __init__(self, children: Sequence["Operator"], label: Optional[str] = None):
        self.children: tuple[Operator, ...] = tuple(children)
        self.op_id: int = -1
        self._label = label

    @property
    def label(self) -> str:
        """Display name: the explicit label, or symbol + operator id."""
        return self._label if self._label is not None else f"{self.symbol}{self.op_id}"

    @property
    def origins(self) -> "tuple[int, ...]":
        """User-plan operator ids this operator derives from.

        Stamped by the logical optimizer (:mod:`repro.engine.optimizer`) on
        every rewritten operator; an empty tuple marks an operator the
        optimizer synthesized (e.g. a pruning projection).  Operators of a
        plan that never went through the optimizer report themselves.
        """
        return getattr(self, "_origins", (self.op_id,) if self.op_id > 0 else ())

    def params(self) -> dict[str, Any]:
        """The operator's parameters ``param(Q, op)`` for Δ comparison."""
        raise NotImplementedError

    def with_params(self, **changes: Any) -> "Operator":
        """A copy of this operator with some parameters replaced."""
        params = self.params()
        unknown = set(changes) - set(params)
        if unknown:
            raise ValueError(f"{type(self).__name__} has no parameters {sorted(unknown)}")
        params.update(changes)
        return self._rebuild(self.children, params)

    def clone(self, children: Sequence["Operator"]) -> "Operator":
        """A copy with new children and identical parameters."""
        return self._rebuild(children, self.params())

    def _rebuild(self, children: Sequence["Operator"], params: dict[str, Any]) -> "Operator":
        op = type(self)(*children, **params, label=self._label)
        return op

    def eval_rows(self, child_rows: list[list[Tup]], ctx: EvalContext) -> list[Tup]:
        """Evaluate this operator over its children's row lists (bag semantics)."""
        raise NotImplementedError

    def kernel_key(self, ctx: EvalContext) -> tuple:
        """Hashable semantic identity of this operator for the kernel cache.

        Two operators with equal keys must emit byte-identical kernel code
        for the same input layout, so the key covers every parameter the
        emission reads — including schema-derived facts such as the field
        names a flatten pads with.  Operators without a codegen hook raise
        :class:`~repro.algebra.expressions.KernelUnsupported`, which the
        kernel builder treats as "run the whole chain on the row path".
        """
        raise KernelUnsupported(type(self).__name__)

    def emit_kernel(self, kb, ctx: EvalContext) -> None:
        """Emit this operator's per-row kernel statements into builder *kb*.

        Called inside the generated per-partition loop with the current row
        held as named column variables (``kb.columns()``).  The hook mutates
        the builder's column map to reflect its output row and may emit
        ``continue`` (filtering), open ``for`` loops by raising ``kb.indent``
        (flattening — subsequent operators then run once per element), or
        ``raise _Bailout`` for value shapes the kernel cannot reproduce
        bit-identically; a bailout makes the caller rerun the partition on
        the row-at-a-time path, which also recreates exact error messages.
        Semantics must mirror :meth:`eval_rows` exactly — same outputs, same
        ⊥/NaN handling, same exceptions on malformed data (via bailout).
        Operators that cannot be lowered raise
        :class:`~repro.algebra.expressions.KernelUnsupported`.
        """
        raise KernelUnsupported(type(self).__name__)

    def output_schema(self, child_schemas: list[TupleType], db) -> TupleType:
        """Infer the output row schema from the children's schemas (Table 1)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description for explanation output."""
        return f"{self.label}"

    def __repr__(self) -> str:
        return self.describe()


def _compile_key(paths: "tuple[Path, ...]") -> "Callable[[Tup], Optional[tuple]]":
    """Compile join/group key paths into one row→key closure.

    Returns None for keys containing ⊥ (they never match, per Table 1).
    """
    getters = tuple(compile_path(p) for p in paths)
    if len(getters) == 1:
        getter = getters[0]

        def key_one(t: Tup) -> Optional[tuple]:
            v = getter(t)
            return None if is_null(v) else (v,)

        return key_one

    def key_many(t: Tup) -> Optional[tuple]:
        key = tuple(g(t) for g in getters)
        for v in key:
            if is_null(v):
                return None
        return key

    return key_many


def _strict_resolve(schema: TupleType, path: Path) -> Any:
    """Resolve a value path (tuples only, no bag crossing) to a type."""
    current: Any = schema
    for step in path:
        if isinstance(current, AnyType):
            return current
        if not isinstance(current, TupleType):
            raise KeyError(f"path step {step!r} cannot enter type {current!r}")
        current = current.field(step)
    return current


class TableAccess(Operator):
    """Table access: reads a named relation from the database."""

    symbol = "R"

    def __init__(self, table: str, label: Optional[str] = None):
        super().__init__((), label=label)
        self.table = table

    def params(self) -> dict[str, Any]:
        return {"table": self.table}

    def _rebuild(self, children, params):
        return TableAccess(params["table"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        return list(ctx.db.relation(self.table))

    def output_schema(self, child_schemas, db) -> TupleType:
        return db.schema(self.table)

    def describe(self) -> str:
        return f"{self.label}[{self.table}]"


class Projection(Operator):
    """Projection ``π`` with optional computed columns.

    ``cols`` is a sequence of output column specs; each spec is either a plain
    attribute name/path (projected and named after its last step) or a pair
    ``(out_name, expr)``.
    """

    symbol = "π"

    def __init__(self, child: Operator, cols: Sequence, label: Optional[str] = None):
        super().__init__((child,), label=label)
        normalized: list[tuple[str, Expr]] = []
        for spec in cols:
            if isinstance(spec, str):
                path = parse_path(spec)
                normalized.append((path[-1], Attr(path)))
            elif isinstance(spec, tuple) and len(spec) == 2:
                name, expr = spec
                if isinstance(expr, str):
                    expr = Attr(expr)
                normalized.append((name, expr))
            else:
                raise ValueError(f"bad projection column spec {spec!r}")
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate projection output names: {names}")
        self.cols: tuple[tuple[str, Expr], ...] = tuple(normalized)

    def params(self) -> dict[str, Any]:
        return {"cols": self.cols}

    def _rebuild(self, children, params):
        return Projection(children[0], params["cols"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        plan = getattr(self, "_compiled_cols", None)
        if plan is None:
            plan = (
                Layout.of(name for name, _ in self.cols),
                tuple(expr.compile() for _, expr in self.cols),
            )
            self._compiled_cols = plan
        layout, fns = plan
        from_layout = Tup.from_layout
        return [from_layout(layout, tuple(fn(t) for fn in fns)) for t in child_rows[0]]

    def kernel_key(self, ctx):
        return ("pi", self.cols)

    def emit_kernel(self, kb, ctx):
        new_cols = []
        for name, expr in self.cols:
            new_cols.append((name, kb.capture(expr.emit_kernel(kb))))
        kb.set_cols(new_cols)

    def output_schema(self, child_schemas, db) -> TupleType:
        from repro.algebra.schema import expr_type

        return TupleType((name, expr_type(expr, child_schemas[0])) for name, expr in self.cols)

    def describe(self) -> str:
        parts = []
        for name, expr in self.cols:
            if isinstance(expr, Attr) and expr.path[-1] == name and len(expr.path) == 1:
                parts.append(name)
            else:
                parts.append(f"{name}←{expr!r}")
        return f"{self.label}[{', '.join(parts)}]"


class Renaming(Operator):
    """Attribute renaming ``ρ``; ``pairs`` maps new ← old (partial allowed)."""

    symbol = "ρ"

    def __init__(
        self, child: Operator, pairs: Sequence[tuple[str, str]], label: Optional[str] = None
    ):
        super().__init__((child,), label=label)
        self.pairs: tuple[tuple[str, str], ...] = tuple(pairs)

    def params(self) -> dict[str, Any]:
        return {"pairs": self.pairs}

    def _rebuild(self, children, params):
        return Renaming(children[0], params["pairs"], label=self._label)

    def _mapping(self) -> dict[str, str]:
        return {old: new for new, old in self.pairs}

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        pairs = tuple(self._mapping().items())
        from_layout = Tup.from_layout
        return [from_layout(t.layout.rename(pairs), t.values()) for t in child_rows[0]]

    def kernel_key(self, ctx):
        return ("rho", self.pairs)

    def emit_kernel(self, kb, ctx):
        mapping = self._mapping()
        kb.set_cols(
            [(mapping.get(name, name), var) for name, var in kb.columns()]
        )

    def output_schema(self, child_schemas, db) -> TupleType:
        mapping = self._mapping()
        return TupleType(
            (mapping.get(name, name), field_type)
            for name, field_type in child_schemas[0].fields
        )

    def describe(self) -> str:
        inner = ", ".join(f"{new}←{old}" for new, old in self.pairs)
        return f"{self.label}[{inner}]"


class Selection(Operator):
    """Selection ``σ_θ``: keeps tuples satisfying the condition."""

    symbol = "σ"

    def __init__(self, child: Operator, pred: Expr, label: Optional[str] = None):
        super().__init__((child,), label=label)
        self.pred = pred

    def params(self) -> dict[str, Any]:
        return {"pred": self.pred}

    def _rebuild(self, children, params):
        return Selection(children[0], params["pred"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        pred = self.pred.compile()
        return [t for t in child_rows[0] if pred(t)]

    kernel_changes_cardinality = True

    def kernel_key(self, ctx):
        return ("sigma", self.pred)

    def emit_kernel(self, kb, ctx):
        cond = self.pred.emit_kernel(kb)
        kb.emit(f"if not ({cond}):")
        kb.emit("    continue")

    def output_schema(self, child_schemas, db) -> TupleType:
        return child_schemas[0]

    def describe(self) -> str:
        return f"{self.label}[{self.pred!r}]"


JOIN_TYPES = ("inner", "left", "right", "full")


class Join(Operator):
    """Equi-join variants ``⋈ / ⟕ / ⟖ / ⟗`` (``how`` selects the variant).

    ``on`` is a list of ``(left_path, right_path)`` pairs; ⊥ keys never match.
    ``extra`` is an optional residual predicate over the concatenated tuple.
    ``drop_right_keys`` removes the right-side key columns from the output
    (used when both sides share key attribute names).
    """

    symbol = "⋈"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        on: Sequence[tuple],
        how: str = "inner",
        extra: Optional[Expr] = None,
        drop_right_keys: bool = False,
        label: Optional[str] = None,
    ):
        super().__init__((left, right), label=label)
        if how not in JOIN_TYPES:
            raise ValueError(f"unknown join type {how!r}; expected one of {JOIN_TYPES}")
        self.on: tuple[tuple[Path, Path], ...] = tuple(
            (parse_path(l), parse_path(r)) for l, r in on
        )
        self.how = how
        self.extra = extra
        self.drop_right_keys = drop_right_keys

    def params(self) -> dict[str, Any]:
        return {
            "on": self.on,
            "how": self.how,
            "extra": self.extra,
            "drop_right_keys": self.drop_right_keys,
        }

    def _rebuild(self, children, params):
        return Join(
            children[0],
            children[1],
            params["on"],
            how=params["how"],
            extra=params["extra"],
            drop_right_keys=params["drop_right_keys"],
            label=self._label,
        )

    def _key(self, t: Tup, paths: Sequence[Path]) -> Optional[tuple]:
        key = tuple(t.get_path(p) for p in paths)
        if any(is_null(v) for v in key):
            return None
        return key

    def key_fns(self) -> "tuple[Callable[[Tup], Optional[tuple]], Callable[[Tup], Optional[tuple]]]":
        """Compiled (left, right) key functions; ⊥-containing keys map to None."""
        fns = getattr(self, "_compiled_keys", None)
        if fns is None:
            fns = (
                _compile_key(tuple(l for l, _ in self.on)),
                _compile_key(tuple(r for _, r in self.on)),
            )
            self._compiled_keys = fns
        return fns

    def _pad(self, schema: TupleType, drop: Iterable[str] = ()) -> Tup:
        dropped = set(drop)
        return Tup((name, NULL) for name, _ in schema.fields if name not in dropped)

    def _cached_pad(self, schema: TupleType) -> Tup:
        """The (drop-free) ⊥ pad row for *schema*, memoised per schema object.

        Outer joins need the pad once per :meth:`eval_keyed` call; schemas are
        stable across an execution, so a one-entry identity-checked cache
        avoids rebuilding the row per partition.
        """
        memo = getattr(self, "_compiled_pads", None)
        if memo is None:
            memo = {}
            self._compiled_pads = memo
        cached = memo.get(id(schema))
        if cached is not None and cached[0] is schema:
            return cached[1]
        pad = self._pad(schema)
        memo[id(schema)] = (schema, pad)  # holding schema keeps its id valid
        return pad

    def _right_drop(self) -> "frozenset[str]":
        drop = getattr(self, "_compiled_drop", None)
        if drop is None:
            if self.drop_right_keys:
                drop = frozenset(path[0] for _, path in self.on if len(path) == 1)
            else:
                drop = frozenset()
            self._compiled_drop = drop
        return drop

    def _combine(self, left_t: Tup, right_t: Tup) -> Tup:
        drop = self._right_drop()
        if drop:
            right_t = right_t.drop(drop)
        return left_t.concat(right_t)

    def _combiner(self, left_layout, right_layout):
        """A fused ``(left, right) → combined`` row builder for a layout pair.

        Equivalent to :meth:`_combine` but materializes one output ``Tup``
        per pair instead of an intermediate dropped right tuple; the combined
        layout and the kept right positions are resolved once per
        ``(left layout, right layout)`` pair and memoised (joins emit one
        output row per match, which makes this the hot constructor of the
        whole wide path).
        """
        memo = getattr(self, "_compiled_combiners", None)
        if memo is None:
            memo = {}
            self._compiled_combiners = memo
        fn = memo.get((left_layout, right_layout))
        if fn is None:
            drop = self._right_drop()
            if drop:
                kept, _, gather = right_layout.drop(tuple(sorted(drop)))
            else:
                kept, gather = right_layout, None
            combined = left_layout.concat(kept)
            mk = Tup.from_layout
            if gather is None:
                def fn(l, r):
                    return mk(combined, l._values + r._values)
            else:
                def fn(l, r):
                    return mk(combined, l._values + gather(r._values))
            memo[(left_layout, right_layout)] = fn
        return fn

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        left_key, right_key = self.key_fns()
        left_pairs = [(left_key(t), t) for t in child_rows[0]]
        right_pairs = [(right_key(t), t) for t in child_rows[1]]
        return self.eval_keyed(left_pairs, right_pairs, ctx)

    def eval_keyed(
        self,
        left_pairs: "list[tuple[Optional[tuple], Tup]]",
        right_pairs: "list[tuple[Optional[tuple], Tup]]",
        ctx,
    ) -> list[Tup]:
        """Hash join over rows with precomputed keys (None = ⊥, never matches).

        Used directly by the executor so shuffle keys are not recomputed
        inside each partition.
        """
        extra = self.extra.compile() if self.extra is not None else None
        combiner = self._combiner
        combiners: dict = {}
        out: list[Tup] = []
        if self.how == "inner":
            # Inner joins need no matched-side bookkeeping: index rows (not
            # positions) and emit straight off the probe loop.
            row_index: dict[tuple, list[Tup]] = {}
            for key, r in right_pairs:
                if key is not None:
                    members = row_index.get(key)
                    if members is None:
                        row_index[key] = [r]
                    else:
                        members.append(r)
            append = out.append
            cl = cr = fn = None
            for key, l in left_pairs:
                if key is None:
                    continue
                members = row_index.get(key)
                if members is None:
                    continue
                for r in members:
                    if l._layout is not cl or r._layout is not cr:
                        cl, cr = l._layout, r._layout
                        fn = combiners.get((cl, cr))
                        if fn is None:
                            fn = combiners[(cl, cr)] = combiner(cl, cr)
                    combined = fn(l, r)
                    if extra is not None and not extra(combined):
                        continue
                    append(combined)
            return out
        index: dict[tuple, list[int]] = {}
        for j, (key, _) in enumerate(right_pairs):
            if key is not None:
                positions = index.get(key)
                if positions is None:
                    index[key] = [j]
                else:
                    positions.append(j)
        matched_right: set[int] = set()
        right_pad = (
            self._cached_pad(ctx.schema_of(self.children[1]))
            if self.how in ("left", "full")
            else None
        )
        empty: tuple[int, ...] = ()
        cl = cr = fn = None  # one-entry layout-pair combiner cache (identity)
        pad_cl = pad_fn = None  # same, for the ⊥-padded rows
        for key, l in left_pairs:
            any_match = False
            for j in index.get(key, empty) if key is not None else empty:
                r = right_pairs[j][1]
                if l._layout is not cl or r._layout is not cr:
                    cl, cr = l._layout, r._layout
                    fn = combiners.get((cl, cr))
                    if fn is None:
                        fn = combiners[(cl, cr)] = combiner(cl, cr)
                combined = fn(l, r)
                if extra is not None and not extra(combined):
                    continue
                out.append(combined)
                matched_right.add(j)
                any_match = True
            if not any_match and right_pad is not None:
                if l._layout is not pad_cl:
                    pad_cl = l._layout
                    pad_fn = combiner(pad_cl, right_pad._layout)
                out.append(pad_fn(l, right_pad))
        if self.how in ("right", "full"):
            left_pad = self._cached_pad(ctx.schema_of(self.children[0]))
            pad_cr = pad_rfn = None
            for j, (_, r) in enumerate(right_pairs):
                if j not in matched_right:
                    if r._layout is not pad_cr:
                        pad_cr = r._layout
                        pad_rfn = combiner(left_pad._layout, pad_cr)
                    out.append(pad_rfn(left_pad, r))
        return out

    def output_schema(self, child_schemas, db) -> TupleType:
        left_schema, right_schema = child_schemas
        drop = self._right_drop()
        right_fields = [(n, t) for n, t in right_schema.fields if n not in drop]
        return left_schema.concat(TupleType(right_fields))

    def describe(self) -> str:
        cond = " ∧ ".join(f"{path_str(l)}={path_str(r)}" for l, r in self.on)
        how = {"inner": "⋈", "left": "⟕", "right": "⟖", "full": "⟗"}[self.how]
        return f"{self.label}[{how} {cond}]"


class TupleFlatten(Operator):
    """Tuple flatten ``F^T``: pulls a nested tuple (or one of its fields) up.

    With ``alias`` the value at *path* becomes a single new column (replacing
    an existing column of the same name, like Spark's ``withColumn``);
    without, the nested tuple's fields are concatenated onto the row.
    """

    symbol = "Fᵀ"

    def __init__(
        self,
        child: Operator,
        path: "str | Path",
        alias: Optional[str] = None,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.path = parse_path(path)
        self.alias = alias

    def params(self) -> dict[str, Any]:
        return {"path": self.path, "alias": self.alias}

    def _rebuild(self, children, params):
        return TupleFlatten(children[0], params["path"], params["alias"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        get_value = compile_path(self.path)
        out = []
        if self.alias is not None:
            alias = self.alias
            for t in child_rows[0]:
                out.append(t.with_attr(alias, get_value(t)))
            return out
        schema = ctx.schema_of(self.children[0])
        nested = _strict_resolve(schema, self.path)
        field_names = nested.names if isinstance(nested, TupleType) else ()
        null_pad = Tup((n, NULL) for n in field_names)
        for t in child_rows[0]:
            value = get_value(t)
            if is_null(value):
                out.append(t.concat(null_pad))
            elif isinstance(value, Tup):
                out.append(t.concat(value))
            else:
                raise TypeError(f"tuple flatten of non-tuple value {value!r} at {self.path}")
        return out

    def _kernel_field_names(self, ctx) -> tuple[str, ...]:
        nested = _strict_resolve(ctx.schema_of(self.children[0]), self.path)
        return nested.names if isinstance(nested, TupleType) else ()

    def kernel_key(self, ctx):
        if self.alias is not None:
            return ("ftup", self.path, self.alias)
        return ("ftup", self.path, None, self._kernel_field_names(ctx))

    def emit_kernel(self, kb, ctx):
        value = kb.capture(kb.path_value(self.path))
        if self.alias is not None:
            kb.replace_or_append(self.alias, value)
            return
        field_names = self._kernel_field_names(ctx)
        field_vars = [kb.tmp() for _ in field_names]
        layout_var = kb.bind(Layout.of(field_names))
        kb.emit(f"if {kb.null_test(value)}:")
        kb.indent += 1
        kb.emit(" = ".join(field_vars + ["_NULL"]) if field_vars else "pass")
        kb.indent -= 1
        kb.emit(f"elif isinstance({value}, _Tup) and {value}._layout is {layout_var}:")
        kb.indent += 1
        kb.emit(f"{', '.join(field_vars)}, = {value}._values" if field_vars else "pass")
        kb.indent -= 1
        kb.emit("else:")
        kb.indent += 1
        kb.emit("raise _Bailout")
        kb.indent -= 1
        for name, var in zip(field_names, field_vars):
            kb.append_col(name, var)

    def output_schema(self, child_schemas, db) -> TupleType:
        schema = child_schemas[0]
        nested = _strict_resolve(schema, self.path)
        if self.alias is not None:
            if schema.has_field(self.alias):
                return TupleType(
                    (n, nested if n == self.alias else t) for n, t in schema.fields
                )
            return schema.concat(TupleType([(self.alias, nested)]))
        if not isinstance(nested, TupleType):
            raise TypeError(f"tuple flatten target {path_str(self.path)} is not tuple-typed")
        return schema.concat(nested)

    def describe(self) -> str:
        target = f"{self.alias}←" if self.alias else ""
        return f"{self.label}[{target}{path_str(self.path)}]"


class RelationFlatten(Operator):
    """Relation flatten ``F^I`` (inner) / ``F^O`` (outer) of a bag attribute.

    Each element of the bag at *path* is either concatenated onto the row
    (``alias=None``; element must be a tuple) or placed into a single new
    column *alias*.  The outer variant pads rows whose bag is empty or ⊥ with
    nulls; the inner variant drops them (the D2/T1 failure mode in the paper).
    """

    symbol = "F"

    def __init__(
        self,
        child: Operator,
        path: "str | Path",
        alias: Optional[str] = None,
        outer: bool = False,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.path = parse_path(path)
        self.alias = alias
        self.outer = outer

    @property
    def symbol_typed(self) -> str:
        """Display symbol with the inner/outer variant made explicit."""
        return "Fᴼ" if self.outer else "Fᴵ"

    def params(self) -> dict[str, Any]:
        return {"path": self.path, "alias": self.alias, "outer": self.outer}

    def _rebuild(self, children, params):
        return RelationFlatten(
            children[0],
            params["path"],
            alias=params["alias"],
            outer=params["outer"],
            label=self._label,
        )

    def _element_fields(self, ctx: EvalContext) -> tuple[str, ...]:
        schema = ctx.schema_of(self.children[0])
        bag_type = _strict_resolve(schema, self.path)
        if isinstance(bag_type, BagType) and isinstance(bag_type.element, TupleType):
            return bag_type.element.names
        return ()

    def _pad(self, ctx: EvalContext) -> Tup:
        pads = getattr(self, "_compiled_pads", None)
        if pads is None:
            pads = self._compiled_pads = {}
        if self.alias is not None:
            names: tuple[str, ...] = (self.alias,)
        else:
            names = self._element_fields(ctx)
        pad = pads.get(names)
        if pad is None:
            pad = pads[names] = Tup.from_layout(Layout.of(names), (NULL,) * len(names))
        return pad

    def _alias_layout(self) -> Layout:
        layout = getattr(self, "_compiled_alias_layout", None)
        if layout is None:
            layout = self._compiled_alias_layout = Layout.of((self.alias,))
        return layout

    def expand(self, t: Tup, ctx: EvalContext) -> tuple[list[Tup], bool]:
        """All flattened successors of *t* plus whether padding was used.

        Shared with the tracing module, which always runs the outer variant.
        """
        value = compile_path(self.path)(t)
        if is_null(value) or (isinstance(value, Bag) and value.is_empty()):
            return [t.concat(self._pad(ctx))], True
        if not isinstance(value, Bag):
            raise TypeError(
                f"relation flatten of non-bag value {value!r} at {path_str(self.path)}"
            )
        out = []
        if self.alias is not None:
            alias_layout = self._alias_layout()
            from_layout = Tup.from_layout
            for element in value:
                out.append(t.concat(from_layout(alias_layout, (element,))))
            return out, False
        for element in value:
            if isinstance(element, Tup):
                out.append(t.concat(element))
            else:
                raise TypeError(
                    "relation flatten without alias requires tuple elements; "
                    f"got {element!r}"
                )
        return out, False

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        get_value = compile_path(self.path)
        outer = self.outer
        alias_layout = self._alias_layout() if self.alias is not None else None
        from_layout = Tup.from_layout
        pad = None
        out: list[Tup] = []
        for t in child_rows[0]:
            value = get_value(t)
            if is_null(value) or (isinstance(value, Bag) and value.is_empty()):
                if outer:
                    if pad is None:
                        pad = self._pad(ctx)
                    out.append(t.concat(pad))
                continue
            if not isinstance(value, Bag):
                raise TypeError(
                    f"relation flatten of non-bag value {value!r} at {path_str(self.path)}"
                )
            if alias_layout is not None:
                for element in value:
                    out.append(t.concat(from_layout(alias_layout, (element,))))
            else:
                for element in value:
                    if not isinstance(element, Tup):
                        raise TypeError(
                            "relation flatten without alias requires tuple elements; "
                            f"got {element!r}"
                        )
                    out.append(t.concat(element))
        return out

    kernel_changes_cardinality = True

    def kernel_key(self, ctx):
        names = (self.alias,) if self.alias is not None else self._element_fields(ctx)
        return ("frel", self.path, self.alias, self.outer, names)

    def emit_kernel(self, kb, ctx):
        value = kb.capture(kb.path_value(self.path))
        seq = kb.tmp()
        if self.alias is not None:
            pad_element: Any = NULL
        else:
            pad_names = self._element_fields(ctx)
            pad_element = Tup.from_layout(
                Layout.of(pad_names), (NULL,) * len(pad_names)
            )
        kb.emit(
            f"if {kb.null_test(value)}"
            f" or (isinstance({value}, _Bag) and {value}.is_empty()):"
        )
        kb.indent += 1
        if self.outer:
            kb.emit(f"{seq} = {kb.bind((pad_element,))}")
        else:
            kb.emit("continue")
        kb.indent -= 1
        kb.emit(f"elif isinstance({value}, _Bag):")
        kb.indent += 1
        kb.emit(f"{seq} = {value}")
        kb.indent -= 1
        kb.emit("else:")
        kb.indent += 1
        kb.emit("raise _Bailout")
        kb.indent -= 1
        elem = kb.tmp()
        kb.emit(f"for {elem} in {seq}:")
        kb.indent += 1  # stays raised: the rest of the chain runs per element
        if self.alias is not None:
            kb.append_col(self.alias, elem)
            return
        names = self._element_fields(ctx)
        layout_var = kb.bind(Layout.of(names))
        kb.emit(
            f"if not (isinstance({elem}, _Tup) and {elem}._layout is {layout_var}):"
        )
        kb.indent += 1
        kb.emit("raise _Bailout")
        kb.indent -= 1
        field_vars = [kb.tmp() for _ in names]
        if field_vars:
            kb.emit(f"{', '.join(field_vars)}, = {elem}._values")
        for name, var in zip(names, field_vars):
            kb.append_col(name, var)

    def output_schema(self, child_schemas, db) -> TupleType:
        schema = child_schemas[0]
        bag_type = _strict_resolve(schema, self.path)
        if self.alias is not None:
            element = bag_type.element if isinstance(bag_type, BagType) else AnyType()
            return schema.concat(TupleType([(self.alias, element)]))
        if isinstance(bag_type, BagType) and isinstance(bag_type.element, TupleType):
            return schema.concat(bag_type.element)
        raise TypeError(
            f"relation flatten target {path_str(self.path)} is not a bag of tuples"
        )

    def describe(self) -> str:
        target = f"{self.alias}←" if self.alias else ""
        return f"{self.label}[{self.symbol_typed} {target}{path_str(self.path)}]"


def InnerFlatten(
    child: Operator, path: "str | Path", alias: Optional[str] = None, label: Optional[str] = None
) -> RelationFlatten:
    """Relation inner flatten ``F^I_A`` (Table 1)."""
    return RelationFlatten(child, path, alias=alias, outer=False, label=label)


def OuterFlatten(
    child: Operator, path: "str | Path", alias: Optional[str] = None, label: Optional[str] = None
) -> RelationFlatten:
    """Relation outer flatten ``F^O_A`` (Table 1)."""
    return RelationFlatten(child, path, alias=alias, outer=True, label=label)


class TupleNesting(Operator):
    """Tuple nesting ``N^T_{A→C}``: packs attributes A into a tuple column C."""

    symbol = "Nᵀ"

    def __init__(
        self,
        child: Operator,
        attrs: Sequence[str],
        target: str,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.attrs = tuple(attrs)
        self.target = target

    def params(self) -> dict[str, Any]:
        return {"attrs": self.attrs, "target": self.target}

    def _rebuild(self, children, params):
        return TupleNesting(children[0], params["attrs"], params["target"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        attrs = self.attrs
        target_layout = Layout.of((self.target,))
        from_layout = Tup.from_layout
        return [
            t.drop(attrs).concat(from_layout(target_layout, (t.project(attrs),)))
            for t in child_rows[0]
        ]

    def kernel_key(self, ctx):
        return ("ntup", self.attrs, self.target)

    def emit_kernel(self, kb, ctx):
        proj_layout = kb.bind(Layout.of(self.attrs))
        vars_ = [kb.col(name) for name in self.attrs]
        inner = ", ".join(vars_) + ("," if vars_ else "")
        nested = kb.capture(f"_mk({proj_layout}, ({inner}))")
        kb.drop_cols(self.attrs)
        kb.append_col(self.target, nested)

    def output_schema(self, child_schemas, db) -> TupleType:
        schema = child_schemas[0]
        nested = schema.project(self.attrs)
        return schema.drop(self.attrs).concat(TupleType([(self.target, nested)]))

    def describe(self) -> str:
        return f"{self.label}[{','.join(self.attrs)}→{self.target}]"


class RelationNesting(Operator):
    """Relation nesting ``N^R_{A→C}``: groups on the remaining attributes M and
    nests the projections on A into a bag column C (Table 1)."""

    symbol = "Nᴿ"

    def __init__(
        self,
        child: Operator,
        attrs: Sequence[str],
        target: str,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.attrs = tuple(attrs)
        self.target = target

    def params(self) -> dict[str, Any]:
        return {"attrs": self.attrs, "target": self.target}

    def _rebuild(self, children, params):
        return RelationNesting(
            children[0], params["attrs"], params["target"], label=self._label
        )

    def group_key(self, t: Tup) -> Tup:
        """The group key of one row: the tuple without the nested attributes."""
        return t.drop(self.attrs)

    def key_fn(self) -> Callable[[Tup], Tup]:
        """The (already layout-cached) shuffle/group key function."""
        return self.group_key

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        attrs = self.attrs
        return self.eval_keyed([(t.drop(attrs), t) for t in child_rows[0]], ctx)

    def eval_keyed(self, pairs: "list[tuple[Tup, Tup]]", ctx) -> list[Tup]:
        """Group rows by precomputed keys and nest the projections on A."""
        attrs = self.attrs
        # Same C-level ``(layout, values)`` grouping as GroupAggregation:
        # interned layouts make it exactly ``Tup`` equality without the
        # per-row Python ``__hash__`` call.
        groups: "dict[tuple, tuple[Tup, list[Tup]]]" = {}
        for key, t in pairs:
            entry = groups.get((key._layout, key._values))
            if entry is None:
                groups[(key._layout, key._values)] = (key, [t.project(attrs)])
            else:
                entry[1].append(t.project(attrs))
        target_layout = Layout.of((self.target,))
        from_layout = Tup.from_layout
        return [
            key.concat(from_layout(target_layout, (Bag(members),)))
            for key, members in groups.values()
        ]

    def output_schema(self, child_schemas, db) -> TupleType:
        schema = child_schemas[0]
        nested = BagType(schema.project(self.attrs))
        return schema.drop(self.attrs).concat(TupleType([(self.target, nested)]))

    def describe(self) -> str:
        return f"{self.label}[{','.join(self.attrs)}→{self.target}]"


class NestedAggregation(Operator):
    """Per-tuple aggregation ``γ_{f(A)→B}`` over a nested relation attribute
    (the Table-1 form, e.g. D2's ``count(ctitle)→cnt``).

    *field* selects a field of the nested tuples; when omitted, unary nested
    tuples are unwrapped automatically and ``count`` counts elements.
    """

    symbol = "γ"

    def __init__(
        self,
        child: Operator,
        func: str,
        attr: "str | Path",
        out: str,
        field: Optional[str] = None,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.func = func
        self.attr = parse_path(attr)
        self.out = out
        self.field = field

    def params(self) -> dict[str, Any]:
        return {"func": self.func, "attr": self.attr, "out": self.out, "field": self.field}

    def _rebuild(self, children, params):
        return NestedAggregation(
            children[0],
            params["func"],
            params["attr"],
            params["out"],
            field=params["field"],
            label=self._label,
        )

    def aggregate_value(self, t: Tup) -> Any:
        """The aggregate over one row's nested relation (shared with tracing)."""
        return self.aggregate_bag(compile_path(self.attr)(t))

    def aggregate_bag(self, bag: Any) -> Any:
        """The aggregate over one nested-relation value (⊥ counts as empty)."""
        if is_null(bag):
            elements: list[Any] = []
        elif isinstance(bag, Bag):
            elements = list(bag)
        else:
            raise TypeError(f"nested aggregation over non-bag value {bag!r}")
        values = []
        for element in elements:
            if self.field is not None and isinstance(element, Tup):
                values.append(element.get(self.field, NULL))
            elif self.func != "count" and isinstance(element, Tup) and len(element) == 1:
                values.append(element.values()[0])
            else:
                values.append(element)
        return apply_aggregate(self.func, values)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        return [t.with_attr(self.out, self.aggregate_value(t)) for t in child_rows[0]]

    def kernel_key(self, ctx):
        return ("gamma_nest", self.func, self.attr, self.out, self.field)

    def emit_kernel(self, kb, ctx):
        agg = kb.bind(self.aggregate_bag)
        value = kb.capture(f"{agg}({kb.path_value(self.attr)})")
        kb.replace_or_append(self.out, value)

    def output_schema(self, child_schemas, db) -> TupleType:
        from repro.nested.types import FLOAT, INT

        schema = child_schemas[0]
        out_type = INT if self.func == "count" else FLOAT
        if schema.has_field(self.out):
            return TupleType((n, out_type if n == self.out else t) for n, t in schema.fields)
        return schema.concat(TupleType([(self.out, out_type)]))

    def describe(self) -> str:
        field = f".{self.field}" if self.field else ""
        return f"{self.label}[{self.func}({path_str(self.attr)}{field})→{self.out}]"


class GroupAggregation(Operator):
    """Group-by aggregation (derived operator used by the TPC-H scenarios).

    ``keys`` lists grouping attributes — either plain names or
    ``(out_name, source_path)`` pairs.  The pair form lets a
    reparameterization change the grouped-on attribute (Table 2's nesting
    rule) while the output attribute name — fixed by definition — stays put.
    ``aggs`` are :class:`AggSpec` columns.  An empty key list yields a single
    global row (also on empty input, with SQL semantics: counts 0, value
    aggregates ⊥).
    """

    symbol = "γ"

    def __init__(
        self,
        child: Operator,
        keys: Sequence,
        aggs: Sequence[AggSpec],
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        specs: list[tuple[str, Path]] = []
        for key in keys:
            if isinstance(key, str):
                specs.append((key, (key,)))
            else:
                out, src = key
                specs.append((out, parse_path(src)))
        self.key_specs: tuple[tuple[str, Path], ...] = tuple(specs)
        self.aggs = tuple(aggs)

    @property
    def keys(self) -> tuple[str, ...]:
        """Output names of the grouping attributes."""
        return tuple(out for out, _ in self.key_specs)

    def key_fn(self) -> Callable[[Tup], Tup]:
        """Compiled group-key function (interned key layout, path getters)."""
        fn = getattr(self, "_compiled_key", None)
        if fn is None:
            layout = Layout.of(out for out, _ in self.key_specs)
            getters = tuple(compile_path(src) for _, src in self.key_specs)
            from_layout = Tup.from_layout

            def fn(t: Tup) -> Tup:
                return from_layout(layout, tuple(g(t) for g in getters))

            self._compiled_key = fn
        return fn

    def key_tuple(self, t: Tup) -> Tup:
        """The group key of one row (output names, source values)."""
        return self.key_fn()(t)

    def params(self) -> dict[str, Any]:
        return {"keys": self.key_specs, "aggs": self.aggs}

    def _rebuild(self, children, params):
        return GroupAggregation(children[0], params["keys"], params["aggs"], label=self._label)

    def _agg_plan(self) -> "tuple[tuple[str, str, bool, Optional[Callable]], ...]":
        plan = getattr(self, "_compiled_aggs", None)
        if plan is None:
            plan = tuple(
                (
                    spec.out,
                    spec.func,
                    spec.distinct,
                    None if spec.expr is None else spec.expr.compile(),
                )
                for spec in self.aggs
            )
            self._compiled_aggs = plan
        return plan

    def aggregate_group(self, rows: list[Tup]) -> list[tuple[str, Any]]:
        """``(name, value)`` aggregate columns for one group's rows."""
        out = []
        for name, func, distinct, fn in self._agg_plan():
            if fn is None:
                out.append((name, len(rows)))
            else:
                out.append((name, apply_aggregate(func, [fn(t) for t in rows], distinct)))
        return out

    def aggregate_tuple(self, rows: list[Tup]) -> Tup:
        """Like :meth:`aggregate_group` but returns an interned-layout row."""
        layout = getattr(self, "_compiled_agg_layout", None)
        if layout is None:
            layout = self._compiled_agg_layout = Layout.of(
                spec.out for spec in self.aggs
            )
        values = []
        for _, func, distinct, fn in self._agg_plan():
            if fn is None:
                values.append(len(rows))
            else:
                values.append(apply_aggregate(func, [fn(t) for t in rows], distinct))
        return Tup.from_layout(layout, tuple(values))

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        rows = child_rows[0]
        if not self.key_specs:
            return [self.aggregate_tuple(rows)]
        key_fn = self.key_fn()
        return self.eval_keyed([(key_fn(t), t) for t in rows], ctx)

    def eval_keyed(self, pairs: "list[tuple[Tup, Tup]]", ctx) -> list[Tup]:
        """Group rows by precomputed keys and aggregate each group."""
        # Group on ``(layout, values)`` instead of the key ``Tup``: layouts
        # are interned, so this is exactly ``Tup`` equality/hashing but stays
        # in C-level tuple hashing instead of calling ``Tup.__hash__`` per
        # row.  The first-seen key tuple represents its group, as before.
        groups: "dict[tuple, tuple[Tup, list[Tup]]]" = {}
        for key, t in pairs:
            entry = groups.get((key._layout, key._values))
            if entry is None:
                groups[(key._layout, key._values)] = (key, [t])
            else:
                entry[1].append(t)
        # Fused output construction: equivalent to
        # ``key.concat(self.aggregate_tuple(members))`` without the
        # intermediate aggregate tuple (one output row per group is the hot
        # constructor of the aggregation path).
        agg_layout = getattr(self, "_compiled_agg_layout", None)
        if agg_layout is None:
            agg_layout = self._compiled_agg_layout = Layout.of(
                spec.out for spec in self.aggs
            )
        plan = self._agg_plan()
        mk = Tup.from_layout
        out: list[Tup] = []
        ckl = cout = None  # one-entry key-layout → output-layout cache
        for key, members in groups.values():
            values = []
            for _, func, distinct, fn in plan:
                if fn is None:
                    values.append(len(members))
                elif func == "count" and not distinct:
                    # len([v if not null]) without the intermediate list; the
                    # null test is inlined (one Python call per row saved).
                    n = 0
                    for t in members:
                        v = fn(t)
                        if v is not None and type(v) is not _NULL_TYPE:
                            n += 1
                    values.append(n)
                else:
                    values.append(
                        apply_aggregate(func, [fn(t) for t in members], distinct)
                    )
            if key._layout is not ckl:
                ckl = key._layout
                cout = ckl.concat(agg_layout)
            out.append(mk(cout, key._values + tuple(values)))
        return out

    def output_schema(self, child_schemas, db) -> TupleType:
        from repro.algebra.schema import expr_type
        from repro.nested.types import FLOAT, INT

        schema = child_schemas[0]
        fields: list[tuple[str, Any]] = [
            (out, expr_type(Attr(src), schema)) for out, src in self.key_specs
        ]
        for spec in self.aggs:
            if spec.func == "count":
                fields.append((spec.out, INT))
            elif spec.expr is not None:
                fields.append((spec.out, expr_type(spec.expr, schema)))
            else:
                fields.append((spec.out, FLOAT))
        return TupleType(fields)

    def describe(self) -> str:
        keys = ",".join(
            out if (out,) == src else f"{out}←{path_str(src)}"
            for out, src in self.key_specs
        )
        aggs = ",".join(spec.label() for spec in self.aggs)
        prefix = f"{keys}; " if keys else ""
        return f"{self.label}[{prefix}{aggs}]"


class Union(Operator):
    """Additive union ``R ∪ S`` (multiplicities add)."""

    symbol = "∪"

    def __init__(self, left: Operator, right: Operator, label: Optional[str] = None):
        super().__init__((left, right), label=label)

    def params(self) -> dict[str, Any]:
        return {}

    def _rebuild(self, children, params):
        return Union(children[0], children[1], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        return list(child_rows[0]) + list(child_rows[1])

    def output_schema(self, child_schemas, db) -> TupleType:
        return child_schemas[0]


class Difference(Operator):
    """Bag difference ``R − S`` (multiplicities subtract, floored at 0)."""

    symbol = "−"

    def __init__(self, left: Operator, right: Operator, label: Optional[str] = None):
        super().__init__((left, right), label=label)

    def params(self) -> dict[str, Any]:
        return {}

    def _rebuild(self, children, params):
        return Difference(children[0], children[1], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        remaining = Bag(child_rows[1])
        counts: dict[Tup, int] = {}
        out: list[Tup] = []
        for t in child_rows[0]:
            counts[t] = counts.get(t, 0) + 1
            if counts[t] > remaining.mult(t):
                out.append(t)
        return out

    def output_schema(self, child_schemas, db) -> TupleType:
        return child_schemas[0]


class Deduplication(Operator):
    """Duplicate elimination: every multiplicity becomes 1."""

    symbol = "δ"

    def __init__(self, child: Operator, label: Optional[str] = None):
        super().__init__((child,), label=label)

    def params(self) -> dict[str, Any]:
        return {}

    def _rebuild(self, children, params):
        return Deduplication(children[0], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        seen: dict[Tup, None] = {}
        for t in child_rows[0]:
            seen.setdefault(t, None)
        return list(seen)

    def output_schema(self, child_schemas, db) -> TupleType:
        return child_schemas[0]


class CartesianProduct(Operator):
    """Cartesian product ``R × S``."""

    symbol = "×"

    def __init__(self, left: Operator, right: Operator, label: Optional[str] = None):
        super().__init__((left, right), label=label)

    def params(self) -> dict[str, Any]:
        return {}

    def _rebuild(self, children, params):
        return CartesianProduct(children[0], children[1], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        return [l.concat(r) for l in child_rows[0] for r in child_rows[1]]

    def output_schema(self, child_schemas, db) -> TupleType:
        return child_schemas[0].concat(child_schemas[1])


class Map(Operator):
    """Restructuring ``map_f``: applies an arbitrary tuple→tuple function.

    Part of NRAB₀; kept for completeness and for the hardness discussion
    (Thm. 1).  The heuristic algorithm does not trace through map.
    ``out_schema`` must be provided for schema inference.
    """

    symbol = "map"

    def __init__(
        self,
        child: Operator,
        fn: Callable[[Tup], Tup],
        out_schema: Optional[TupleType] = None,
        label: Optional[str] = None,
    ):
        super().__init__((child,), label=label)
        self.fn = fn
        self.out_schema = out_schema

    def params(self) -> dict[str, Any]:
        return {"fn": self.fn, "out_schema": self.out_schema}

    def _rebuild(self, children, params):
        return Map(children[0], params["fn"], params["out_schema"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        return [self.fn(t) for t in child_rows[0]]

    def output_schema(self, child_schemas, db) -> TupleType:
        return self.out_schema if self.out_schema is not None else child_schemas[0]


class BagDestroy(Operator):
    """Bag-destroy ``δ`` of NRAB₀: unions the bags held by a single bag-typed
    attribute (one nesting level removed)."""

    symbol = "bd"

    def __init__(self, child: Operator, attr: str, label: Optional[str] = None):
        super().__init__((child,), label=label)
        self.attr = attr

    def params(self) -> dict[str, Any]:
        return {"attr": self.attr}

    def _rebuild(self, children, params):
        return BagDestroy(children[0], params["attr"], label=self._label)

    def eval_rows(self, child_rows, ctx) -> list[Tup]:
        out: list[Tup] = []
        for t in child_rows[0]:
            bag = t[self.attr]
            if is_null(bag):
                continue
            for element in bag:
                if not isinstance(element, Tup):
                    element = Tup([(self.attr, element)])
                out.append(element)
        return out

    def output_schema(self, child_schemas, db) -> TupleType:
        bag_type = child_schemas[0].field(self.attr)
        if isinstance(bag_type, BagType) and isinstance(bag_type.element, TupleType):
            return bag_type.element
        return TupleType([(self.attr, AnyType())])


class Query:
    """A query plan: an operator tree with stable operator identifiers.

    Identifiers are assigned in deterministic post-order (children first,
    leftmost first), so a reparameterized query — same structure, different
    parameters — keeps every operator's identity (paper Def. 7).
    """

    def __init__(self, root: Operator, name: str = ""):
        self.root = root
        self.name = name
        self.ops: list[Operator] = []
        self._collect(root)
        for i, op in enumerate(self.ops):
            op.op_id = i + 1

    def _collect(self, op: Operator) -> None:
        for child in op.children:
            self._collect(child)
        self.ops.append(op)

    def op(self, op_id: int) -> Operator:
        """The operator with the given (1-based, plan-order) id."""
        return self.ops[op_id - 1]

    def op_by_label(self, label: str) -> Operator:
        """The operator carrying the given display label (KeyError: none)."""
        for op in self.ops:
            if op.label == label:
                return op
        raise KeyError(f"no operator labelled {label!r}")

    def infer_schemas(self, db) -> dict[int, TupleType]:
        """Row schema (TupleType) of every operator's output.

        Cached for the most recent database (single entry, so a long-lived
        query doesn't pin every database it was ever evaluated against):
        schema inference is pure in the query parameters (immutable once
        built) and the database's table schemas, whose staleness the
        database's ``version`` counter tracks.
        """
        version = getattr(db, "version", None)
        entry = getattr(self, "_schema_cache", None)
        if entry is not None and entry[0] is db and entry[1] == version:
            return entry[2]
        schemas: dict[int, TupleType] = {}
        for op in self.ops:
            child_schemas = [schemas[c.op_id] for c in op.children]
            schemas[op.op_id] = op.output_schema(child_schemas, db)
        self._schema_cache = (db, version, schemas)
        return schemas

    def evaluate(self, db) -> Bag:
        """Evaluate the plan over *db*, returning the result bag."""
        ctx = EvalContext(db, self.infer_schemas(db))
        cache: dict[int, list[Tup]] = {}
        for op in self.ops:
            child_rows = [cache[c.op_id] for c in op.children]
            cache[op.op_id] = op.eval_rows(child_rows, ctx)
        return Bag(cache[self.root.op_id])

    def evaluate_rows(self, db) -> list[Tup]:
        """Like :meth:`evaluate` but returns the raw row list."""
        return list(self.evaluate(db))

    def reparameterize(self, changes: Mapping[int, Mapping[str, Any]]) -> "Query":
        """A structurally identical query with parameters changed per op id."""

        def rebuild(op: Operator) -> Operator:
            children = [rebuild(c) for c in op.children]
            if op.op_id in changes:
                params = op.params()
                params.update(changes[op.op_id])
                return op._rebuild(children, params)
            return op.clone(children)

        return Query(rebuild(self.root), name=self.name)

    def delta(self, other: "Query") -> frozenset[int]:
        """Δ(Q, Q′): ids of operators whose parameters differ (Def. 9)."""
        if len(self.ops) != len(other.ops):
            raise ValueError("queries are not structurally identical")
        changed = set()
        for mine, theirs in zip(self.ops, other.ops):
            if type(mine) is not type(theirs):
                raise ValueError("queries are not structurally identical")
            if mine.params() != theirs.params():
                changed.add(mine.op_id)
        return frozenset(changed)

    def describe(self) -> str:
        """One line per operator (plan order) with child-id references."""
        lines = [f"Query {self.name or '(unnamed)'}"]
        for op in self.ops:
            child_ids = ",".join(str(c.op_id) for c in op.children)
            lines.append(f"  #{op.op_id} {op.describe()}" + (f" ← [{child_ids}]" if child_ids else ""))
        return "\n".join(lines)

    def explain_plan(self, annotate: bool = False) -> str:
        """Render the operator tree as an indented plan (root at the top).

        With ``annotate=True``, operators rewritten by the logical optimizer
        (:mod:`repro.engine.optimizer`) show the rules that touched them and
        the user-plan operator ids they derive from (``⟵ #i``); synthesized
        operators are marked ``⟵ new``.  The output is deterministic, so the
        renderings quoted in ``docs/OPTIMIZER.md`` are verified verbatim by
        ``tests/test_docs.py``.
        """
        lines = [f"Query {self.name or '(unnamed)'}"]

        def annotation(op: Operator) -> str:
            rules = getattr(op, "_rules", ())
            if not annotate or (not rules and op.origins == (op.op_id,)):
                return ""
            source = (
                " ".join(f"#{i}" for i in op.origins) if op.origins else "new"
            )
            inner = f"⟵ {source}"
            if rules:
                inner += f"; {', '.join(rules)}"
            return f"   [{inner}]"

        def walk(op: Operator, prefix: str, tail: bool, top: bool) -> None:
            if top:
                connector, child_prefix = "", ""
            else:
                connector = "└─ " if tail else "├─ "
                child_prefix = prefix + ("   " if tail else "│  ")
            lines.append(f"{prefix}{connector}#{op.op_id} {op.describe()}{annotation(op)}")
            for i, child in enumerate(op.children):
                walk(child, child_prefix, i == len(op.children) - 1, False)

        walk(self.root, "", True, True)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Query({self.root.describe()}, ops={len(self.ops)})"
