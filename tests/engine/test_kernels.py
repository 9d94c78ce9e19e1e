"""Kernel code generator: golden source, caching, bailouts, stats parity.

The columnar engine's contract is bit-equivalence with the row path — the
broad equivalence nets live in ``test_backends.py`` (all scenarios × both
engines) and the differential fuzzer; this module pins the mechanisms that
make it hold: the generated source itself (golden snapshot), the semantic
cache keying, the row-path fallbacks (unsupported operators, heterogeneous
layouts, error parity), and the per-operator stats shape.
"""

import textwrap

import pytest

from repro.algebra.expressions import col
from repro.algebra.operators import (
    EvalContext,
    Map,
    Projection,
    Query,
    RelationFlatten,
    Selection,
    TableAccess,
)
from repro.engine.columnar import (
    default_engine,
    kernel_chain,
    new_kernel_info,
    resolve_engine,
)
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.kernels import (
    build_kernel,
    chain_kernel,
    kernel_cache_clear,
    kernel_source,
)
from repro.nested.values import Bag, Layout, Tup


def _chain_parts(query, db):
    """(non-source ops, EvalContext) for a single-chain plan over *db*."""
    ctx = EvalContext(db, query.infer_schemas(db))
    ops = [op for op in query.ops if not isinstance(op, TableAccess)]
    return ops, ctx


def make_db():
    return Database({"R": [Tup(k=i % 3, v=i, w=str(i)) for i in range(12)]})


# -- engine knob --------------------------------------------------------------


def test_engine_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "row"
    assert resolve_engine(None) == "row"
    assert resolve_engine("columnar") == "columnar"
    monkeypatch.setenv("REPRO_ENGINE", "columnar")
    assert default_engine() == "columnar"
    monkeypatch.setenv("REPRO_ENGINE", "vectorized")
    with pytest.raises(ValueError):
        default_engine()
    with pytest.raises(ValueError):
        resolve_engine("vectorized")


# -- golden generated source --------------------------------------------------


def test_kernel_source_golden():
    """Pin the generated source for a σ→π chain (the codegen contract).

    Deliberate golden snapshot: column lists are extracted only for used
    columns, ⊥/None and the TypeError→False comparison semantics are inlined,
    and the final projection rebuilds tuples through the interned layout.
    Update alongside intentional codegen changes — the shape is documented in
    ``docs/KERNELS.md``.
    """
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    ops, ctx = _chain_parts(query, db)
    expected = textwrap.dedent(
        """\
        def _kernel(rows):
            _out = []
            _append = _out.append
            _l0 = [_r._values[0] for _r in rows]
            _l1 = [_r._values[1] for _r in rows]
            for _c0_, _c1_ in zip(_l0, _l1):
                _t1_ = 2
                if _c1_ is _NULL or _c1_ is None or _t1_ is _NULL or _t1_ is None:
                    _t2_ = False
                else:
                    try:
                        _t2_ = _c1_ >= _t1_
                    except TypeError:
                        _t2_ = False
                if not (_t2_):
                    continue
                _append(_mk(_g0, (_c0_, _c1_,)))
            return _out, ()
        """
    )
    assert kernel_source(ops, Layout.of(("k", "v", "w")), ctx) == expected


def test_kernel_runs_and_matches_row_path():
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    ops, ctx = _chain_parts(query, db)
    rows = list(db.relation("R"))
    kernel = build_kernel(ops, rows[0].layout, ctx)
    out, stats = kernel.run(rows, ops)
    expected = query.evaluate(db)
    assert Bag(out) == expected
    # Stats mirror the row path's (op_id, n_in, n_out, seconds) tuples.
    assert [(s[0], s[1], s[2]) for s in stats] == [
        (ops[0].op_id, 12, 10),
        (ops[1].op_id, 10, 10),
    ]
    assert all(s[3] >= 0.0 for s in stats)


def test_kernel_cardinality_counters_mid_chain():
    """A cardinality-changing op that is not last still reports exact counts."""
    db = Database(
        {
            "N": [
                Tup(g=1, xs=Bag([Tup(x=1), Tup(x=2)])),
                Tup(g=2, xs=Bag([])),
                Tup(g=3, xs=Bag([Tup(x=7)])),
            ]
        }
    )
    query = Query(
        Projection(RelationFlatten(TableAccess("N"), "xs", alias="x"), ["g", "x"])
    )
    ops, ctx = _chain_parts(query, db)
    rows = list(db.relation("N"))
    kernel = build_kernel(ops, rows[0].layout, ctx)
    out, stats = kernel.run(rows, ops)
    assert Bag(out) == query.evaluate(db)
    assert [(s[1], s[2]) for s in stats] == [(3, 3), (3, 3)]


# -- caching ------------------------------------------------------------------


def test_chain_kernel_semantic_cache():
    """Fresh-but-equal plans hit the cache; the first build is a miss."""
    kernel_cache_clear()
    db = make_db()

    def fresh():
        query = Query(
            Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
        )
        return _chain_parts(query, db)

    layout = Layout.of(("k", "v", "w"))
    ops, ctx = fresh()
    info = new_kernel_info()
    first = chain_kernel(ops, layout, ctx, info)
    assert first is not None
    assert info["misses"] == 1 and info["hits"] == 0
    assert info["codegen_seconds"] > 0.0
    ops2, ctx2 = fresh()
    info2 = new_kernel_info()
    assert chain_kernel(ops2, layout, ctx2, info2) is first
    assert info2["hits"] == 1 and info2["misses"] == 0
    assert info2["codegen_seconds"] == 0.0


def test_unsupported_operator_falls_back():
    """A chain with an un-lowerable operator always takes the row path.

    ``Map`` has no kernel hooks, so its key never builds — every call is a
    cheap miss that skips codegen entirely (nothing is even attempted, hence
    no negative entry and zero codegen seconds).
    """
    kernel_cache_clear()
    db = make_db()
    query = Query(Map(TableAccess("R"), lambda t: t))
    ops, ctx = _chain_parts(query, db)
    layout = Layout.of(("k", "v", "w"))
    for _ in range(2):
        info = new_kernel_info()
        assert chain_kernel(ops, layout, ctx, info) is None
        assert info["misses"] == 1 and info["hits"] == 0
        assert info["codegen_seconds"] == 0.0


def test_failed_build_negative_cached(monkeypatch):
    """A chain whose key builds but whose codegen fails is cached as None."""
    import repro.engine.kernels as kernels_module

    kernel_cache_clear()
    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(2)))
    ops, ctx = _chain_parts(query, db)
    layout = Layout.of(("k", "v", "w"))

    def broken_build(*args, **kwargs):
        raise RuntimeError("simulated codegen failure")

    monkeypatch.setattr(kernels_module, "build_kernel", broken_build)
    info = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info) is None
    assert info["misses"] == 1
    monkeypatch.undo()
    # The negative entry survives even though codegen would now succeed.
    info2 = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info2) is None
    assert info2["hits"] == 1 and info2["misses"] == 0
    # A clean cache lowers the same chain fine.
    kernel_cache_clear()
    info3 = new_kernel_info()
    assert chain_kernel(ops, layout, ctx, info3) is not None


# -- fallbacks ----------------------------------------------------------------


def test_task_chain_falls_back_and_matches(monkeypatch):
    """kernel_chain ≡ row_chain even when kernels cannot run (empty/mixed
    partitions)."""
    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(4)))
    ops, ctx = _chain_parts(query, db)
    rows = list(db.relation("R"))

    info = new_kernel_info()
    out, stats = kernel_chain(ops, rows, ctx, {}, info)
    assert Bag(out) == query.evaluate(db)
    assert info["fallbacks"] == 0

    # Empty partitions always use the row path (schema errors must surface)
    # but are not counted as fallbacks — there was nothing to vectorize.
    info = new_kernel_info()
    out, stats = kernel_chain(ops, [], ctx, {}, info)
    assert out == [] and info["fallbacks"] == 0
    assert info["hits"] == 0 and info["misses"] == 0

    # Mixed layouts cannot be batched into columns.
    mixed = rows + [Tup(k=0, v=99)]
    info = new_kernel_info()
    out, stats = kernel_chain(ops, mixed, ctx, {}, info)
    assert info["fallbacks"] == 1
    assert Bag(out) == Bag([t for t in mixed if t["v"] >= 4])


def test_kernel_error_parity_with_row_path():
    """Fallbacks reproduce the row path's exact error type and message."""
    db = make_db()
    # Flattening an attribute that is not a nested relation fails at runtime;
    # the kernel must surface the same KeyError text via the row-path rerun.
    query = Query(RelationFlatten(TableAccess("R"), "missing", alias="x"))
    with pytest.raises(Exception) as row_err:
        query.evaluate(db)
    with pytest.raises(Exception) as kernel_err:
        ops, ctx = _chain_parts(query, db)
        kernel_chain(ops, list(db.relation("R")), ctx, {}, new_kernel_info())
    assert type(kernel_err.value) is type(row_err.value)
    assert str(kernel_err.value) == str(row_err.value)


# -- executor integration -----------------------------------------------------


def test_executor_columnar_metrics_and_report():
    db = make_db()
    query = Query(
        Projection(Selection(TableAccess("R"), col("v").ge(2)), ["k", "v"])
    )
    executor = Executor(num_partitions=3, engine="columnar")
    result = executor.execute(query, db)
    assert result == query.evaluate(db)
    metrics = executor.last_metrics
    assert metrics.engine == "columnar"
    assert metrics.kernels is not None
    assert metrics.kernels["hits"] + metrics.kernels["misses"] >= 1
    report = metrics.report()
    assert "engine=columnar" in report and "kernels:" in report

    row = Executor(num_partitions=3, engine="row")
    assert row.execute(query, db) == result
    assert row.last_metrics.engine == "row"
    assert row.last_metrics.kernels is None
    assert "kernels:" not in row.last_metrics.report()


def test_metrics_wire_round_trip_with_kernels():
    from repro.wire.payloads import metrics_from_json, metrics_to_json

    db = make_db()
    query = Query(Selection(TableAccess("R"), col("v").ge(2)))
    executor = Executor(num_partitions=2, engine="columnar")
    executor.execute(query, db)
    metrics = executor.last_metrics
    restored = metrics_from_json(metrics_to_json(metrics))
    assert restored.engine == "columnar"
    assert restored.kernels == metrics.kernels
    # Tolerant decode: pre-engine payloads default to the row engine.
    doc = metrics_to_json(metrics)
    del doc["engine"], doc["kernels"]
    legacy = metrics_from_json(doc)
    assert legacy.engine == "row" and legacy.kernels is None
