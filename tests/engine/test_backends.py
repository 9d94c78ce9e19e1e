"""Execution equivalence nets: the partitioned executor must reproduce
``Query.evaluate`` exactly for every registered scenario, partition count
and engine, with the same row/shuffle counters on both engines, and the
columnar answer path must not change any explanation.  Also covers the
value model's pickling contract (layout re-interning) and chain fusion.

Every partition evaluates in the calling process; the test names are kept
from when this module also compared a multi-process backend, so that test
ids stay stable."""

import pickle

import pytest

from repro.algebra.expressions import col
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.engine.executor import Executor, build_segments
from repro.nested.values import Bag, Layout, Tup
from repro.whynot.explain import explain

# -- serialization contracts -------------------------------------------------


def test_tup_pickle_reinterns_layout():
    t = Tup(a=1, b=Bag([Tup(c=2.0)]))
    t2 = pickle.loads(pickle.dumps(t))
    assert t2 == t and hash(t2) == hash(t)
    assert t2.layout is t.layout, "unpickled tuples must share interned layouts"


def test_layout_pickle_is_identity():
    layout = Layout.of(("x", "y"))
    assert pickle.loads(pickle.dumps(layout)) is layout


def test_chain_fusion_segments():
    query = Query(
        Projection(
            Selection(
                Projection(TableAccess("R"), ["k", "v"]), col("v").ge(2)
            ),
            ["k"],
        )
    )
    segments = build_segments(query)
    kinds = [s.kind for s in segments]
    assert kinds == ["source", "chain"]
    assert len(segments[1].ops) == 3, "narrow run must fuse into one chain"


# -- executor equivalence ----------------------------------------------------


def _scenario_names():
    from repro.scenarios import SCENARIOS

    return sorted(SCENARIOS)


@pytest.mark.parametrize("engine", ["row", "columnar"])
@pytest.mark.parametrize("name", _scenario_names())
@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_scenario_process_equals_serial(name, partitions, engine):
    """Executor ≡ Query.evaluate for every scenario on both engines, with
    the same row and shuffle counters as the row engine."""
    from repro.scenarios import get_scenario

    question = get_scenario(name).question(scale=10)
    plain = question.query.evaluate(question.db)
    row = Executor(num_partitions=partitions, engine="row")
    executor = Executor(num_partitions=partitions, engine=engine)
    assert row.execute(question.query, question.db) == plain
    assert executor.execute(question.query, question.db) == plain, (
        f"{name} diverges on the {engine} engine at {partitions} partitions"
    )
    mr, me = row.last_metrics, executor.last_metrics
    assert me.engine == engine
    for op_id, r in mr.operators.items():
        e = me.operators[op_id]
        assert (r.rows_in, r.rows_out, r.shuffled_rows) == (
            e.rows_in,
            e.rows_out,
            e.shuffled_rows,
        ), f"{name}: {engine} metrics diverge at operator #{op_id}"


# -- explanation equivalence -------------------------------------------------

SA_SCENARIOS = ["Q4", "D4", "T2", "C3", "Q13N"]


@pytest.mark.parametrize("name", SA_SCENARIOS)
def test_explain_columnar_equals_row(name):
    """The columnar answer path must not change any explanation."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    question = scenario.question(scale=12)
    row = explain(
        question, alternatives=scenario.alternatives, validate=False, engine="row"
    )
    question = scenario.question(scale=12)
    columnar = explain(
        question, alternatives=scenario.alternatives, validate=False, engine="columnar"
    )
    assert row.n_sas == columnar.n_sas
    assert row.explanation_labels() == columnar.explanation_labels()
    assert [(e.lb, e.ub) for e in row.explanations] == [
        (e.lb, e.ub) for e in columnar.explanations
    ]
