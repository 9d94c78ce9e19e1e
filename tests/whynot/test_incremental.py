"""Incremental explanation maintenance: ``IncrementalExplainer`` ≡ ``explain``.

Every version of a mutated database must yield the identical ranked
explanation label sets through the incremental path (retained backtrace +
schema alternatives, partial re-trace of only the operators whose inputs
changed) as through a from-scratch ``explain`` — including the edge cases
the mutation satellite pins: deleting the row that feeds the only
explanation, an insert that flips the question to answered (both paths must
raise ``IllPosedQuestion``, and the explainer must recover on the next
well-posed version), and mutations addressed in canonically-equal forms.
"""

import pytest

from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.operators import Projection, Query, Selection, TableAccess
from repro.engine.database import Database
from repro.engine.deltas import IncrementalExplainer
from repro.nested.values import Bag, Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain
from repro.whynot.question import IllPosedQuestion, WhyNotQuestion


def _labels(result):
    return [frozenset(e.labels) for e in result.explanations]


def _scratch(query, db, nip):
    return explain(WhyNotQuestion(query, db, nip), optimize=False)


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name", ["Q1", "Q4", "T2"])
    def test_mutation_chain_matches_scratch(self, name):
        scenario = get_scenario(name)
        db = scenario.make_db(scenario.default_scale // 3 or 1)
        question = WhyNotQuestion(
            scenario.make_query(), db, scenario.make_nip(), name=name
        )
        explainer = IncrementalExplainer(question)
        baseline = explain(
            WhyNotQuestion(question.query, db, question.nip, name=name),
            optimize=False,
        )
        assert _labels(explainer.last_result) == _labels(baseline)
        table = sorted(explainer.evaluator.reads)[0]
        version = db
        for _ in range(2):
            row = next(iter(version.relation(table).distinct()))
            version = version.apply_mutations(deletes={table: [row]})
            try:
                expected = explain(
                    WhyNotQuestion(question.query, version, question.nip),
                    optimize=False,
                )
            except IllPosedQuestion:
                with pytest.raises(IllPosedQuestion):
                    explainer.apply(version)
                continue
            got = explainer.apply(version)
            assert _labels(got) == _labels(expected)
            assert explainer.last_stats["mode"] == "delta"
            assert explainer.last_stats["ops_reused"] >= 0


class TestEdgeCases:
    def _filter_case(self):
        db = Database({"T": [Tup(a=1, b="x"), Tup(a=5, b="y")],
                       "U": [Tup(c=7)]})
        query = Query(
            Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(3)))
        )
        nip = Tup(a=1, b="x")
        return db, query, nip

    def test_delete_of_the_row_feeding_the_only_explanation(self):
        db, query, nip = self._filter_case()
        explainer = IncrementalExplainer(WhyNotQuestion(query, db, nip))
        # Base: the selection is the only picky operator.
        assert _labels(explainer.last_result), "expected a non-empty explanation"
        # Deleting (a=1, b="x") removes the only row the explanation traces
        # back to; whatever from-scratch does now, incremental must match.
        v1 = db.apply_mutations(deletes={"T": [Tup(a=1, b="x")]})
        try:
            expected = _scratch(query, v1, nip)
        except Exception as exc:  # noqa: BLE001 - compare outcome types
            with pytest.raises(type(exc)):
                explainer.apply(v1)
        else:
            assert _labels(explainer.apply(v1)) == _labels(expected)

    def test_insert_flips_question_to_answered_and_back(self):
        db = Database({"T": [Tup(a=1, b="x")]})
        query = Query(Projection(TableAccess("T"), ["b"]))
        nip = Tup(b="y")
        explainer = IncrementalExplainer(WhyNotQuestion(query, db, nip))
        # v1 inserts a row whose projection IS the missing tuple: the
        # question is now answered, so both paths must refuse it.
        v1 = db.apply_mutations(inserts={"T": [Tup(a=2, b="y")]})
        with pytest.raises(IllPosedQuestion):
            _scratch(query, v1, nip)
        with pytest.raises(IllPosedQuestion):
            explainer.apply(v1)
        # v2 removes it again: the question is well-posed once more and the
        # explainer must recover (its trace of T is stale from v1).
        v2 = v1.apply_mutations(deletes={"T": [Tup(a=2, b="y")]})
        expected = _scratch(query, v2, nip)
        assert _labels(explainer.apply(v2)) == _labels(expected)

    def test_canonical_form_mutations_hit_the_same_rows(self):
        db = Database({"T": [Tup(a=2.0, b="x"), Tup(a=0.0, b="y"),
                             Tup(a=9, b="z")]})
        query = Query(
            Selection(TableAccess("T"), Cmp(">=", Attr("a"), Const(5)))
        )
        nip = Tup(a=2.0, b="x")
        explainer = IncrementalExplainer(WhyNotQuestion(query, db, nip))
        # Delete the row through its canonical variants: int 2 for the
        # stored 2.0 and -0.0 for 0.0.  The incremental path must see the
        # same post-state from-scratch explanation (or the same refusal).
        v1 = db.apply_mutations(
            deletes={"T": [Tup(a=2, b="x"), Tup(a=-0.0, b="y")]}
        )
        assert len(v1.relation("T")) == 1
        try:
            expected = _scratch(query, v1, nip)
        except Exception as exc:  # noqa: BLE001 - compare outcome types
            with pytest.raises(type(exc)):
                explainer.apply(v1)
        else:
            assert _labels(explainer.apply(v1)) == _labels(expected)

    def test_untouched_operators_are_reused(self):
        scenario = get_scenario("Q1")
        db = scenario.make_db(20)
        question = WhyNotQuestion(
            scenario.make_query(), db, scenario.make_nip(), name="Q1"
        )
        explainer = IncrementalExplainer(question)
        table = sorted(explainer.evaluator.reads)[0]
        row = next(iter(db.relation(table).distinct()))
        version = db.apply_mutations(deletes={table: [row]})
        try:
            explainer.apply(version)
        except IllPosedQuestion:
            pytest.skip("mutation flipped the question; reuse not observable")
        stats = explainer.last_stats
        assert stats["mode"] == "delta"
        assert stats["ops_retraced"] >= 1
