"""Self-test of the answer checks: planted wrong references must be counted.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For each kind of check the benchmark makes (explain label sets and ranks,
gold explanations, query bags, version advance, over HTTP too), this sets a
workload up, corrupts one reference, runs one round of operations and
verifies that exactly the operations that use the corrupted reference are
counted as failed, and that a clean round fails nothing.  Exits 1 when a
planted error goes uncounted.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_round(workload, ops: int) -> "tuple[int, list]":
    """Run *ops* operations; ``(failed count, keys of the failed ops)``."""
    from run import measure

    failures: list = []
    samples, _ = measure(workload, workload.stream(random.Random(0)), 3600.0, failures,
                         max_ops=ops)
    return sum(not s.ok for s in samples), [s.key for s in samples if not s.ok]


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from repro.nested.values import Bag
    from workloads import ExplainMiss, QueryMutate, ServeMix, gold_ok

    out_dir = os.path.join(ROOT, ".perfbench")
    problems = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    expect("a missing gold explanation is a failure",
           not gold_ok([(("σ1",), 1)], frozenset({"σ2"})))

    w = ExplainMiss(ROOT, 1, out_dir)
    w.setup()
    n = len(w.requests)
    expect("explain-miss: clean round fails nothing", one_round(w, n)[0] == 0)
    w.reference["Q3"] = [(("σ99",), 1)]
    failed, keys = one_round(w, n)
    expect("explain-miss: wrong Q3 reference counted once per Q3 request",
           failed == 1 and keys[0].startswith("Q3"))

    w = QueryMutate(ROOT, 1, out_dir)
    w.setup()
    per_round = sum(w.REPEAT.get(name, 2) for name, *_ in w.queries) + len(w.CHURN)
    expect("query-mutate: clean round fails nothing", one_round(w, per_round)[0] == 0)
    w.reference["Q1"] = Bag()
    w.versions["tpch"] -= 1  # the next tpch mutation advances by two
    failed, keys = one_round(w, per_round)
    tpch_mutations = sum(k.startswith(("nestedOrders", "customer")) for k in keys)
    expect("query-mutate: wrong bag and wrong version counted",
           keys.count("Q1") == w.REPEAT["Q1"] and tpch_mutations == 1
           and failed == w.REPEAT["Q1"] + 1)

    w = ServeMix(ROOT, 1, out_dir)
    try:
        w.setup()
        # Two rounds: each sends half the questions by name and as .rq text.
        per_round = sum(w.INLINE_SENDS if cls == "inline" else 0.5
                        for cls, *_ in w.explains) + 1
        expect("serve-mix: clean rounds fail nothing",
               one_round(w, int(2 * per_round))[0] == 0)
        w.reference["T2"] = [(("F99",), 1)]
        failed, keys = one_round(w, int(2 * per_round))
        expect("serve-mix: wrong T2 reference counted for named and .rq requests",
               sorted(keys) == ["T2", "T2.rq"] and failed == 2)
    finally:
        w.teardown()
    print("selftest:", "FAILED " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
