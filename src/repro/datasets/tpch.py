"""Synthetic TPC-H dataset, flat and nested (paper §6.2, scenarios Q1–Q13).

The paper evaluates on a nested TPC-H variant that nests lineitems into
orders [35] at scale factor 10; this generator produces the same three shapes
at row-count scale:

* ``customer`` / ``nation`` / ``nestedOrders`` (lineitems nested in orders),
* flat ``orders`` + ``lineitem`` for the QxF scenarios,
* ``customerNested`` (orders nested into customers) for the deep Q13 rerun.

``o_shippriority`` is a *string* ("0") rather than TPC-H's integer so that
the Q4 schema alternative (swap with ``o_orderpriority``) is type-compatible
— documented in docs/ARCHITECTURE.md §5, "Scenarios and baselines".

Planted rows referenced by the scenarios are listed in ``TPCH_FACTS``.
Dates are ISO strings (they compare lexicographically).
"""

from __future__ import annotations

import random

from repro.engine.database import Database
from repro.nested.values import Bag, Tup


TPCH_FACTS = {
    "q3_orderkey": 4986467,
    "q3_custkey": 61398,
    "q10_custkey": 61402,
    "q1_avg_disc_bound": 0.05,
    "q6_revenue_bound": None,  # computed per scale by the scenario
}

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_NATIONS = ["FRANCE", "GERMANY", "JAPAN", "BRAZIL", "KENYA"]
_FLAGS = ["A", "N", "R"]
_COMMENT_WORDS = ["carefully", "quickly", "ironic", "pending", "final", "bold"]


def _date(rng: random.Random, year_lo: int = 1992, year_hi: int = 1998) -> str:
    year = rng.randint(year_lo, year_hi)
    return f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _lineitem(rng: random.Random, orderkey: int, shipped_late: bool = False) -> Tup:
    shipdate = _date(rng, 1992, 1998)
    if shipped_late:
        shipdate = f"1998-{rng.randint(10, 12):02d}-{rng.randint(1, 28):02d}"
    # Taxes: on-time shipments carry high taxes, late ones low taxes — this
    # makes Q1's avg(tax) story work (see scenario notes).
    tax = round(rng.uniform(0.05, 0.10), 3) if not shipped_late else round(
        rng.uniform(0.0, 0.02), 3
    )
    commit = _date(rng, 1992, 1998)
    receipt = _date(rng, 1992, 1998)
    return Tup(
        l_orderkey=orderkey,
        l_quantity=rng.randint(1, 50),
        l_extendedprice=round(rng.uniform(1000.0, 90000.0), 2),
        l_discount=round(rng.uniform(0.0, 0.04), 3),
        l_tax=tax,
        l_returnflag=rng.choice(_FLAGS),
        l_shipdate=shipdate,
        l_commitdate=commit,
        l_receiptdate=receipt,
    )


def _order(rng: random.Random, orderkey: int, custkey: int, lineitems: list[Tup]) -> Tup:
    comment_words = rng.sample(_COMMENT_WORDS, 2)
    return Tup(
        o_orderkey=orderkey,
        o_custkey=custkey,
        o_orderdate=_date(rng, 1992, 1998),
        o_orderpriority=rng.choice(_PRIORITIES),
        o_shippriority="0",
        o_comment=" ".join(comment_words) + " deposits",
        o_lineitems=Bag(lineitems),
    )


def tpch_database(scale: int = 60, seed: int = 4242) -> Database:
    """Build all TPC-H shapes with ``scale`` orders (≥ 20 recommended)."""
    rng = random.Random(seed)
    facts = TPCH_FACTS
    n_customers = max(scale // 3, 6)

    customers = []
    for i in range(n_customers):
        custkey = 61000 + i
        customers.append(
            Tup(
                c_custkey=custkey,
                c_name=f"Customer#{custkey}",
                c_acctbal=round(rng.uniform(-900.0, 9900.0), 2),
                c_phone=f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                c_address=f"{rng.randint(1, 999)} Market St",
                c_comment=" ".join(rng.sample(_COMMENT_WORDS, 2)),
                c_mktsegment=rng.choice(_SEGMENTS),
                c_nationkey=rng.randrange(len(_NATIONS)),
            )
        )
    # Q3's customer: BUILDING segment (the query erroneously asks HOUSEHOLD).
    customers.append(
        Tup(
            c_custkey=facts["q3_custkey"],
            c_name="Customer#q3",
            c_acctbal=1234.5,
            c_phone="13-555-0101",
            c_address="1 Build Way",
            c_comment="steady accounts",
            c_mktsegment="BUILDING",
            c_nationkey=0,
        )
    )
    # Q10's customer: all lineitems returned with flag R outside the
    # (erroneous) 1997-Q4 orderdate window except one inside it.
    customers.append(
        Tup(
            c_custkey=facts["q10_custkey"],
            c_name="Customer#q10",
            c_acctbal=777.7,
            c_phone="13-555-0102",
            c_address="2 Return Rd",
            c_comment="returns often",
            c_mktsegment="MACHINERY",
            c_nationkey=1,
        )
    )
    # A customer without any orders (the Q13 missing c_count = 0 case).
    customers.append(
        Tup(
            c_custkey=61999,
            c_name="Customer#orderless",
            c_acctbal=0.0,
            c_phone="13-555-0103",
            c_address="3 Quiet Ln",
            c_comment="no orders yet",
            c_mktsegment="FURNITURE",
            c_nationkey=2,
        )
    )

    nations = [
        Tup(n_nationkey=i, n_name=name) for i, name in enumerate(_NATIONS)
    ]

    orders = []
    orderkey = 1000
    # The orderless customer (Q13) gets no orders; the Q10 customer's orders
    # are fully hand-planted (his lineitems must all carry returnflag R).
    ordered_customers = [
        c for c in customers if c["c_custkey"] not in (61999, facts["q10_custkey"])
    ]
    for i in range(scale):
        customer = ordered_customers[i % len(ordered_customers)]
        items = [
            _lineitem(rng, orderkey, shipped_late=rng.random() < 0.45)
            for _ in range(rng.randint(1, 4))
        ]
        # Guarantee at least one benign (non-"special") order per customer:
        # comments above never contain "special requests".
        orders.append(_order(rng, orderkey, customer["c_custkey"], items))
        orderkey += 1

    # Q3's order: in the HOUSEHOLD-window (orderdate OK) but every lineitem's
    # commitdate falls between the intended (03-15) and typo'd (03-25) bound.
    q3_items = []
    for _ in range(3):
        item = _lineitem(rng, facts["q3_orderkey"])
        q3_items.append(
            item.replace(
                l_commitdate=f"1995-03-{rng.randint(16, 24):02d}",
                l_shipdate="1995-02-01",
            )
        )
    orders.append(
        _order(rng, facts["q3_orderkey"], facts["q3_custkey"], q3_items).replace(
            o_orderdate="1995-02-20"
        )
    )

    # Q10's order: R-flagged returns, one inside the erroneous 1997-Q4 window.
    q10_items = [
        _lineitem(rng, 9001).replace(l_returnflag="R", l_shipdate="1997-11-02"),
        _lineitem(rng, 9001).replace(l_returnflag="R", l_shipdate="1996-05-14"),
    ]
    q10_order_in = _order(rng, 9001, facts["q10_custkey"], q10_items).replace(
        o_orderdate="1997-11-01"
    )
    q10_order_out = _order(
        rng,
        9002,
        facts["q10_custkey"],
        [_lineitem(rng, 9002).replace(l_returnflag="R")],
    ).replace(o_orderdate="1996-06-01")
    orders.extend([q10_order_in, q10_order_out])

    # Q4's planted 3-MEDIUM orders (by o_orderpriority): one fully inside the
    # 1993-Q3 window with an on-time lineitem, one outside the window, and one
    # inside whose lineitems all violate shipdate < receiptdate.
    def q4_item(okey: int, good: bool) -> Tup:
        item = _lineitem(rng, okey)
        if good:
            return item.replace(l_shipdate="1993-07-10", l_receiptdate="1993-07-20")
        return item.replace(l_shipdate="1993-07-20", l_receiptdate="1993-07-10")

    q4_specs = [
        (9201, "1993-08-05", [q4_item(9201, True), q4_item(9201, False)]),
        (9202, "1994-02-02", [q4_item(9202, True)]),
        (9203, "1993-09-09", [q4_item(9203, False)]),
    ]
    for okey, odate, items in q4_specs:
        orders.append(
            _order(rng, okey, ordered_customers[1]["c_custkey"], items).replace(
                o_orderdate=odate, o_orderpriority="3-MEDIUM"
            )
        )

    flat_orders = [o.drop(["o_lineitems"]) for o in orders]
    lineitems = [item for o in orders for item in o["o_lineitems"]]

    by_customer: dict[int, list[Tup]] = {}
    for order in orders:
        by_customer.setdefault(order["o_custkey"], []).append(order)
    customer_nested = [
        c.with_attr("c_orders", Bag(by_customer.get(c["c_custkey"], [])))
        for c in customers
    ]

    return Database(
        {
            "customer": customers,
            "nation": nations,
            "nestedOrders": orders,
            "orders": flat_orders,
            "lineitem": lineitems,
            "customerNested": customer_nested,
        }
    )
