"""The workloads (three in BENCHMARK.json, plus serve-mix): data, request
streams and answer checks.

Every workload is a closed loop with one client.  Its operations come in
*rounds* of fixed composition; the seed shuffles the order inside each round,
picks the rows that churn mutations touch, and seeds the factory generators.
A fixed composition per round keeps the latency distribution's shape the
same from seed to seed, so percentiles move only when the program does.

An operation is ``Op(kind, key, run, check)``: ``run()`` is the timed call,
``check(output)`` (untimed) compares its answer with the reference taken
during set-up and returns False on any mismatch.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from server import Server

#: Scenarios of the paper's corpus that share one named database each.
CORPUS = [
    ("Q1", "tpch"), ("Q3", "tpch"), ("Q4", "tpch"), ("Q6", "tpch"),
    ("Q10", "tpch"), ("Q13", "tpch"),
    ("D1", "dblp"), ("D3", "dblp"),
    ("T2", "twitter"), ("T3", "twitter"),
]
#: Named-database scale (paper corpus) and factory scale factor.
SCALE = 600
SF = 10


@dataclass
class Op:
    kind: str  # "explain", "query" or "mutate"
    key: str  # operation type, for traced/untraced pairing
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    request_bytes: int = 0  # HTTP body size (0 in process)


@dataclass
class Question:
    name: str
    db: str
    query: Any
    nip: Any
    alternatives: Any
    gold: Optional[frozenset]


def build_databases(seed: int, scale: int = SCALE) -> "tuple[dict, list]":
    """The named databases and the questions asked of them.

    The factory bundles' cardinality invariants (``bundle.check()``) are
    verified here, as part of set-up.
    """
    from repro.factory import social_bundle, tpch_bundle
    from repro.scenarios import get_scenario

    dbs = {
        "tpch": get_scenario("Q1").make_db(scale),
        "dblp": get_scenario("D1").make_db(scale),
        "twitter": get_scenario("T2").make_db(scale),
    }
    questions = []
    for name, db in CORPUS:
        s = get_scenario(name)
        questions.append(
            Question(name, db, s.make_query(), s.make_nip(), s.alternatives, s.gold)
        )
    for db_name, make in (("gentpch", tpch_bundle), ("gensocial", social_bundle)):
        bundle = make(SF, seed=seed * 7919 + len(db_name))
        bundle.check()
        dbs[db_name] = bundle.database
        questions.append(
            Question(bundle.name, db_name, bundle.query, bundle.nip,
                     bundle.alternatives, bundle.gold)
        )
    return dbs, questions


def labels_and_ranks(explanations) -> "list[tuple[tuple[str, ...], int]]":
    """Comparable form of a ranked explanation list (objects or wire dicts)."""
    out = []
    for e in explanations:
        if isinstance(e, dict):
            out.append((tuple(e["labels"]), e["rank"]))
        else:
            out.append((tuple(e.labels), e.rank))
    return out


def gold_ok(answer, gold) -> bool:
    return gold is None or gold in {frozenset(labels) for labels, _ in answer}


def churn_rows(rng: random.Random, db, relation: str, k: int) -> list:
    """*k* distinct rows of *relation*, picked by the seed."""
    rows = list(db.relation(relation).distinct())
    return rng.sample(rows, min(k, len(rows)))


def shuffled_rounds(rng: random.Random, make_round: Callable[[int], list]):
    """Endless stream of ``(op, end_of_round)``: round r's ops in a seeded
    order, the last one flagged."""
    r = 0
    while True:
        ops = make_round(r)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            yield op, i == len(ops) - 1
        r += 1


class Workload:
    """Base: ``setup()`` returns its phase times; ``stream()`` yields ops."""

    name = ""
    #: Kind of the headline operation (its CPU time is ``cpu_p50_ms``/``cpu_p90_ms``).
    headline = "explain"
    #: False when the system under test runs in a server subprocess.
    in_process = True

    def __init__(self, root: str, seed: int, out_dir: str):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        #: Answers checked (and found wrong) during set-up.
        self.references_checked = 0
        self.references_failed = 0

    def setup(self, traced_server: Optional[str] = None) -> dict:
        raise NotImplementedError

    def stream(self, rng: random.Random):
        raise NotImplementedError

    def server_cpu(self) -> float:
        """CPU seconds used so far by the server processes (none in process)."""
        return 0.0

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self) -> None:
        pass


class ExplainMiss(Workload):
    """Uncached in-process explains over the named databases."""

    name = "explain-miss"
    #: Sends per round (default 1).  Twelve questions once each would put
    #: the median in the gap between the six cheaper and the six dearer
    #: ones; doubling the three dearest centres it on the Q3/Q6/Q10 cluster.
    REPEAT = {"D1": 2, "T3": 2, "GenSocial": 2}

    def setup(self, traced_server=None) -> dict:
        from repro.api import ExplainOptions, ExplainRequest, ExplanationService

        t0 = time.perf_counter()
        dbs, questions = build_databases(self.seed)
        t1 = time.perf_counter()
        self.service = ExplanationService()
        for name, db in dbs.items():
            self.service.register_database(name, db)
        t2 = time.perf_counter()
        self.requests = []
        self.reference = {}
        for q in questions:
            plain = ExplainRequest(query=q.query, nip=q.nip, database=q.db,
                                   alternatives=q.alternatives, name=q.name)
            summarized = ExplainRequest(
                query=q.query, nip=q.nip, database=q.db, alternatives=q.alternatives,
                name=q.name, options=ExplainOptions(summarize=True),
            )
            answer = labels_and_ranks(
                self.service.explain(plain, use_cache=False).explanations
            )
            self.references_checked += 1
            if not gold_ok(answer, q.gold):
                self.references_failed += 1
            self.reference[q.name] = answer
            self.requests += [(q, plain, summarized)] * self.REPEAT.get(q.name, 1)
        t3 = time.perf_counter()
        return {"build_db_s": t1 - t0, "register_s": t2 - t1, "warm_s": t3 - t2}

    def _op(self, q, request, summarize: bool) -> Op:
        service = self.service
        reference = self.reference

        def run():
            return service.explain(request, use_cache=False)

        def check(response) -> bool:
            answer = labels_and_ranks(response.explanations)
            if answer != reference[q.name] or response.cached:
                return False
            if summarize:
                groups = response.result.summaries or []
                return sum(g.count for g in groups) == len(answer)
            return True

        return Op("explain", q.name + ("+summarize" if summarize else ""), run, check)

    def stream(self, rng):
        order = list(range(len(self.requests)))
        rng.shuffle(order)
        quarter = max(1, len(order) // 4)

        def make_round(r: int) -> list:
            # Every request once per round; a rotating quarter of them
            # also asks for summaries.
            summarized = {order[(r * quarter + i) % len(order)] for i in range(quarter)}
            ops = []
            for i, (q, plain, summ) in enumerate(self.requests):
                ops.append(self._op(q, summ if i in summarized else plain, i in summarized))
            return ops

        return shuffled_rounds(rng, make_round)


class ServeMix(Workload):
    """A hot set of explain requests plus churn, against ``repro serve``."""

    name = "serve-mix"
    in_process = False
    processes: Optional[int] = None
    #: Inline-database requests: every tpch question again, each body
    #: carrying the whole tpch database at this scale.  Their hits cost
    #: about the same (the hit path re-serializes the database), and a
    #: garbage-collection pass of the server lands on about every other one,
    #: so they form two clusters.
    INLINE_SCALE = 150
    #: Each round sends half the questions (the halves alternate) by name
    #: and as .rq text, and every inline request INLINE_SENDS times.  With
    #: these shares p50 falls inside the plain inline hits and p90 inside
    #: the inline hits that pay for a collection; named and .rq hits fill
    #: the bottom third.
    INLINE_SENDS = 4
    #: Churn, one batch per round, alternating: (database, relation, rows).
    #: Each evicts the cached entries of the questions that read the
    #: relation, so those miss once.
    CHURN = [("tpch", "customer", 8), ("twitter", "T", 8)]
    #: Distinct churn batches prepared per relation.
    CHURN_POOL = 6

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.server: Optional[Server] = None

    def setup(self, traced_server=None) -> dict:
        from repro.api import ExplainRequest
        from repro.engine.database import Mutation
        from repro.scenarios import get_scenario
        from repro.wire import database_to_json
        from repro.wire.payloads import mutation_to_json

        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        dbs, questions = build_databases(self.seed)

        def encode(doc) -> bytes:
            return json.dumps(doc, ensure_ascii=True).encode("ascii")

        puts = {name: encode(database_to_json(db)) for name, db in dbs.items()}
        explains = []  # (class, key, body, gold, reference group)
        for q in questions:
            named = ExplainRequest(query=q.query, nip=q.nip, database=q.db,
                                   alternatives=q.alternatives, name=q.name)
            explains.append(("named", q.name, encode(named.to_json()), q.gold, q.name))
            path = os.path.join(self.root, "queries", f"{q.name}.rq")
            with open(path, encoding="utf-8") as fh:
                text = ExplainRequest(text=fh.read(), database=q.db)
            explains.append(("text", q.name + ".rq", encode(text.to_json()), q.gold, q.name))
        inline_db = get_scenario("Q1").make_db(self.INLINE_SCALE)
        for q in questions:
            if q.db == "tpch":
                inline = ExplainRequest(query=q.query, nip=q.nip, database=inline_db,
                                        alternatives=q.alternatives, name=q.name)
                key = f"{q.name}@{self.INLINE_SCALE}"
                explains.append(("inline", key, encode(inline.to_json()), q.gold, key))
        churn = []
        for db_name, relation, k in self.CHURN:
            pool = []
            for _ in range(self.CHURN_POOL):
                rows = churn_rows(rng, dbs[db_name], relation, k)
                doc = mutation_to_json(Mutation({relation: rows}, {relation: rows}))
                pool.append(encode(doc))
            churn.append((db_name, relation, pool))
        t1 = time.perf_counter()
        self.server = Server(self.root, self.out_dir, self.processes, traced_server)
        t2 = time.perf_counter()
        self.versions = {}
        for name, body in puts.items():
            status, info = self.server.request_json("PUT", f"/v1/databases/{name}", body)
            if status != 200:
                raise RuntimeError(f"registering {name} failed: {status} {info}")
            self.versions[name] = info["version_id"]
        t3 = time.perf_counter()
        self.reference = {}
        for _, key, body, gold, group in explains:
            status, doc = self.server.request_json("POST", "/v1/explain", body)
            answer = (labels_and_ranks(doc["result"]["explanations"])
                      if status == 200 else None)
            # Named and .rq requests ask the same question of the same data.
            expected = self.reference.setdefault(group, answer)
            self.references_checked += 1
            if answer is None or answer != expected or not gold_ok(answer, gold):
                self.references_failed += 1
        t4 = time.perf_counter()
        self.explains = explains
        self.churn = churn
        return {"build_db_s": t1 - t0, "boot_s": t2 - t1,
                "register_s": t3 - t2, "warm_s": t4 - t3}

    def _explain(self, key, body, group) -> Op:
        server = self.server
        reference = self.reference

        def run():
            return server.request("POST", "/v1/explain", body)

        def check(out) -> bool:
            status, data = out
            if status != 200:
                return False
            doc = json.loads(data)
            return labels_and_ranks(doc["result"]["explanations"]) == reference[group]

        return Op("explain", key, run, check, len(body))

    def _mutate(self, db_name, relation, body) -> Op:
        server = self.server
        versions = self.versions
        path = f"/v1/databases/{db_name}/mutate"

        def run():
            return server.request("POST", path, body)

        def check(out) -> bool:
            status, data = out
            if status != 200:
                return False
            doc = json.loads(data)
            expected = versions[db_name] + 1
            versions[db_name] = doc["version_id"]
            return doc["version_id"] == expected and doc.get("converged", True)

        return Op("mutate", f"{db_name}.{relation}", run, check, len(body))

    def stream(self, rng):
        def make_round(r: int) -> list:
            ops = []
            for i, (cls, key, body, gold, group) in enumerate(self.explains):
                if cls == "inline":
                    ops += [self._explain(key, body, group)] * self.INLINE_SENDS
                elif i // 2 % 2 == r % 2:  # named and .rq alternate in pairs
                    ops.append(self._explain(key, body, group))
            db_name, relation, pool = self.churn[r % len(self.churn)]
            ops.append(self._mutate(db_name, relation, pool[r // len(self.churn) % len(pool)]))
            return ops

        return shuffled_rounds(rng, make_round)

    def server_cpu(self) -> float:
        return self.server.cpu_seconds() if self.server is not None else 0.0

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class ServeSharded(ServeMix):
    """The serve-mix stream against ``serve --processes 2``."""

    name = "serve-sharded"
    processes = 2


class QueryMutate(Workload):
    """Plain queries interleaved with churn batches, in process."""

    name = "query-mutate"
    headline = "query"
    TPCH_SCALE = 3000
    #: Query sends per round (default 2).  Q1 sits in the middle of the
    #: cost order; sending it more centres the median on it.
    REPEAT = {"Q1": 4}
    #: Relations the queries read, churned in batches of these sizes.
    CHURN = [("tpch", "nestedOrders"), ("tpch", "customer"), ("gensocial", "T")]
    BATCHES = [1, 8, 64]
    CHURN_POOL = 6

    def setup(self, traced_server=None) -> dict:
        from repro.api import ExplanationService
        from repro.engine.database import Mutation
        from repro.factory import social_bundle
        from repro.scenarios import get_scenario

        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        bundle = social_bundle(SF, seed=self.seed * 7919 + 9)
        bundle.check()
        dbs = {"tpch": get_scenario("Q1").make_db(self.TPCH_SCALE),
               "gensocial": bundle.database}
        queries = [(name, "tpch", get_scenario(name).make_query())
                   for name, db in CORPUS if db == "tpch"]
        queries.append((bundle.name, "gensocial", bundle.query))
        t1 = time.perf_counter()
        self.service = ExplanationService()
        for name, db in dbs.items():
            self.service.register_database(name, db)
        t2 = time.perf_counter()
        # Reference bags: Query.evaluate on the base version.  Churn is
        # net-zero, so every later version must give the same bags.
        self.reference = {name: query.evaluate(dbs[db]) for name, db, query in queries}
        for name, db, query in queries:
            bag, _ = self.service.query(query, db)
            self.references_checked += 1
            if bag != self.reference[name]:
                self.references_failed += 1
        self.churn = {}
        for db_name, relation in self.CHURN:
            for k in self.BATCHES:
                self.churn[(relation, k)] = [
                    Mutation({relation: rows}, {relation: rows})
                    for rows in (churn_rows(rng, dbs[db_name], relation, k)
                                 for _ in range(self.CHURN_POOL))
                ]
        t3 = time.perf_counter()
        self.queries = queries
        self.versions = {name: db.version_id for name, db in dbs.items()}
        return {"build_db_s": t1 - t0, "register_s": t2 - t1, "warm_s": t3 - t2}

    def _query(self, name, db, query) -> Op:
        service = self.service
        reference = self.reference[name]
        return Op("query", name, lambda: service.query(query, db)[0],
                  lambda bag: bag == reference)

    def _mutate(self, db_name, relation, mutation) -> Op:
        service = self.service
        versions = self.versions

        def check(new_db) -> bool:
            expected = versions[db_name] + 1
            versions[db_name] = new_db.version_id
            return new_db.version_id == expected

        return Op("mutate", f"{relation}x{len(mutation.inserts[relation])}",
                  lambda: service.mutate_database(db_name, mutation), check)

    def stream(self, rng):
        def make_round(r: int) -> list:
            # Sixteen queries, three churn batches: about 5 reads per write.
            # Batch sizes rotate over the relations, so every three rounds
            # each relation sees every size once.
            ops = [self._query(*q) for q in self.queries
                   for _ in range(self.REPEAT.get(q[0], 2))]
            for i, (db_name, relation) in enumerate(self.CHURN):
                k = self.BATCHES[(i + r) % len(self.BATCHES)]
                pool = self.churn[(relation, k)]
                ops.append(self._mutate(db_name, relation, pool[r % len(pool)]))
            return ops

        return shuffled_rounds(rng, make_round)


WORKLOADS = {w.name: w for w in (ExplainMiss, ServeMix, ServeSharded, QueryMutate)}
