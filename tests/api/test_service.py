"""ExplanationService behaviour: registry, validation, cache, dispatch."""

import json

import pytest

from repro.api import (
    BadRequest,
    ExplainOptions,
    ExplainRequest,
    ExplanationService,
    InlineDatabase,
    UnknownDatabase,
)
from repro.nested.values import Bag, Tup
from repro.scenarios import get_scenario
from repro.whynot.explain import explain
from repro.whynot.placeholders import ANY, STAR
from repro.whynot.question import IllPosedQuestion


def _request(question, alternatives=(), **kwargs):
    return ExplainRequest(
        query=question.query,
        nip=question.nip,
        database=question.db,
        alternatives=alternatives,
        **kwargs,
    )


class TestRegistry:
    def test_register_and_lookup(self, person_db):
        service = ExplanationService()
        service.register_database("people", person_db)
        assert service.database("people") is person_db
        assert service.databases() == ["people"]

    def test_unknown_database(self):
        service = ExplanationService()
        with pytest.raises(UnknownDatabase, match="nope"):
            service.database("nope")

    def test_by_name_requests_resolve(self, person_db, running_question):
        service = ExplanationService(databases={"people": person_db})
        request = ExplainRequest(
            query=running_question.query, nip=running_question.nip, database="people"
        )
        response = service.explain(request)
        direct = explain(running_question)
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]

    def test_scenarios_listing(self):
        entries = ExplanationService().scenarios()
        names = {e["name"] for e in entries}
        assert {"Q1", "Q10", "T2", "C3", "D3"} <= names
        q10 = next(e for e in entries if e["name"] == "Q10")
        assert q10["gold"]  # the paper defines a gold explanation for Q10


class TestValidation:
    def test_incomplete_request(self):
        with pytest.raises(BadRequest, match="scenario name or query"):
            ExplanationService().explain(ExplainRequest())

    def test_unknown_scenario(self):
        with pytest.raises(BadRequest, match="unknown scenario"):
            ExplanationService().explain(ExplainRequest(scenario="Q999"))

    def test_ill_posed_question(self, person_db, running_query):
        # ⟨city: LA, ...⟩ is present in the result: Definition 5 fails.
        request = ExplainRequest(
            query=running_query,
            nip=Tup(city="LA", nList=Bag([ANY, STAR])),
            database=person_db,
        )
        with pytest.raises(IllPosedQuestion):
            ExplanationService().explain(request)

    @pytest.mark.parametrize("scale", [0, -3, "20", 2.5, True])
    def test_bad_scenario_scale_rejected(self, scale):
        with pytest.raises(BadRequest, match="scale"):
            ExplanationService().explain(ExplainRequest(scenario="Q1", scale=scale))

    def test_huge_scenario_scale_rejected(self):
        # scale sizes a synchronous database build from network input.
        with pytest.raises(BadRequest, match="serving limit"):
            ExplanationService().explain(ExplainRequest(scenario="Q1", scale=10**8))

    def test_scenario_db_cache_is_bounded(self):
        service = ExplanationService()
        service._scenario_db_limit = 2
        for scale in (5, 6, 7, 8):
            service.prepare(ExplainRequest(scenario="Q1", scale=scale))
        assert len(service._scenario_dbs) == 2

    def test_unknown_option_fields_rejected(self):
        with pytest.raises(BadRequest, match="unknown option"):
            ExplainOptions.from_json({"backend": "serial", "typo": 1})

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"max_sas": "5"}, "max_sas"),
            ({"max_sas": 0}, "max_sas"),
            ({"max_sas": True}, "max_sas"),
            ({"partitions": 0}, "partitions"),
            ({"partitions": 2.5}, "partitions"),
            ({"revalidate": "no"}, "revalidate"),
            ({"use_schema_alternatives": None}, "use_schema_alternatives"),
            ({"optimize": 1}, "optimize"),
            ({"engine": "vectorized"}, "engine"),
            ({"backend": "threads"}, "backend"),
            ({"workers": 0}, "workers"),
            ({"workers": "4"}, "workers"),
            ([], "JSON object"),
        ],
    )
    def test_invalid_options_rejected(self, options, match):
        document = {"format": 2, "kind": "explain-request", "scenario": "Q1",
                    "scale": 5, "options": options}
        with pytest.raises(BadRequest, match=match):
            ExplanationService().explain(ExplainRequest.from_json(document))

    def test_legacy_and_null_options_accepted(self):
        options = ExplainOptions.from_json(
            {"backend": "process", "workers": 4, "max_sas": None, "partitions": None}
        )
        assert options == ExplainOptions()
        assert "backend" not in options.to_json()
        assert ExplainOptions.from_json({"backend": None, "workers": None}) == ExplainOptions()

    def test_too_many_alternatives_is_a_client_error(self):
        from repro.api.service import CLIENT_ERRORS
        from repro.whynot.alternatives import TooManyAlternatives

        request = ExplainRequest(scenario="Q4", scale=5, options=ExplainOptions(max_sas=1))
        with pytest.raises(TooManyAlternatives) as excinfo:
            ExplanationService().explain(request)
        assert isinstance(excinfo.value, CLIENT_ERRORS)

    def test_legacy_backend_options_answer_like_plain_request(self):
        """The ``docs/API.md`` request still answers, identically, with the
        retired ``backend``/``workers`` options attached."""
        from repro.api.sharded import routing_key

        plain = {"format": 2, "kind": "explain-request", "scenario": "Q10", "scale": 60}
        legacy = dict(plain, options={"backend": "process", "workers": 4})
        service = ExplanationService()

        def answer(document):
            response = service.explain(ExplainRequest.from_json(document), use_cache=False)
            payload = response.to_json()
            payload["result"]["timings"] = None
            return payload

        assert answer(legacy) == answer(plain)
        assert routing_key(legacy) == routing_key(plain)

    def test_prepare_validates(self, running_question):
        service = ExplanationService()
        question, alternatives, key = service.prepare(_request(running_question))
        assert question.nip == running_question.nip
        assert isinstance(key, int)


class TestCache:
    def test_hit_counters_and_flag(self, running_question):
        service = ExplanationService(cache_size=4)
        request = _request(running_question)
        first = service.explain(request)
        second = service.explain(_request(running_question))
        assert not first.cached and second.cached
        assert second.cache == {"hits": 1, "misses": 1, "size": 1}
        assert second.explanation_sets() == first.explanation_sets()
        # The cached response reuses the computed result object: no re-trace.
        assert second.result is first.result

    def test_use_cache_false_bypasses(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question), use_cache=False)
        response = service.explain(_request(running_question), use_cache=False)
        assert not response.cached
        assert service.cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_execution_knobs_share_cache_entries(self, running_question):
        # partitions/optimize/engine don't change explanations (equivalence
        # guarantees), so they share one cache entry.
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            _request(running_question, options=ExplainOptions(optimize=True))
        )
        assert response.cached

    def test_semantic_knobs_get_separate_entries(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            _request(
                running_question,
                options=ExplainOptions(use_schema_alternatives=False),
            )
        )
        assert not response.cached
        assert service.cache_stats()["size"] == 2

    def test_alternatives_change_the_key(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            _request(
                running_question,
                alternatives=[["person.address2", "person.address1"]],
            )
        )
        assert not response.cached

    def test_lru_eviction(self, running_question):
        service = ExplanationService(cache_size=1)
        service.explain(_request(running_question))
        service.explain(ExplainRequest(scenario="Q1", scale=10))
        assert service.cache_stats()["size"] == 1
        response = service.explain(_request(running_question))
        assert not response.cached  # evicted by the Q1 entry

    def test_clear_cache(self, running_question):
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        service.clear_cache()
        assert service.cache_stats()["size"] == 0
        assert not service.explain(_request(running_question)).cached

    def test_32bit_key_collision_is_not_a_hit(self, person_db, running_query):
        """These two NIPs share a crc32 cache key (1641325997): under 32-bit
        keys the second was answered from the first one's cached result."""
        service = ExplanationService()
        service.register_database("people", person_db)
        for city in ("wunrmhczpspm", "toobxpfdwogy"):
            nip = Tup(city=city, nList=Bag([ANY, STAR]))
            response = service.explain(
                ExplainRequest(query=running_query, nip=nip, database="people")
            )
            assert not response.cached
            assert response.result.question.nip == nip

    def test_inline_and_wire_database_share_a_key(self, running_question):
        # An in-process Database keys by the digest of its wire document, so
        # the same request over the wire is a hit.
        service = ExplanationService(cache_size=4)
        service.explain(_request(running_question))
        response = service.explain(
            ExplainRequest.from_json(_request(running_question).to_json())
        )
        assert response.cached


@pytest.fixture
def count_decodes(monkeypatch):
    """Counts the service's ``database_from_json`` calls."""
    import repro.api.service as service_module

    calls = []
    original = service_module.database_from_json

    def counting(document):
        calls.append(document)
        return original(document)

    monkeypatch.setattr(service_module, "database_from_json", counting)
    return calls


class TestInlineDatabaseDecode:
    """An inline database is digested when the request is decoded, and
    decoded only when a cache miss needs the data."""

    def test_hit_does_not_decode(self, running_question, count_decodes):
        service = ExplanationService(cache_size=4)
        document = _request(running_question).to_json()
        first = service.explain(ExplainRequest.from_json(document))
        assert not first.cached and len(count_decodes) == 1
        second = service.explain(ExplainRequest.from_json(document))
        assert second.cached and len(count_decodes) == 1

    def test_worker_hit_does_not_decode(self, running_question, count_decodes):
        from repro.api.sharded import _handle_job

        service = ExplanationService(cache_size=4)
        document = _request(running_question).to_json()
        status, first = _handle_job(service, "explain", document)
        assert status == 200 and not first["cached"] and len(count_decodes) == 1
        status, second = _handle_job(service, "explain", document)
        assert status == 200 and second["cached"] and len(count_decodes) == 1

    def test_decodes_at_most_once(self, running_question, count_decodes):
        request = ExplainRequest.from_json(_request(running_question).to_json())
        assert count_decodes == []
        service = ExplanationService()
        service.explain(request, use_cache=False)
        service.explain(request, use_cache=False)
        assert len(count_decodes) == 1

    def test_to_json_re_emits_the_document(self, running_question):
        document = _request(running_question, name="rt").to_json()
        assert ExplainRequest.from_json(document).to_json() == document

    def test_bad_envelope_is_rejected_eagerly(self, running_question):
        document = _request(running_question).to_json()
        document["database"] = dict(document["database"], kind="relation")
        with pytest.raises(ValueError, match="'database' payload"):
            ExplainRequest.from_json(document)

    @pytest.mark.parametrize("rows", [5, [["x", "y"]], [[{"t": "nope"}, 1]]])
    def test_ill_typed_rows_are_a_bad_request(self, running_question, rows):
        document = _request(running_question).to_json()
        tables = document["database"]["tables"]
        tables["person"] = dict(tables["person"], rows=rows)
        request = ExplainRequest.from_json(document)
        service = ExplanationService()
        with pytest.raises(BadRequest, match="invalid inline database"):
            service.explain(request)
        assert service.cache_stats()["hits"] == 0

    @staticmethod
    def _forwarded(document):
        """The job document a sharded relay sends for *document*."""
        from repro.api.sharded import forward

        body = json.dumps(document).encode("ascii")
        return forward(json.loads(body), body)[1]

    def test_forwarded_request_keys_like_from_json(self, running_question):
        document = _request(running_question).to_json()
        job = self._forwarded(document)
        assert isinstance(job["database"], tuple)
        service = ExplanationService()
        key, _ = service._resolve(ExplainRequest.from_json(document))
        forwarded_key, _ = service._resolve(ExplainRequest.from_json(job))
        assert forwarded_key == key

    def test_forwarded_hit_reads_nothing(
        self, running_question, count_decodes, monkeypatch
    ):
        """A forwarded inline hit makes no digest of the database, no parse
        of the body and no ``database_from_json`` call in the worker."""
        import repro.api.service as service_module
        from repro.api.sharded import _handle_job

        document = _request(running_question).to_json()
        job = self._forwarded(document)
        service = ExplanationService(cache_size=4)
        status, first = _handle_job(service, "explain", job)
        assert status == 200 and not first["cached"] and len(count_decodes) == 1
        # The miss decoded the raw body: the same answer as in process.
        expected = ExplanationService().explain(_request(running_question)).to_json()
        assert dict(first["result"], timings={}) == dict(expected["result"], timings={})

        digested, parsed = [], []
        digest, loads = service_module.document_digest, json.loads
        monkeypatch.setattr(
            service_module,
            "document_digest",
            lambda doc: digested.append(doc) or digest(doc),
        )
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
        status, second = _handle_job(service, "explain", job)
        assert status == 200 and second["cached"]
        assert [doc for doc in digested if doc == document["database"]] == []
        assert parsed == [] and len(count_decodes) == 1

    def test_raw_body_needs_a_digest_and_parses_once(
        self, running_question, monkeypatch
    ):
        document = _request(running_question).to_json()
        body = json.dumps(document).encode("ascii")
        with pytest.raises(TypeError, match="digest"):
            InlineDatabase(body)
        inline = InlineDatabase(body, 12345)
        parsed, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
        assert inline.document == document["database"]
        inline.decode()
        assert inline.document == document["database"]
        assert inline.digest == 12345 and len(parsed) == 1


class TestScenarioShorthand:
    def test_matches_direct_run(self):
        scenario = get_scenario("Q1")
        direct = explain(scenario.question(20), alternatives=scenario.alternatives)
        response = ExplanationService().explain(ExplainRequest(scenario="Q1", scale=20))
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]
        assert response.result.n_sas == direct.n_sas

    def test_directed_alternative_groups_served(self):
        # T2's alternatives use the directed (from, [to, ...]) pair form.
        scenario = get_scenario("T2")
        direct = explain(scenario.question(20), alternatives=scenario.alternatives)
        response = ExplanationService().explain(ExplainRequest(scenario="T2", scale=20))
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]


class TestConcurrentDispatch:
    def test_submit_fans_out_and_caches(self, running_question):
        service = ExplanationService(cache_size=8, max_concurrency=4)
        futures = [service.submit(_request(running_question)) for _ in range(6)]
        responses = [f.result(timeout=120) for f in futures]
        sets = {
            tuple(tuple(sorted(s)) for s in r.explanation_sets()) for r in responses
        }
        assert len(sets) == 1  # all six agree
        stats = service.cache_stats()
        assert stats["hits"] + stats["misses"] == 6
        assert stats["hits"] >= 1  # repeats were served from the cache
        service.close()

    def test_close_is_idempotent(self):
        service = ExplanationService()
        service.close()
        service.close()


class TestRequestWire:
    def test_request_round_trip_inline_db(self, running_question):
        request = _request(running_question, name="rt")
        decoded = ExplainRequest.from_json(request.to_json())
        assert decoded.name == "rt"
        response_a = ExplanationService().explain(decoded)
        response_b = ExplanationService().explain(request)
        assert response_a.explanation_sets() == response_b.explanation_sets()

    def test_request_round_trip_scenario(self):
        request = ExplainRequest(scenario="Q1", scale=20)
        decoded = ExplainRequest.from_json(request.to_json())
        assert decoded.scenario == "Q1" and decoded.scale == 20

    def test_response_wire_document(self, running_question):
        response = ExplanationService().explain(_request(running_question))
        document = response.to_json()
        assert document["format"] == 2 and document["kind"] == "explain-response"
        assert document["result"]["kind"] == "result"
        assert document["cached"] is False


class TestQuery:
    def test_query_falls_back_to_service_default_partitions(
        self, person_db, running_query
    ):
        service = ExplanationService(options=ExplainOptions(partitions=2))
        bag, metrics = service.query(running_query, person_db, ExplainOptions())
        assert bag == running_query.evaluate(person_db)
        assert {m.partitions for m in metrics.operators.values()} == {2}
        _, explicit = service.query(running_query, person_db, ExplainOptions(partitions=3))
        assert {m.partitions for m in explicit.operators.values()} == {3}
