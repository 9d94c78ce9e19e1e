"""HTTP front end: endpoints, error mapping, client round-trips.

Boots a real :class:`~repro.api.http.ApiServer` on an ephemeral port in a
background thread and talks to it through :class:`repro.api.Client` — the
same path a non-Python caller takes, minus the process boundary (the CI
``api`` job covers the subprocess variant via ``tools/api_smoke.py``).
The bad-inline-database checks also boot the sharded front end, because
both must map the same error the same way.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ApiError, Client, ExplainOptions, ExplainRequest, ExplanationService
from repro.api.http import make_server
from repro.scenarios import get_scenario
from repro.whynot.explain import explain


@pytest.fixture(scope="module")
def server():
    server = make_server(ExplanationService(cache_size=8))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()


@pytest.fixture(scope="module")
def client(server):
    host, port = server.server_address[:2]
    return Client(f"http://{host}:{port}")


def _post_raw(server, path, body: bytes, content_type="application/json"):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHealthAndScenarios:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["wire_format"] == 2
        assert set(health["cache"]) == {"hits", "misses", "size"}

    def test_scenarios(self, client):
        names = {s["name"] for s in client.scenarios()}
        assert {"Q1", "Q10", "T2"} <= names


class TestExplainEndpoint:
    def test_scenario_shorthand_matches_in_process(self, client):
        scenario = get_scenario("Q1")
        direct = explain(scenario.question(20), alternatives=scenario.alternatives)
        response = client.explain(scenario="Q1", scale=20)
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]
        assert response.n_sas == direct.n_sas

    def test_repeat_is_served_from_cache(self, client):
        cold = client.explain(scenario="Q4", scale=20)
        warm = client.explain(scenario="Q4", scale=20)
        assert not cold.cached and warm.cached
        assert warm.cache["hits"] >= cold.cache["hits"] + 1
        assert warm.explanation_sets() == cold.explanation_sets()

    def test_inline_database_request(self, client, running_question):
        direct = explain(running_question)
        response = client.explain(
            ExplainRequest(
                query=running_question.query,
                nip=running_question.nip,
                database=running_question.db,
            )
        )
        assert response.explanation_sets() == [
            frozenset(e.labels) for e in direct.explanations
        ]


class TestQueryEndpoint:
    def test_query_round_trip(self, client, person_db, running_query):
        bag, metrics = client.query(
            running_query, person_db, ExplainOptions(partitions=3)
        )
        assert bag == running_query.evaluate(person_db)
        assert metrics.operators  # per-operator counters came back


class TestErrorMapping:
    def test_unknown_route_404(self, client):
        with pytest.raises(ApiError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ApiError) as excinfo:
            client._request("GET", "/explain")
        assert excinfo.value.status == 405

    def test_invalid_json_400(self, server):
        status, payload = _post_raw(server, "/v1/explain", b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "ValueError"

    def test_unknown_scenario_400(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.explain(scenario="Q999")
        assert excinfo.value.status == 400
        assert "unknown scenario" in str(excinfo.value)

    def test_unsupported_wire_version_400(self, server):
        status, payload = _post_raw(
            server, "/v1/explain", json.dumps({"format": 99}).encode()
        )
        assert status == 400
        assert "unsupported wire format" in payload["error"]["message"]

    def test_invalid_option_400(self, server):
        document = {"format": 2, "kind": "explain-request", "scenario": "Q1",
                    "scale": 5, "options": {"max_sas": "5"}}
        status, payload = _post_raw(server, "/v1/explain", json.dumps(document).encode())
        assert status == 400
        assert payload["error"]["type"] == "BadRequest"

    def test_too_many_alternatives_400(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.explain(scenario="Q4", scale=5, options=ExplainOptions(max_sas=1))
        assert excinfo.value.status == 400
        assert "reduce the alternative groups" in str(excinfo.value)

    def test_empty_body_400(self, server):
        status, payload = _post_raw(server, "/v1/explain", b"")
        assert status == 400


@pytest.fixture(params=["serve", "serve --processes 2"])
def fresh_server(request):
    """A front end with a cold cache: in-process, or sharded over two workers."""
    if request.param == "serve":
        server = make_server(ExplanationService(cache_size=8))
    else:
        from repro.api.sharded import ShardedConfig, make_sharded_server

        server = make_sharded_server(ShardedConfig(processes=2, cache_size=8))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    if request.param == "serve":
        server.service.close()
    else:
        server.dispatcher.close()


class TestBadInlineDatabase:
    """An inline database whose envelope passes but whose rows are ill-typed
    is decoded only on a miss — it must still answer a clean 400, cold or
    after a valid request warmed the same question, on both front ends."""

    def _post(self, server, document):
        return _post_raw(server, "/v1/explain", json.dumps(document).encode())

    def test_ill_typed_rows_400_cold_and_warm(self, fresh_server, running_question):
        valid = ExplainRequest(
            query=running_question.query,
            nip=running_question.nip,
            database=running_question.db,
        ).to_json()
        bad = json.loads(json.dumps(valid))
        tables = bad["database"]["tables"]
        tables["person"] = dict(tables["person"], rows=5)

        status, cold = self._post(fresh_server, bad)
        assert (status, cold["error"]["type"]) == (400, "BadRequest")
        assert "invalid inline database" in cold["error"]["message"]

        status, warmed = self._post(fresh_server, valid)
        assert status == 200 and not warmed["cached"]
        status, warm = self._post(fresh_server, bad)
        assert (status, warm["error"]) == (400, cold["error"])
        status, hit = self._post(fresh_server, valid)
        assert status == 200 and hit["cached"]
        assert hit["cache"]["hits"] == 1  # the bad requests never hit

    def test_bad_envelope_400_cold_and_warm(self, fresh_server, running_question):
        """A database document of the wrong kind is rejected before any
        cache lookup, with the same ``BadRequest`` on both front ends."""
        valid = ExplainRequest(
            query=running_question.query,
            nip=running_question.nip,
            database=running_question.db,
        ).to_json()
        bad = json.loads(json.dumps(valid))
        bad["database"]["kind"] = "relation"
        expected = {
            "type": "BadRequest",
            "message": "invalid inline database: expected a 'database' payload, "
            "got 'relation'",
        }

        status, cold = self._post(fresh_server, bad)
        assert (status, cold["error"]) == (400, expected)
        status, warmed = self._post(fresh_server, valid)
        assert status == 200 and not warmed["cached"]
        status, warm = self._post(fresh_server, bad)
        assert (status, warm["error"]) == (400, expected)

    def test_query_ill_typed_rows_400(self, fresh_server, running_query, person_db):
        from repro.wire import database_to_json, query_to_json

        database = database_to_json(person_db)
        database["tables"]["person"]["rows"] = 5
        document = {
            "format": 2,
            "kind": "query-request",
            "query": query_to_json(running_query),
            "database": database,
        }
        status, payload = _post_raw(
            fresh_server, "/v1/query", json.dumps(document).encode()
        )
        assert (status, payload["error"]["type"]) == (400, "BadRequest")
        assert "invalid inline database" in payload["error"]["message"]
