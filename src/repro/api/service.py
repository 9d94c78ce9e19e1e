"""Request/response layer: ``ExplanationService`` and its dataclasses.

The service is the stateful, production-facing entry point the ROADMAP's
north star asks for.  It owns

* a **database registry** — named :class:`~repro.engine.database.Database`
  objects requests can reference instead of shipping data inline.  The
  registry is *versioned*: :meth:`ExplanationService.mutate_database`
  advances a name to the next version of its chain
  (``Database.apply_mutations``), and cache keys for named databases fold
  in the version stamps of exactly the relations a query reads, so a
  mutation leaves every entry that does not read a mutated relation warm
  (a dependency map actively purges the entries that do);
* **prepared questions** — every request is resolved and validated
  (Definition 5) before work is dispatched, so malformed or ill-posed
  questions fail fast with a typed error;
* a **result cache** — an LRU keyed by a 128-bit blake2b digest
  (:func:`~repro.wire.document_digest`) of the request's canonical wire
  encoding, with hit/miss counters surfaced in every response.  An inline
  database enters the key as the digest of its wire document, taken once
  (in a sharded worker, by the relay, which forwards it with the raw
  body); the database itself is decoded only on a miss, so a hit costs at
  most that one pass and a lookup.  The key covers
  everything that determines the *explanations* (query, NIP, database
  content, alternatives, SA toggles); execution-only knobs
  (partitions, optimize, engine) are excluded because the engine's
  equivalence guarantees make results independent of them — the same cached
  entry serves all of them, and the differential fuzz oracle cross-checks
  the service against direct :func:`~repro.whynot.explain.explain` to keep
  that assumption honest;
* **concurrent dispatch** — :meth:`ExplanationService.submit` fans requests
  out over a thread pool; each request evaluates in the calling process.

:func:`~repro.whynot.explain.explain` remains the in-process computational
core; the service wraps it (and the scenario registry) with the request
lifecycle, so existing callers and tests keep working unchanged.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.engine.columnar import ENGINE_NAMES
from repro.engine.database import Database, Mutation
from repro.engine.deltas import read_tables
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionMetrics
from repro.nested.values import Bag
from repro.whynot.alternatives import TooManyAlternatives
from repro.whynot.explain import WhyNotResult, explain
from repro.whynot.matching import matching_tuples
from repro.whynot.question import IllPosedQuestion, WhyNotQuestion
from repro.whynot.summarize import ConceptHierarchy, attach_summaries, resolve_summarize
from repro.wire import (
    WIRE_VERSION,
    check_envelope,
    database_from_json,
    database_info_to_json,
    database_to_json,
    document_digest,
    envelope,
    query_from_json,
    query_to_json,
    result_to_json,
    value_from_json,
    value_to_json,
)
from repro.wire.payloads import alternatives_from_json, alternatives_to_json

#: Serving API version (the ``/v1/...`` HTTP prefix).
API_VERSION = "v1"

#: Largest scenario ``scale`` the service accepts from a request.  ``scale``
#: is network-controlled input that sizes a synchronous database build, so
#: it is bounded like any other request knob (the paper's evaluation uses
#: scales up to the low hundreds).
MAX_SCENARIO_SCALE = 10_000


class UnknownDatabase(KeyError):
    """Raised when a request references a database name not in the registry."""


def scenarios_listing() -> "list[dict]":
    """Metadata of every registered paper scenario (the ``/v1/scenarios`` body).

    Module-level so front ends that own no :class:`ExplanationService`
    instance (the sharded dispatcher answers this route without a worker
    round-trip) serve the identical listing.
    """
    from repro.scenarios import SCENARIOS

    return [
        {
            "name": s.name,
            "description": s.description,
            "default_scale": s.default_scale,
            "alternatives": [list(g) for g in s.alternatives],
            "gold": sorted(s.gold) if s.gold is not None else None,
            "notes": s.notes,
        }
        for s in SCENARIOS.values()
    ]


class BadRequest(ValueError):
    """Raised when a request payload is structurally invalid or incomplete."""


#: Option fields of wire format 2 that no longer select anything; requests
#: may still carry them and :meth:`ExplainOptions.from_json` drops them.
LEGACY_OPTION_FIELDS = ("backend", "workers")


def _is_count(value: Any) -> bool:
    """True for a JSON integer >= 1 (``bool`` is not an integer here)."""
    return type(value) is int and value >= 1


@dataclass(frozen=True)
class ExplainOptions:
    """Execution and algorithm knobs of one explain request.

    ``optimize``/``engine`` select *how* the engine runs (and default to the
    ``REPRO_OPTIMIZE``/``REPRO_ENGINE`` environment, like the CLI);
    ``partitions`` applies to
    plain query evaluation only (:meth:`ExplanationService.query` /
    ``POST /v1/query`` — the explain pipeline's tracing step manages its own
    partitioning); ``use_schema_alternatives``/``revalidate``/``max_sas``
    select *what* is computed (the paper's RP vs RPnoSA vs no-revalidation
    ablation) and therefore participate in the cache key.  ``engine`` is an
    execution-only knob — explanations are engine-invariant, so it stays out
    of the cache key.

    ``summarize`` requests ontology-aware explanation summaries
    (:mod:`repro.whynot.summarize`): ``None`` (default) skips them, ``True``
    summarizes with defaults, and an object with any of
    :data:`~repro.whynot.summarize.SUMMARIZE_SPEC_FIELDS` supplies a concept
    hierarchy (inline :class:`~repro.whynot.summarize.ConceptHierarchy` or
    its wire document), the group budget and the witness sample size.  It
    changes response content, so it participates in the cache key.
    """

    partitions: Optional[int] = None
    optimize: Optional[bool] = None
    engine: Optional[str] = None
    use_schema_alternatives: bool = True
    revalidate: bool = True
    max_sas: int = 64
    summarize: Any = None

    def summarize_json(self) -> Any:
        """The ``summarize`` spec in canonical JSON form (hierarchy encoded)."""
        spec = self.summarize
        if isinstance(spec, dict):
            spec = dict(spec)
            if isinstance(spec.get("hierarchy"), ConceptHierarchy):
                spec["hierarchy"] = spec["hierarchy"].to_json()
        return spec

    def semantic_fields(self) -> dict:
        """The option fields that change explanation content (cache key part)."""
        return {
            "use_schema_alternatives": self.use_schema_alternatives,
            "revalidate": self.revalidate,
            "max_sas": self.max_sas,
            "summarize": self.summarize_json(),
        }

    def to_json(self) -> dict:
        """Encode as a plain JSON object (all fields, defaults included)."""
        return {
            "partitions": self.partitions,
            "optimize": self.optimize,
            "engine": self.engine,
            "use_schema_alternatives": self.use_schema_alternatives,
            "revalidate": self.revalidate,
            "max_sas": self.max_sas,
            "summarize": self.summarize_json(),
        }

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "ExplainOptions":
        """Decode :meth:`to_json` output, validating every field.

        Unknown fields and ill-typed values raise :class:`BadRequest`.  The
        legacy ``backend`` (``"serial"``/``"process"``) and ``workers``
        (a positive integer) fields are accepted and dropped; ``max_sas:
        null`` means the default.
        """
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise BadRequest("options must be a JSON object")
        extra = set(data) - set(cls.__dataclass_fields__) - set(LEGACY_OPTION_FIELDS)
        if extra:
            raise BadRequest(f"unknown option fields: {sorted(extra)}")
        nullable = (
            ("backend", lambda v: v in ("serial", "process"), "'serial' or 'process'"),
            ("workers", _is_count, "a positive integer"),
            ("partitions", _is_count, "a positive integer"),
            ("max_sas", _is_count, "a positive integer"),
            ("optimize", lambda v: isinstance(v, bool), "a boolean"),
            ("engine", lambda v: v in ENGINE_NAMES, f"one of {list(ENGINE_NAMES)}"),
        )
        for name, ok, expected in nullable:
            value = data.get(name)
            if value is not None and not ok(value):
                raise BadRequest(f"option {name!r} must be {expected} or null, got {value!r}")
        for name in ("use_schema_alternatives", "revalidate"):
            if name in data and not isinstance(data[name], bool):
                raise BadRequest(f"option {name!r} must be a boolean, got {data[name]!r}")
        fields = {
            k: v
            for k, v in data.items()
            if k not in LEGACY_OPTION_FIELDS and not (k == "max_sas" and v is None)
        }
        return cls(**fields)


def _database_envelope(document: Any) -> dict:
    """*document* if it is a ``database`` wire document, else :class:`BadRequest`."""
    try:
        return check_envelope(document, "database")
    except ValueError as exc:
        raise BadRequest(f"invalid inline database: {exc}") from None


class InlineDatabase:
    """An inline database, kept undecoded: its digest plus its source.

    The source is the parsed ``database`` wire document, or the raw bytes
    of the request body that carries it — the form a sharded worker gets,
    together with the digest the relay took (:func:`repro.api.sharded.forward`).
    ``digest`` is the document's :func:`~repro.wire.document_digest` either
    way, the database part of the cache key.  A parsed document's envelope
    is checked up front and its digest taken when first asked for; raw
    bytes come with the relay's digest (required), their envelope already
    checked by the relay, and are parsed at most once, when the document is
    first needed.  :meth:`decode` builds the :class:`Database` on its first
    call and returns that same object afterwards, so a request whose answer
    is cached never reads the database.
    """

    __slots__ = ("source", "_digest", "_db", "_lock")

    def __init__(self, source: "dict | bytes", digest: Optional[int] = None):
        if isinstance(source, bytes):
            if digest is None:
                raise TypeError("a raw-body InlineDatabase needs the relay's digest")
        else:
            source = _database_envelope(source)
        self.source = source
        self._digest = digest
        self._db: Optional[Database] = None
        self._lock = threading.Lock()

    @property
    def digest(self) -> int:
        """The database document's 128-bit digest (the cache-key part)."""
        if self._digest is None:
            self._digest = document_digest(self.source)
        return self._digest

    @property
    def document(self) -> dict:
        """The ``database`` wire document."""
        with self._lock:
            return self._document()

    def _document(self) -> dict:
        # Called under the lock: a raw source is parsed once and replaced.
        if isinstance(self.source, bytes):
            self.source = json.loads(self.source)["database"]
        return self.source

    def decode(self) -> Database:
        """The decoded database (:class:`BadRequest` for an ill-typed body)."""
        with self._lock:
            if self._db is None:
                try:
                    self._db = database_from_json(self._document())
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise BadRequest(f"invalid inline database: {exc!r}") from None
            return self._db


def request_database(field: Any) -> "str | InlineDatabase":
    """A request's ``database`` field: a registered name stays a name.

    An inline wire document becomes an :class:`InlineDatabase`, and so does
    the ``(digest, raw body)`` pair a sharded relay forwards in its place.
    """
    if isinstance(field, str):
        return field
    if isinstance(field, tuple):
        digest, body = field
        return InlineDatabase(body, digest)
    return InlineDatabase(field)


@dataclass
class ExplainRequest:
    """One why-not request: ⟨Q, D, t⟩ plus alternatives and options.

    Three forms are accepted:

    * **explicit** — ``query`` + ``nip`` + ``database`` (a registered name,
      an inline :class:`Database`, or an :class:`InlineDatabase` — the form
      :meth:`from_json` produces for an inline wire document);
    * **textual** — ``text`` (an ``.rq`` program with a ``whynot`` block;
      grammar: ``docs/LANGUAGE.md``) + ``database``: the server parses,
      validates and lowers the program, taking query, NIP and attribute
      alternatives from the text;
    * **scenario shorthand** — ``scenario`` (+ optional ``scale``): the
      server builds query, database, NIP and attribute alternatives from
      its scenario registry.
    """

    query: Optional[Any] = None
    nip: Any = None
    database: "str | Database | InlineDatabase | None" = None
    alternatives: Sequence[Sequence[str]] = ()
    options: ExplainOptions = field(default_factory=ExplainOptions)
    name: str = ""
    scenario: Optional[str] = None
    scale: Optional[int] = None
    text: Optional[str] = None
    #: Opt-in: when the "missing" answer is actually present (the question is
    #: ill-posed, e.g. after an insert satisfied it), return a typed
    #: :class:`SatisfiedResponse` instead of raising ``IllPosedQuestion``.
    satisfied_ok: bool = False

    def _database_json(self) -> "str | dict":
        if isinstance(self.database, str):
            return self.database
        if isinstance(self.database, InlineDatabase):
            return self.database.document
        return database_to_json(self.database)

    def to_json(self) -> dict:
        """Encode as an ``explain-request`` wire document (an inline
        database document from :meth:`from_json` is re-emitted unchanged)."""
        body: dict = {"options": self.options.to_json(), "name": self.name}
        if self.satisfied_ok:
            body["satisfied_ok"] = True
        if self.text is not None:
            if self.database is None:
                raise BadRequest("text request needs a database (name or inline)")
            body["text"] = self.text
            body["database"] = self._database_json()
        elif self.scenario is not None:
            body["scenario"] = self.scenario
            if self.scale is not None:
                body["scale"] = self.scale
        else:
            if self.query is None or self.database is None:
                raise BadRequest(
                    "request needs either a scenario name or query+nip+database"
                )
            body["query"] = query_to_json(self.query)
            body["nip"] = value_to_json(self.nip)
            body["alternatives"] = alternatives_to_json(self.alternatives)
            body["database"] = self._database_json()
        return envelope("explain-request", body)

    @classmethod
    def from_json(cls, data: dict) -> "ExplainRequest":
        """Decode :meth:`to_json` output.

        A database stays a name reference or becomes an
        :class:`InlineDatabase` (:func:`request_database`): its envelope is
        checked here, but it is digested only when the cache key needs it
        and decoded only when a cache miss does.
        """
        check_envelope(data, "explain-request")
        options = ExplainOptions.from_json(data.get("options"))
        satisfied_ok = bool(data.get("satisfied_ok", False))
        if "text" in data:
            if not isinstance(data["text"], str):
                raise BadRequest("the 'text' field must be an .rq program string")
            db_field = data.get("database")
            if db_field is None:
                raise BadRequest("text request needs a database (name or inline)")
            return cls(
                text=data["text"],
                database=request_database(db_field),
                options=options,
                name=data.get("name", ""),
                satisfied_ok=satisfied_ok,
            )
        if "scenario" in data:
            return cls(
                scenario=data["scenario"],
                scale=data.get("scale"),
                options=options,
                name=data.get("name", ""),
                satisfied_ok=satisfied_ok,
            )
        try:
            query = query_from_json(data["query"])
            nip = value_from_json(data["nip"])
            db_field = data["database"]
        except KeyError as exc:
            raise BadRequest(f"explain-request is missing field {exc}") from None
        return cls(
            query=query,
            nip=nip,
            database=request_database(db_field),
            alternatives=alternatives_from_json(data.get("alternatives")),
            options=options,
            name=data.get("name", ""),
            satisfied_ok=satisfied_ok,
        )


@dataclass
class ExplainResponse:
    """One explain answer: the result plus serving metadata.

    ``cached`` is True when the response was served from the LRU without
    re-tracing; ``cache`` carries the service-wide hit/miss counters at
    response time.
    """

    result: WhyNotResult
    cached: bool
    cache: dict
    api_version: str = API_VERSION

    @property
    def explanations(self):
        """The ranked :class:`~repro.whynot.approximate.Explanation` list."""
        return self.result.explanations

    def explanation_sets(self) -> "list[frozenset[str]]":
        """Ranked explanations as label sets (the Table-8 comparison format)."""
        return [frozenset(e.labels) for e in self.result.explanations]

    def to_json(self) -> dict:
        """Encode as an ``explain-response`` wire document."""
        return envelope(
            "explain-response",
            {
                "api_version": self.api_version,
                "cached": self.cached,
                "cache": dict(self.cache),
                "result": result_to_json(self.result),
            },
        )


@dataclass
class SatisfiedResponse:
    """Typed "question satisfied" answer (opt-in via ``satisfied_ok``).

    Returned instead of a 4xx ``IllPosedQuestion`` error when the request
    sets ``satisfied_ok`` and the "missing" answer is actually present —
    the normal outcome after a mutation inserts a row that answers the
    question.  ``witnesses`` lists result tuples matching the NIP (at most
    three, like the error message).
    """

    witnesses: "list[Any]"
    cache: dict
    cached: bool = False
    satisfied: bool = True
    api_version: str = API_VERSION

    def to_json(self) -> dict:
        """Encode as an ``explain-response`` document with ``satisfied: true``."""
        return envelope(
            "explain-response",
            {
                "api_version": self.api_version,
                "cached": self.cached,
                "cache": dict(self.cache),
                "satisfied": True,
                "witnesses": [value_to_json(w) for w in self.witnesses],
            },
        )


class ExplanationService:
    """Stateful explanation server core (registry + cache + dispatch).

    Thread-safe: the registry and cache take an internal lock, and
    :meth:`submit` dispatches requests on a shared thread pool, so one
    service instance can back a threaded HTTP front end
    (:mod:`repro.api.http`) directly.
    """

    def __init__(
        self,
        databases: Optional[dict] = None,
        cache_size: int = 128,
        options: Optional[ExplainOptions] = None,
        max_concurrency: int = 4,
    ):
        self._lock = threading.Lock()
        self._databases: "OrderedDict[str, tuple[Database, int]]" = OrderedDict()
        self._registrations = 0
        self._cache: "OrderedDict[int, WhyNotResult]" = OrderedDict()
        #: Dependency map: cache key -> (database name, relations the cached
        #: query reads).  Lets :meth:`mutate_database` purge exactly the
        #: entries whose read set intersects the mutated relations.
        self._cache_deps: "dict[int, tuple[str, frozenset[str]]]" = {}
        self.cache_size = cache_size
        self.hits = 0
        self.misses = 0
        self.default_options = options or ExplainOptions()
        self._max_concurrency = max_concurrency
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Small LRU of built scenario databases — bounded, because ``scale``
        #: arrives from the network and every distinct value builds a fresh
        #: database.
        self._scenario_dbs: "OrderedDict[tuple, Database]" = OrderedDict()
        self._scenario_db_limit = 16
        for name, db in (databases or {}).items():
            self.register_database(name, db)

    # -- registry -------------------------------------------------------------

    def register_database(self, name: str, db: Database) -> None:
        """Register (or replace) a named database for by-name requests."""
        with self._lock:
            self._registrations += 1
            self._databases[name] = (db, self._registrations)

    def database(self, name: str) -> Database:
        """Look up a registered database (``UnknownDatabase`` when absent)."""
        with self._lock:
            try:
                return self._databases[name][0]
            except KeyError:
                raise UnknownDatabase(
                    f"no database registered as {name!r}; "
                    f"have {sorted(self._databases)}"
                ) from None

    def databases(self) -> "list[str]":
        """Registered database names, in registration order."""
        with self._lock:
            return list(self._databases)

    def mutate_database(
        self,
        name: str,
        inserts: "Any | Mutation | None" = None,
        deletes: Optional[Any] = None,
    ) -> Database:
        """Advance the named database to its next version and return it.

        *inserts*/*deletes* are per-relation row mappings (or *inserts* a
        prebuilt :class:`~repro.engine.database.Mutation`); the new version
        is produced by ``Database.apply_mutations`` and replaces the name's
        registry entry **without** bumping the registration token, so cache
        keys stay comparable across versions.  Cached entries whose read set
        intersects the mutated relations are purged via the dependency map;
        every other entry (same or other databases) stays warm.

        Raises :class:`UnknownDatabase` for an unknown name and the
        underlying ``KeyError``/``ValueError`` for invalid mutations.
        """
        with self._lock:
            entry = self._databases.get(name)
            if entry is None:
                raise UnknownDatabase(
                    f"no database registered as {name!r}; "
                    f"have {sorted(self._databases)}"
                )
            db, token = entry
            new_db = db.apply_mutations(inserts, deletes)
            self._databases[name] = (new_db, token)
            mutated = set(new_db.last_mutation.tables())
            stale = [
                key
                for key, (dep_name, reads) in self._cache_deps.items()
                if dep_name == name and reads & mutated
            ]
            for key in stale:
                self._cache.pop(key, None)
                self._cache_deps.pop(key, None)
        return new_db

    def database_info(self, name: str) -> dict:
        """One registered database's ``database-info`` document
        (name, chain version id, per-table row counts and version stamps)."""
        return database_info_to_json(name, self.database(name))

    def database_listing(self) -> dict:
        """The ``GET /v1/databases`` body: every registered database's info."""
        return envelope(
            "database-listing",
            {"databases": [self.database_info(name) for name in self.databases()]},
        )

    def scenarios(self) -> "list[dict]":
        """Metadata of every registered paper scenario (for ``/v1/scenarios``)."""
        return scenarios_listing()

    # -- request lifecycle ----------------------------------------------------

    def prepare(self, request: ExplainRequest) -> "tuple[WhyNotQuestion, list, int]":
        """Resolve and validate a request into ``(question, alternatives, key)``.

        Raises :class:`BadRequest` for structurally invalid requests,
        :class:`UnknownDatabase` for unresolved database names, and
        :class:`~repro.whynot.question.IllPosedQuestion` when the "missing"
        answer is already present (Definition 5).
        """
        key, build = self._resolve(request)
        question, alternatives = build()
        question.validate()
        return question, alternatives, key

    def _resolve_database(self, request: ExplainRequest):
        """Resolve the request's database field into ``(load, cache_token)``.

        ``load()`` returns the :class:`Database`.  The token never needs it
        decoded: a name keys by its registration, an inline wire document by
        the digest taken when the request was decoded.
        """
        database = request.database
        if isinstance(database, str):
            db = self.database(database)
            with self._lock:
                token = self._databases[database][1]
            # The version-aware part of the key — the stamps of the relations
            # the query actually reads — is appended in ``_resolve`` once the
            # query is known.
            return (lambda: db), ("named", database, token)
        if isinstance(database, InlineDatabase):
            return database.decode, ("inline", database.digest)
        return (lambda: database), ("inline", document_digest(database_to_json(database)))

    def _resolve(self, request: ExplainRequest):
        """The request's cache key and a thunk building ``(question, alternatives)``.

        Nothing validates here.  The key is computed before any inline
        database is decoded; the thunk decodes it, so only a cache miss pays
        for that.  The ``.rq`` text path decodes first, because its compiler
        needs the schemas.
        """
        if request.options.summarize is not None:
            # Reject malformed summarize specs before any cache or engine
            # work — resolution is repeated (cheaply) after the explain run.
            try:
                resolve_summarize(request.options.summarize)
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
        if request.text is not None:
            from repro.lang import compile_program

            if request.database is None:
                raise BadRequest("text request needs a database (name or inline)")
            load, cache_token = self._resolve_database(request)
            lowered = compile_program(request.text, database=load())
            if not lowered.has_question:
                raise BadRequest(
                    "the text program has no whynot block — use POST /v1/query "
                    "to evaluate a plain query"
                )
            query, nip, name = lowered.query, lowered.nip, request.name or lowered.name
            alternatives = list(lowered.alternatives)
        elif request.scenario is not None:
            from repro.scenarios import SCENARIOS, get_scenario

            try:
                scenario = get_scenario(request.scenario)
            except KeyError:
                raise BadRequest(
                    f"unknown scenario {request.scenario!r}; "
                    f"have {sorted(SCENARIOS)}"
                ) from None
            scale = request.scale if request.scale is not None else scenario.default_scale
            if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
                raise BadRequest(f"scale must be a positive integer, got {scale!r}")
            if scale > MAX_SCENARIO_SCALE:
                raise BadRequest(
                    f"scale {scale} exceeds the serving limit {MAX_SCENARIO_SCALE}"
                )
            cache_token = ("scenario", scenario.name, scale)
            with self._lock:
                entry = self._scenario_dbs.get((scenario.name, scale))
                if entry is not None:
                    self._scenario_dbs.move_to_end((scenario.name, scale))
            if entry is None:
                entry = scenario.make_db(scale)
                with self._lock:
                    self._scenario_dbs[(scenario.name, scale)] = entry
                    while len(self._scenario_dbs) > self._scenario_db_limit:
                        self._scenario_dbs.popitem(last=False)
            load = lambda: entry  # noqa: E731
            query, nip, name = scenario.make_query(), scenario.make_nip(), scenario.name
            alternatives = list(scenario.alternatives)
        else:
            if request.query is None or request.nip is None or request.database is None:
                raise BadRequest(
                    "request needs either a scenario name or query+nip+database"
                )
            load, cache_token = self._resolve_database(request)
            query, nip, name = request.query, request.nip, request.name
            alternatives = list(request.alternatives)
        if cache_token[0] == "named":
            # Version-aware keys: fold in the stamps of exactly the relations
            # the query reads.  Mutating any *other* relation of the same
            # database (or any other database) leaves this key — and hence
            # the cached entry — valid and warm.
            db = load()
            stamps = tuple(
                (t, db.relation_stamp(t)) for t in sorted(read_tables(query)) if t in db
            )
            if not stamps:  # no reads resolved: be conservative, pin the version
                stamps = (("*", (db.version_id, db.version)),)
            cache_token = cache_token + (stamps,)
        key = document_digest(
            {
                "db": cache_token,
                "query": query_to_json(query),
                "nip": value_to_json(nip),
                "alternatives": alternatives_to_json(alternatives),
                "options": request.options.semantic_fields(),
            }
        )
        return key, lambda: (WhyNotQuestion(query, load(), nip, name=name), alternatives)

    def explain(
        self, request: ExplainRequest, use_cache: bool = True
    ) -> "ExplainResponse | SatisfiedResponse":
        """Answer one request (through the cache unless ``use_cache=False``).

        With ``request.satisfied_ok`` set, a question whose "missing" answer
        is already present returns a :class:`SatisfiedResponse` instead of
        raising ``IllPosedQuestion`` (satisfied answers are never cached).
        """
        key, build = self._resolve(request)
        if use_cache and self.cache_size > 0:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.hits += 1
                    return ExplainResponse(cached, True, self._stats_locked())
                self.misses += 1
        question, alternatives = build()
        try:
            question.validate()
        except IllPosedQuestion:
            if not request.satisfied_ok:
                raise
            witnesses = matching_tuples(question.result(), question.nip)[:3]
            with self._lock:
                return SatisfiedResponse(witnesses, self._stats_locked())
        options = request.options
        result = explain(
            question,
            alternatives=alternatives,
            use_schema_alternatives=options.use_schema_alternatives,
            revalidate=options.revalidate,
            max_sas=options.max_sas,
            validate=False,
            optimize=(
                options.optimize
                if options.optimize is not None
                else self.default_options.optimize
            ),
            engine=options.engine or self.default_options.engine,
        )
        if options.summarize is not None:
            hierarchy, max_summaries, sample = resolve_summarize(options.summarize)
            attach_summaries(
                result, hierarchy, max_summaries=max_summaries, sample=sample
            )
        if use_cache and self.cache_size > 0:
            with self._lock:
                self._cache[key] = result
                self._cache.move_to_end(key)
                if isinstance(request.database, str):
                    self._cache_deps[key] = (
                        request.database,
                        read_tables(question.query),
                    )
                while len(self._cache) > self.cache_size:
                    evicted, _ = self._cache.popitem(last=False)
                    self._cache_deps.pop(evicted, None)
        with self._lock:
            return ExplainResponse(result, False, self._stats_locked())

    def submit(self, request: ExplainRequest, use_cache: bool = True) -> "Future[ExplainResponse]":
        """Dispatch a request on the service thread pool (concurrent serving)."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_concurrency,
                    thread_name_prefix="repro-api",
                )
            pool = self._pool
        return pool.submit(self.explain, request, use_cache)

    def query(
        self,
        query: Any,
        database: "str | Database",
        options: Optional[ExplainOptions] = None,
    ) -> "tuple[Bag, ExecutionMetrics]":
        """Evaluate a plain query through the partitioned executor.

        Returns ``(result bag, execution metrics)``; ``options`` selects
        partitions/optimize/engine for this run, each falling back to the
        service's default options and then to the built-in default.
        """
        options = options or self.default_options
        db = self.database(database) if isinstance(database, str) else database
        executor = Executor(
            num_partitions=options.partitions or self.default_options.partitions or 4,
            optimize=(
                options.optimize
                if options.optimize is not None
                else self.default_options.optimize
            ),
            engine=options.engine or self.default_options.engine,
        )
        result = executor.execute(query, db)
        return result, executor.last_metrics

    # -- cache ----------------------------------------------------------------

    def _stats_locked(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}

    def cache_stats(self) -> dict:
        """Current cache counters: ``{"hits", "misses", "size"}``."""
        with self._lock:
            return self._stats_locked()

    def clear_cache(self) -> None:
        """Drop every cached result (counters keep accumulating)."""
        with self._lock:
            self._cache.clear()
            self._cache_deps.clear()

    def close(self) -> None:
        """Shut the dispatch pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


#: Error types the HTTP layer maps to 4xx responses.
CLIENT_ERRORS = (
    BadRequest,
    UnknownDatabase,
    IllPosedQuestion,
    TooManyAlternatives,
    ValueError,
    KeyError,
)
