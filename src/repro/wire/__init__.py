"""Public versioned JSON wire format (format v2) for the whole value model.

This package is the stable serialization surface of the reproduction: nested
values and types, expressions, operators and query plans, databases, why-not
questions (NIPs + attribute-alternative groups), explanation results and
execution metrics all round-trip through tagged JSON.  It is what the
serving layer (:mod:`repro.api`) speaks over HTTP and what the fuzz corpus
(:mod:`repro.fuzz.serialize`, now a thin re-export of this package) pins on
disk.

Compatibility policy (see ``docs/API.md`` for the full specification):

* every top-level document carries ``"format": <int>``;
* readers accept every version in :data:`SUPPORTED_VERSIONS` — format 1
  (the original fuzz-corpus format) still loads; format 2 adds operator
  ``label`` fields and the payload envelopes (``kind`` discriminators);
* additions are made backward-compatibly (new optional fields); removals or
  semantic changes bump :data:`WIRE_VERSION` and keep the reader accepting
  the previous version for at least one release.

Round-trip guarantee: ``X_from_json(X_to_json(x))`` reproduces ``x``
semantically — identical result bags when evaluating round-tripped queries
over round-tripped databases, and identical explanation payloads
(``tests/wire/test_roundtrip.py`` enforces this for every registered
scenario).
"""

from repro.wire.codec import (
    SUPPORTED_VERSIONS,
    WIRE_VERSION,
    expr_from_json,
    expr_to_json,
    op_from_json,
    op_to_json,
    query_from_json,
    query_to_json,
    type_from_json,
    type_to_json,
    value_from_json,
    value_to_json,
)
from repro.wire.payloads import (
    check_envelope,
    database_from_json,
    database_info_from_json,
    database_info_to_json,
    database_to_json,
    document_digest,
    envelope,
    hierarchy_from_json,
    hierarchy_to_json,
    mutation_from_json,
    mutation_to_json,
    explanation_from_json,
    explanation_to_json,
    metrics_from_json,
    metrics_to_json,
    summary_from_json,
    summary_to_json,
    question_from_json,
    question_to_json,
    text_query_request,
    relation_from_json,
    relation_to_json,
    result_to_json,
    serving_stats_from_json,
    serving_stats_to_json,
)

__all__ = [
    "WIRE_VERSION",
    "SUPPORTED_VERSIONS",
    "value_to_json",
    "value_from_json",
    "type_to_json",
    "type_from_json",
    "expr_to_json",
    "expr_from_json",
    "op_to_json",
    "op_from_json",
    "query_to_json",
    "query_from_json",
    "envelope",
    "check_envelope",
    "document_digest",
    "database_to_json",
    "database_from_json",
    "database_info_to_json",
    "database_info_from_json",
    "mutation_to_json",
    "mutation_from_json",
    "question_to_json",
    "text_query_request",
    "question_from_json",
    "relation_to_json",
    "relation_from_json",
    "explanation_to_json",
    "explanation_from_json",
    "hierarchy_to_json",
    "hierarchy_from_json",
    "summary_to_json",
    "summary_from_json",
    "result_to_json",
    "metrics_to_json",
    "metrics_from_json",
    "serving_stats_to_json",
    "serving_stats_from_json",
]
