"""Columnar batch evaluation: engine selection, chain evaluation, key batches.

This module is the glue between the executor and the kernel code generator
(:mod:`repro.engine.kernels`):

* **Engine knob.**  ``Executor(engine=...)``, ``explain(engine=...)``, the
  CLI's ``--engine`` flag and the ``REPRO_ENGINE`` environment variable pick
  between the ``row`` engine (the row-at-a-time oracle path) and the
  ``columnar`` engine.  Results are bit-identical either way — the
  differential fuzzer and the scenario equivalence suites enforce it.
* **Chain evaluation.**  :func:`row_chain` runs a fused narrow chain over
  one partition row at a time.  :func:`kernel_chain` replaces it when the
  columnar engine is active: the partition is checked for a uniform row
  layout, lowered to (or fetched from the cache as) one compiled kernel,
  and executed in a single call; any
  :class:`~repro.engine.kernels.KernelBailout`, unsupported operator or
  heterogeneous layout falls back to :func:`row_chain` *for that
  partition*, which also reproduces the row path's exact error behaviour.
* **Scatter shuffles.**  Wide operators keep their shuffle-based plans, but
  the per-row key closures are replaced by one-pass scatter routines that
  read the key columns straight out of the shared ``Layout`` positions,
  hash them column-at-a-time and place each ``(key, row)`` pair directly in
  its destination partition — producing bit-identical partition targets.

``docs/KERNELS.md`` is the full walkthrough (batch layout, codegen
contract, cache keying, bailout semantics, scatter shuffles, operator-hook
checklist).
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Optional

from repro.algebra.operators import GroupAggregation, RelationNesting
from repro.engine.hashing import column_hashes, layout_hash, stable_hash
from repro.engine.kernels import KernelBailout, chain_kernel
from repro.nested.paths import Path
from repro.nested.values import Layout, NULL, Tup

#: Environment variable consulted when no explicit engine is given.
ENGINE_ENV = "REPRO_ENGINE"

ENGINE_NAMES = ("row", "columnar")


def default_engine() -> str:
    """The engine used when none is requested (``REPRO_ENGINE`` or row)."""
    name = os.environ.get(ENGINE_ENV, "row")
    if name not in ENGINE_NAMES:
        raise ValueError(f"{ENGINE_ENV}={name!r}; expected one of {ENGINE_NAMES}")
    return name


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve an explicit engine name, falling back to the environment."""
    if engine is None:
        return default_engine()
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
    return engine


def new_kernel_info() -> dict:
    """A fresh kernel observability counter dict (``ExecutionMetrics.kernels``)."""
    return {"hits": 0, "misses": 0, "fallbacks": 0, "codegen_seconds": 0.0}


def row_chain(ops: list, rows: list, ctx) -> "tuple[list, list]":
    """Run a fused narrow chain over one partition, row at a time.

    Returns the chain's output rows plus one ``(op_id, rows_in, rows_out,
    seconds)`` entry per operator.  This is the row engine and the kernel
    path's fallback.
    """
    stats = []
    for op in ops:
        started = time.perf_counter()
        out = op.eval_rows([rows], ctx)
        stats.append((op.op_id, len(rows), len(out), time.perf_counter() - started))
        rows = out
    return rows, stats


def kernel_chain(ops: list, rows: list, ctx, memo: dict, info: dict) -> "tuple[list, list]":
    """Run a fused narrow chain over one partition, kernels first.

    Returns what :func:`row_chain` returns and adds the kernel counters to
    *info*.  *memo* maps a row layout to its kernel for this chain; the
    caller keeps one per chain per execution, so the (semantic) global cache
    key is built once per layout and every further partition resolves by
    identity.  Memo hits still count as cache hits: the compiled kernel was
    reused.

    Empty partitions always take the row path (it raises schema-resolution
    errors even on empty input, and kernels must not mask them); populated
    partitions take it when the layout is not uniform, the chain cannot be
    lowered, or the kernel bails out on a value shape it cannot reproduce
    bit-identically.
    """
    if rows:
        layout = rows[0]._layout
        if all(t._layout is layout for t in rows):
            if layout in memo:
                kernel = memo[layout]
                info["hits"] += 1
            else:
                kernel = memo[layout] = chain_kernel(ops, layout, ctx, info)
            if kernel is not None:
                try:
                    return kernel.run(rows, ops)
                except KernelBailout:
                    pass
        info["fallbacks"] += 1
    return row_chain(ops, rows, ctx)


# -- vectorized shuffle-key extraction ---------------------------------------


def _scatter_pairs(
    key_fn: Callable[[Tup], Any], rows: list, nparts: int, out: list
) -> int:
    """The generic per-row shuffle: compute, hash and place each key.

    Byte-identical to the executor's row-path shuffle loop (``None`` keys go
    to partition 0); the scatter fast paths below fall back to this whenever
    a partition's shape defeats column extraction.
    """
    for t in rows:
        key = key_fn(t)
        target = 0 if key is None else stable_hash(key) % nparts
        out[target].append((key, t))
    return len(rows)


def join_key_scatter(
    paths: "tuple[Path, ...]", key_fn: Callable[[Tup], Optional[tuple]]
) -> "Callable[[list, int, list], int]":
    """A one-pass shuffle scatter for one join side.

    Reads single-step key columns straight out of the shared layout
    positions, hashes them column-at-a-time and appends ``(key, row)`` to
    the destination partition, producing exactly the pairs and targets of
    the per-row ``key_fn`` + :func:`stable_hash` loop (⊥-containing keys map
    to ``None`` and land in partition 0, per Table 1).  Multi-step paths,
    missing columns and mixed layouts fall back to that row loop.
    """
    single = all(len(p) == 1 for p in paths)
    names = tuple(p[0] for p in paths) if single else ()

    def scatter(rows: list, nparts: int, out: list) -> int:
        if not rows or not single or len(names) != 1:
            return _scatter_pairs(key_fn, rows, nparts, out)
        layout = rows[0]._layout
        i0 = layout.index.get(names[0])
        if i0 is None or not all(t._layout is layout for t in rows):
            return _scatter_pairs(key_fn, rows, nparts, out)
        column = [t._values[i0] for t in rows]
        hashes = column_hashes(column)
        nulls = out[0]
        for t, v, h in zip(rows, column, hashes):
            if v is NULL or v is None:
                nulls.append((None, t))
            else:
                # stable_hash((v,)) == hash((stable_hash(v),))
                out[hash((h,)) % nparts].append(((v,), t))
        return len(rows)

    return scatter


def group_key_scatter(op) -> "Callable[[list, int, list], int]":
    """A one-pass shuffle scatter for a grouping wide operator.

    Mirrors ``GroupAggregation.key_fn()`` (interned key layout over the
    source-path values) and ``RelationNesting.group_key`` (the row minus the
    nested attributes) using shared-layout positions, hashing the key column
    in one sweep; anything irregular falls back to the operator's own key
    function.  Group keys are ``Tup``s, which hash as
    ``hash((layout_hash, *value hashes))`` — reproduced literally here.
    """
    key_fn = op.key_fn()
    if isinstance(op, GroupAggregation):
        specs = op.key_specs
        single = all(len(src) == 1 for _, src in specs)
        names = tuple(src[0] for _, src in specs) if single else ()
        key_layout = Layout.of(out for out, _ in specs)

        def scatter(rows: list, nparts: int, out: list) -> int:
            if not rows or not single or len(names) != 1:
                return _scatter_pairs(key_fn, rows, nparts, out)
            layout = rows[0]._layout
            i0 = layout.index.get(names[0])
            if i0 is None or not all(t._layout is layout for t in rows):
                return _scatter_pairs(key_fn, rows, nparts, out)
            column = [t._values[i0] for t in rows]
            hashes = column_hashes(column)
            lh = layout_hash(key_layout)
            mk = Tup.from_layout
            for t, v, h in zip(rows, column, hashes):
                out[hash((lh, h)) % nparts].append((mk(key_layout, (v,)), t))
            return len(rows)

        return scatter
    if isinstance(op, RelationNesting):
        attrs = op.attrs

        def scatter(rows: list, nparts: int, out: list) -> int:
            if not rows:
                return 0
            layout = rows[0]._layout
            if not all(t._layout is layout for t in rows):
                return _scatter_pairs(key_fn, rows, nparts, out)
            kept_layout, _, gather = layout.drop(attrs)
            lh = layout_hash(kept_layout)
            mk = Tup.from_layout
            for t in rows:
                key_values = gather(t._values)
                key = mk(kept_layout, key_values)
                h = hash((lh,) + tuple(column_hashes(list(key_values))))
                out[h % nparts].append((key, t))
            return len(rows)

        return scatter

    def scatter(rows: list, nparts: int, out: list) -> int:
        return _scatter_pairs(key_fn, rows, nparts, out)

    return scatter
