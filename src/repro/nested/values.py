"""Immutable nested values: the null value, tuples, and bags.

The paper (Def. 2) models instances as primitives, tuples
``⟨A1: v1, ..., An: vn⟩`` and homogeneous bags ``{{v1, ..., vn}}`` with an
explicit null ``⊥`` valid for every type.  ``Tup`` and ``Bag`` here are
immutable and hashable so that bags of tuples (and bags nested inside tuples)
can be counted, grouped, and compared with multiplicity-aware semantics.

Layout interning
----------------

Tuple shapes repeat millions of times during evaluation (every row of an
operator's output shares one attribute list), so the per-tuple metadata is
interned: a :class:`Layout` holds the attribute-name tuple and the shared
name→position index, keyed globally by the name tuple.  ``Tup`` instances
only carry a reference to their layout plus the value tuple, and
:meth:`Tup.from_layout` constructs a row without re-validating names or
rebuilding an index dict.  Derived shapes (``concat``, ``project``, ``drop``,
``rename``, ``with_attr``) are cached *on the layout*, so structural tuple
operations inside joins, flattens and projections cost one dict lookup plus
one value-tuple build per row.

Contract: a ``Layout`` is immutable and interned — two ``Tup`` values with
equal attribute tuples always share the same ``Layout`` object, so layouts
may be compared and keyed by identity.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

# Bound once: ``Tup``/``Bag`` construction bypasses the immutability guard
# via ``object.__setattr__`` on every row the engine materializes, and the
# repeated ``object`` global + attribute lookups are measurable there.
_obj_new = object.__new__
_obj_set = object.__setattr__


def _gatherer(positions: "tuple[int, ...]") -> "Callable[[tuple], tuple]":
    """A C-level gather ``values -> tuple(values[i] for i in positions)``.

    ``operator.itemgetter`` returns the bare element for a single index, so
    the 0- and 1-position shapes are wrapped to keep the tuple contract.
    """
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        get = itemgetter(positions[0])
        return lambda values: (get(values),)
    return itemgetter(*positions)


class _Null:
    """Singleton for the paper's ⊥ value (valid for every nested type)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("⊥-null")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Null)

    def __reduce__(self):
        return (_Null, ())


NULL = _Null()


def is_null(value: Any) -> bool:
    """Return True if *value* is the nested-model null (⊥) or Python None."""
    return value is None or isinstance(value, _Null)


#: The canonical NaN object of the value model.
#:
#: IEEE NaN compares unequal to itself, so CPython hashes every NaN float by
#: object identity (Python ≥ 3.10) and ``pickle`` does not memoize floats —
#: two "equal-position" NaNs stop being one value the moment a row crosses a
#: process boundary or is produced by two evaluation paths.  That would make
#: grouping, joining, deduplication and partition routing depend on object
#: identity and therefore on the execution strategy.  Instead the engine
#: maintains the invariant that **every NaN inside the value model is this
#: single object**: ingestion (:meth:`repro.engine.database.Database.add`),
#: arithmetic (:class:`repro.algebra.expressions.Arith`), aggregation
#: (:func:`repro.algebra.aggregates.apply_aggregate`) and unpickling
#: (:meth:`Tup._unpickle` / :meth:`Bag._unpickle`) all canonicalize.  NaN
#: thus behaves as one value — SQL's reading for GROUP BY / DISTINCT — and
#: every engine/partitioning produces identical results.
NAN = float("nan")


def _is_nan(value: Any) -> bool:
    # ``type is float`` first: ``!=`` on containers would do real work.
    return type(value) is float and value != value


def canonicalize_value(value: Any) -> Any:
    """Map every NaN inside *value* to the canonical :data:`NAN` object.

    Returns *value* itself (no rebuild) when nothing needs replacing — the
    overwhelmingly common case — so ingestion-time canonicalization is cheap.
    """
    if type(value) is float:
        return NAN if value != value else value
    if isinstance(value, Tup):
        values = value.values()
        canon = tuple(canonicalize_value(v) for v in values)
        if all(a is b for a, b in zip(canon, values)):
            return value
        return Tup.from_layout(value.layout, canon)
    if isinstance(value, Bag):
        changed = False
        pairs = []
        for element, count in value.items():
            canon = canonicalize_value(element)
            changed = changed or canon is not element
            pairs.append((canon, count))
        return Bag.from_counts(pairs) if changed else value
    return value


class Layout:
    """An interned tuple shape: attribute names plus the name→position index.

    Layouts are created through :meth:`Layout.of` only, which validates the
    name tuple (no duplicates) once and returns the shared instance for it.
    Structural derivations — concatenation, projection, dropping, renaming,
    appending — are memoised in ``_derived`` so per-row tuple restructuring
    never rebuilds name tuples or index dicts.
    """

    __slots__ = ("names", "index", "_derived")

    _interned: "dict[tuple[str, ...], Layout]" = {}

    def __init__(self, names: tuple[str, ...], index: dict):
        # Internal: use Layout.of().
        self.names = names
        self.index = index
        self._derived: dict = {}

    @classmethod
    def of(cls, names: Iterable[str]) -> "Layout":
        names = tuple(names)
        layout = cls._interned.get(names)
        if layout is None:
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate attribute names in tuple: {names}")
            layout = cls(names, {name: i for i, name in enumerate(names)})
            cls._interned[names] = layout
        return layout

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"Layout{self.names!r}"

    def __reduce__(self):
        # Layouts are interned per process: unpickling re-interns by name
        # tuple so identity comparisons keep working for values pickled in
        # another process.
        return (Layout.of, (self.names,))

    # -- derived-shape caches (keyed by identity of interned inputs) ---------

    def concat(self, other: "Layout") -> "Layout":
        key = ("concat", other)
        combined = self._derived.get(key)
        if combined is None:
            combined = Layout.of(self.names + other.names)
            self._derived[key] = combined
        return combined

    def project(
        self, names: tuple[str, ...]
    ) -> "tuple[Layout, tuple[int, ...], Callable[[tuple], tuple]]":
        key = ("project", names)
        plan = self._derived.get(key)
        if plan is None:
            index = self.index
            try:
                positions = tuple(index[name] for name in names)
            except KeyError as exc:
                raise KeyError(
                    f"tuple has no attribute {exc.args[0]!r}; attrs={self.names}"
                ) from None
            plan = (Layout.of(names), positions, _gatherer(positions))
            self._derived[key] = plan
        return plan

    def drop(
        self, names: tuple[str, ...]
    ) -> "tuple[Layout, tuple[int, ...], Callable[[tuple], tuple]]":
        key = ("drop", names)
        plan = self._derived.get(key)
        if plan is None:
            dropped = set(names)
            kept = tuple(name for name in self.names if name not in dropped)
            positions = tuple(self.index[name] for name in kept)
            plan = (Layout.of(kept), positions, _gatherer(positions))
            self._derived[key] = plan
        return plan

    def rename(self, pairs: tuple[tuple[str, str], ...]) -> "Layout":
        """Renamed layout; *pairs* maps old name → new name (partial)."""
        key = ("rename", pairs)
        renamed = self._derived.get(key)
        if renamed is None:
            mapping = dict(pairs)
            renamed = Layout.of(mapping.get(name, name) for name in self.names)
            self._derived[key] = renamed
        return renamed

    def with_name(self, name: str) -> "Layout":
        key = ("with", name)
        appended = self._derived.get(key)
        if appended is None:
            appended = Layout.of(self.names + (name,))
            self._derived[key] = appended
        return appended


class Tup:
    """An immutable named tuple ``⟨A1: v1, ..., An: vn⟩``.

    Attribute order is preserved (it matters for display and for the schema
    concatenation operator ``◦``) but equality and hashing are order
    *sensitive* on purpose: the algebra keeps schemas aligned, so two equal
    tuples always list attributes in the same order.
    """

    __slots__ = ("_layout", "_values", "_index", "_hash")

    def __init__(
        self, items: Mapping[str, Any] | Iterable[tuple[str, Any]] = (), /, **kwargs: Any
    ):
        if isinstance(items, Mapping):
            pairs = list(items.items())
        else:
            pairs = list(items)
        pairs.extend(kwargs.items())
        layout = Layout.of(name for name, _ in pairs)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_values", tuple(value for _, value in pairs))
        object.__setattr__(self, "_index", layout.index)

    @classmethod
    def from_layout(cls, layout: Layout, values: tuple) -> "Tup":
        """Fast constructor: trusted *values* matching an interned *layout*.

        Skips name validation and index building; ``len(values)`` must equal
        ``len(layout.names)`` (callers derive both from the same layout).
        The ``_hash`` slot stays unset until first use — tuple construction
        is the hottest allocation in the engine and most rows are never
        hashed.
        """
        t = _obj_new(cls)
        _obj_set(t, "_layout", layout)
        _obj_set(t, "_values", values)
        _obj_set(t, "_index", layout.index)
        return t

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Tup is immutable")

    @property
    def layout(self) -> Layout:
        """The interned :class:`Layout` of this tuple."""
        return self._layout

    @property
    def attrs(self) -> tuple[str, ...]:
        """Attribute names, in schema order (the paper's ``sch``)."""
        return self._layout.names

    def values(self) -> tuple[Any, ...]:
        return self._values

    def items(self) -> Iterator[tuple[str, Any]]:
        return zip(self._layout.names, self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[self._index[name]]
        except KeyError:
            raise KeyError(
                f"tuple has no attribute {name!r}; attrs={self._layout.names}"
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        i = self._index.get(name)
        return self._values[i] if i is not None else default

    def get_path(self, path: "tuple[str, ...] | str") -> Any:
        """Navigate a dotted path through nested tuples.

        Navigating through NULL yields NULL (never raises), mirroring how big
        data systems treat missing struct fields.  Paths may not traverse
        bags; flatten the bag first.
        """
        if isinstance(path, str):
            path = tuple(path.split("."))
        current: Any = self
        for step in path:
            if is_null(current):
                return NULL
            if isinstance(current, Tup):
                if step not in current:
                    raise KeyError(f"path step {step!r} not in tuple attrs {current.attrs}")
                current = current[step]
            elif isinstance(current, Bag):
                raise TypeError(f"cannot navigate path step {step!r} through a bag; flatten first")
            else:
                raise TypeError(f"cannot navigate path step {step!r} through primitive {current!r}")
        return current

    def project(self, names: Iterable[str]) -> "Tup":
        """Projection ``t.L`` on a list of attribute names."""
        layout, _, gather = self._layout.project(tuple(names))
        return Tup.from_layout(layout, gather(self._values))

    def drop(self, names: Iterable[str]) -> "Tup":
        layout, _, gather = self._layout.drop(tuple(names))
        return Tup.from_layout(layout, gather(self._values))

    def concat(self, other: "Tup") -> "Tup":
        """Tuple concatenation (the paper's ``◦``); names must not clash."""
        return Tup.from_layout(
            self._layout.concat(other._layout), self._values + other._values
        )

    def replace(self, **changes: Any) -> "Tup":
        """A copy with the given attributes changed; unknown names raise."""
        index = self._index
        values = list(self._values)
        for name, value in changes.items():
            i = index.get(name)
            if i is None:
                raise KeyError(
                    f"cannot replace unknown attribute {name!r}; "
                    f"attrs={self._layout.names}"
                )
            values[i] = value
        return Tup.from_layout(self._layout, tuple(values))

    def with_attr(self, name: str, value: Any) -> "Tup":
        """Return a copy with attribute *name* appended (or replaced in place)."""
        i = self._index.get(name)
        if i is not None:
            values = list(self._values)
            values[i] = value
            return Tup.from_layout(self._layout, tuple(values))
        return Tup.from_layout(self._layout.with_name(name), self._values + (value,))

    def rename(self, mapping: Mapping[str, str]) -> "Tup":
        """Rename attributes; *mapping* maps old names to new names."""
        return Tup.from_layout(self._layout.rename(tuple(mapping.items())), self._values)

    def reorder(self, names: Iterable[str]) -> "Tup":
        return self.project(names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tup):
            return NotImplemented
        if self._layout is not other._layout:
            # Layouts are interned, so distinct objects imply distinct name
            # tuples within a process; compare names anyway for robustness.
            if self._layout.names != other._layout.names:
                return False
        return self._values == other._values

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self._layout.names, self._values))
            object.__setattr__(self, "_hash", h)
        return h

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value!r}" for name, value in self.items())
        return f"⟨{inner}⟩"

    @classmethod
    def _unpickle(cls, names: tuple, values: tuple) -> "Tup":
        # ``pickle`` does not memoize floats, so NaNs must be re-canonicalized
        # on arrival or grouping/joining in worker processes would depend on
        # object identity (see :data:`NAN`).  Nested Tup/Bag values arrive
        # through their own ``_unpickle`` and are already canonical.
        for v in values:
            if type(v) is float and v != v and v is not NAN:
                values = tuple(
                    NAN if (type(u) is float and u != u) else u for u in values
                )
                break
        return cls.from_layout(Layout.of(names), values)

    def __reduce__(self):
        # The default slots protocol would call the blocked ``__setattr__``;
        # instead rebuild through the interning constructor so the layout is
        # shared with every same-shaped tuple in the receiving process.
        return (Tup._unpickle, (self._layout.names, self._values))


class Bag:
    """An immutable bag (multiset) ``{{...}}`` of nested values.

    Elements are stored as a mapping element → multiplicity with insertion
    order preserved for deterministic iteration.  ``iter`` yields elements
    *with* repetition; use :meth:`items` for (element, count) pairs.
    """

    __slots__ = ("_counts", "_total", "_hash")

    def __init__(self, elements: Iterable[Any] = ()):
        counts: dict[Any, int] = {}
        total = 0
        for element in elements:
            counts[element] = counts.get(element, 0) + 1
            total += 1
        _obj_set(self, "_counts", counts)
        _obj_set(self, "_total", total)
        _obj_set(self, "_hash", None)

    @classmethod
    def from_counts(cls, pairs: Iterable[tuple[Any, int]]) -> "Bag":
        bag = cls()
        counts: dict[Any, int] = {}
        total = 0
        for element, count in pairs:
            if count < 0:
                raise ValueError("negative multiplicity")
            if count == 0:
                continue
            counts[element] = counts.get(element, 0) + count
            total += count
        _obj_set(bag, "_counts", counts)
        _obj_set(bag, "_total", total)
        return bag

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Bag is immutable")

    def items(self) -> Iterator[tuple[Any, int]]:
        """Distinct elements with their multiplicities."""
        return iter(self._counts.items())

    def distinct(self) -> Iterator[Any]:
        return iter(self._counts)

    def mult(self, element: Any) -> int:
        """The paper's ``mult(R, t)``: multiplicity of *element* (0 if absent)."""
        return self._counts.get(element, 0)

    def __iter__(self) -> Iterator[Any]:
        counts = self._counts
        if self._total == len(counts):
            # No duplicates: iterate the dict keys directly instead of
            # resuming a generator per row (source-table scans iterate bags
            # on every execution, and most relations are duplicate-free).
            return iter(counts)
        out: list[Any] = []
        append = out.append
        for element, count in counts.items():
            if count == 1:
                append(element)
            else:
                out.extend([element] * count)
        return iter(out)

    def __len__(self) -> int:
        return self._total

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def is_empty(self) -> bool:
        return self._total == 0

    def union(self, other: "Bag") -> "Bag":
        """Additive union ``R ∪ S`` (multiplicities add)."""
        return Bag.from_counts(list(self.items()) + list(other.items()))

    def difference(self, other: "Bag") -> "Bag":
        """Bag difference ``R − S`` (multiplicities subtract, floored at 0)."""
        return Bag.from_counts(
            (element, max(count - other.mult(element), 0))
            for element, count in self.items()
        )

    def dedup(self) -> "Bag":
        """Duplicate elimination: every multiplicity becomes 1."""
        return Bag.from_counts((element, 1) for element in self._counts)

    def map(self, fn: Callable[[Any], Any]) -> "Bag":
        return Bag.from_counts((fn(element), count) for element, count in self.items())

    def filter(self, pred: Callable[[Any], bool]) -> "Bag":
        return Bag.from_counts(
            (element, count) for element, count in self.items() if pred(element)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset((hash(e), c) for e, c in self._counts.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for element, count in self._counts.items():
            suffix = f"^{count}" if count > 1 else ""
            parts.append(f"{element!r}{suffix}")
        return "{{" + ", ".join(parts) + "}}"

    @classmethod
    def _unpickle(cls, pairs: tuple) -> "Bag":
        # Same NaN re-canonicalization as ``Tup._unpickle`` for bags whose
        # elements are raw floats; counts of NaN elements that were distinct
        # objects on the sending side merge into the canonical one here.
        return cls.from_counts(
            (NAN if (type(e) is float and e != e) else e, c) for e, c in pairs
        )

    def __reduce__(self):
        # Same reason as ``Tup``: immutable slots need an explicit pickle
        # path.  Counts round-trip exactly (insertion order included).
        return (Bag._unpickle, (tuple(self._counts.items()),))


EMPTY_BAG = Bag()
