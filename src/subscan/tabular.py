"""Tabular data model: schema, dataset, subgroup descriptors, CSV I/O, synthetic cohorts.

Categories are encoded as dense integer indices per feature; human-readable
labels live only in the Schema. Each record's indices are packed into one
integer key as the record is read or drawn, one bit field per feature, and
the keys become the cell table: a dataset keeps no N x M table of indices
past construction, and ``Dataset.rows`` rebuilds one from the cells on each
access. A key of up to 16 bits is a uint16 word, so a record takes 3 bytes
(its uint16 cell index and its int8 outcome) when the keys become the index
in place. The cells and the outcomes are read-only numpy arrays, so datasets
can be shared freely across parallel workers. Only this module reads them:
the other modules see the data through ``CategoryCounter``, the one way a
member set is counted (the scan keeps one
per restart, ``scan.evaluate`` builds one per descriptor, the substitution
stages keep one on the subgroup they perturb, and the relevance ranking builds
one with no masks for each feature's marginal counts), and through
``Dataset.drawn_cell_sums``, which draws a bootstrap replicate's positives
per cell, one Binomial draw over each cell's record count.

Every count runs over cells, the distinct feature patterns of a dataset,
weighted by their record and positive counts: the scan score depends on the
data only through these aggregates, and a dataset usually has far fewer cells
than records.

``load_csv`` has two readers that give the same Dataset. A plain file (no
``"``, LF or CRLF line ends, valid UTF-8, a 0/1 outcome in every row: what
``write_csv`` writes for unquoted labels) is parsed with numpy over blocks of
whole lines, one fixed-width byte key per field, looked up in a hash table
of the column's known labels or else sorted; a column whose fields are too
long for narrow keys is decoded one field at a time, and the codes are
packed into the records' keys a block at a time. Any other file, and
every file the byte reader finds a fault in, is read through the csv module
one record at a time, which accepts it or raises the LoadError. A fault found
late costs the byte reader's work up to it on top of the csv module's read.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from pathlib import Path
from types import SimpleNamespace
from typing import IO, NamedTuple

import numpy as np

from .errors import ContractError, LoadError

MISSING_LABEL = "<missing>"

_OUTCOMES: Mapping[str, int] = {"0": 0, "1": 1}  # outcome label -> value
_RECORD_BLOCK = 1 << 16  # records a block in generate_synthetic's draws and the cell build


@dataclass(frozen=True)
class Schema:
    """Ordered feature names with their ordered category labels."""

    features: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise ContractError("feature names must be unique")
        for name, cats in self.features:
            if len(cats) < 1:
                raise ContractError(f"feature {name!r} has no categories")
            if len(set(cats)) != len(cats):
                raise ContractError(f"feature {name!r} has duplicate category labels")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    def cardinality(self, feature: int) -> int:
        return len(self.features[feature][1])

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(cats) for _, cats in self.features)

    def feature_index(self, name: str) -> int:
        for i, (feat, _) in enumerate(self.features):
            if feat == name:
                return i
        raise ContractError(f"unknown feature {name!r}")

    def value_index(self, feature: int, label: str) -> int:
        cats = self.features[feature][1]
        try:
            return cats.index(label)
        except ValueError:
            raise ContractError(
                f"unknown category {label!r} for feature {self.features[feature][0]!r}"
            ) from None


@dataclass(frozen=True)
class SubsetDescriptor:
    """Subgroup definition: AND across features of OR within a feature.

    ``constraints`` maps feature index -> allowed category indices, stored in a
    canonical sorted form so descriptors are hashable and compare
    deterministically. Features absent from the mapping are unconstrained.
    """

    constraints: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for feature, values in self.constraints:
            if feature in seen:
                raise ContractError(f"feature {feature} constrained twice")
            seen.add(feature)
            if len(values) == 0:
                raise ContractError(f"feature {feature} has an empty value set")
            if len(set(values)) != len(values):
                raise ContractError(f"feature {feature} has duplicate values")
        canon = tuple(
            (feature, tuple(sorted(values)))
            for feature, values in sorted(self.constraints)
        )
        object.__setattr__(self, "constraints", canon)

    @classmethod
    def from_dict(cls, constraints: Mapping[int, Iterable[int]]) -> "SubsetDescriptor":
        return cls(tuple((f, tuple(vs)) for f, vs in constraints.items()))

    @classmethod
    def from_labels(cls, schema: Schema, constraints: Mapping[str, Iterable[str]]) -> "SubsetDescriptor":
        by_index: dict[int, tuple[int, ...]] = {}
        for name, labels in constraints.items():
            f = schema.feature_index(name)
            by_index[f] = tuple(schema.value_index(f, lab) for lab in labels)
        return cls.from_dict(by_index)

    def to_labels(self, schema: Schema) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for f, vs in self.constraints:
            name, cats = schema.features[f]
            out[name] = [cats[v] for v in vs]
        return out

    @property
    def is_empty(self) -> bool:
        return not self.constraints

    def values_for(self, feature: int) -> tuple[int, ...] | None:
        for f, vs in self.constraints:
            if f == feature:
                return vs
        return None

    def with_feature(self, feature: int, values: Iterable[int]) -> "SubsetDescriptor":
        rest = tuple((f, vs) for f, vs in self.constraints if f != feature)
        return SubsetDescriptor(rest + ((feature, tuple(values)),))

    def validate_against(self, schema: Schema) -> None:
        for f, vs in self.constraints:
            if not 0 <= f < schema.n_features:
                raise ContractError(f"feature index {f} out of range")
            card = schema.cardinality(f)
            for v in vs:
                if not 0 <= v < card:
                    raise ContractError(
                        f"value index {v} out of range for feature "
                        f"{schema.features[f][0]!r} (cardinality {card})"
                    )

    def normalized(self, schema: Schema) -> "SubsetDescriptor":
        """Drop vacuous constraints (a feature constrained to all its categories)."""
        kept = tuple(
            (f, vs) for f, vs in self.constraints if len(vs) < schema.cardinality(f)
        )
        return SubsetDescriptor(kept)


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable categorical table with a binary outcome per record and its outcome totals.

    ``Dataset(schema, rows, outcomes)`` checks an (N, M) array of category
    indices and its 0/1 outcomes, packs each record into one key
    (``_Packing``) and keeps only the cell table those keys make, beside the
    outcomes: the rows are not kept. The loaders and ``generate_synthetic``
    pack their records as they read or draw them and pass them as ``_Packed``.
    """

    schema: Schema
    outcomes: np.ndarray    # (N,) int8 in {0, 1}
    cells: CellTable        # the distinct feature patterns of the records
    n_positive: int
    global_mean: float

    def __init__(self, schema: Schema, rows: object, outcomes: object) -> None:
        cardinalities = schema.cardinalities()
        if not isinstance(rows, _Packed):
            rows = _integers(rows, "rows")
            if rows.ndim != 2 or min(rows.shape) < 1:
                raise ContractError("rows must be an (N, M) array with N, M >= 1")
            if rows.shape[1] != schema.n_features:
                raise ContractError(
                    f"rows have {rows.shape[1]} columns but schema has {schema.n_features} features"
                )
            for z, card in enumerate(cardinalities):
                col = rows[:, z]  # checked before packing, where a -1 would wrap
                if col.min() < 0 or col.max() >= card:
                    raise ContractError(
                        f"category index out of range in feature {schema.features[z][0]!r}: "
                        f"rows hold values outside the range [0, {card})"
                    )
            rows = _packed(rows.T, cardinalities)
        elif rows.packing != _Packing.of(cardinalities):
            raise ContractError("packed records do not fit the schema")
        outcomes = _integers(outcomes, "outcomes")
        if outcomes.shape != (len(rows.keys),):
            raise ContractError("outcomes must be a length-N vector")
        # checked before narrowing, where a 257 would wrap; as unsigned, a negative is large
        unsigned = outcomes.view(f"{outcomes.dtype.byteorder}u{outcomes.itemsize}")
        if unsigned.max() > 1:
            raise ContractError(f"outcome at row {int(np.argmax(unsigned > 1))} is not 0/1")
        outcomes = _adopted(outcomes, np.int8)
        n_positive = int(outcomes.sum())
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "cells", _cell_table(*rows, cardinalities))
        object.__setattr__(self, "n_positive", n_positive)
        object.__setattr__(self, "global_mean", n_positive / len(outcomes))

    @property
    def n_records(self) -> int:
        return len(self.outcomes)

    @property
    def rows(self) -> np.ndarray:
        """(N, M) read-only category indices, in the cells' dtype, rebuilt from the cells."""
        return _frozen(np.take(self.cells.columns, self.cells.index, axis=1).T.copy())

    @cached_property
    def cell_positives(self) -> np.ndarray:
        """(C,) positive records per cell, as float64."""
        cells = self.cells.index[self.outcomes.view(np.bool_)]  # outcomes are 0/1 int8
        return np.bincount(cells, minlength=len(self.cells.n)).astype(np.float64)

    def drawn_cell_sums(self, rng: np.random.Generator, rate: float) -> np.ndarray:
        """(C,) count per cell of the records drawn positive with probability ``rate``, as float64.

        A cell's count of n independent Bernoulli(``rate``) records is one
        Binomial(n, ``rate``) draw, so a draw is one ``rng.binomial`` over
        the cells' record counts: O(cells), whatever the record count.
        """
        return rng.binomial(self.cells.n.astype(np.int64), rate).astype(np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (  # the cells are in one order, so equal cells are equal rows
            self.schema == other.schema
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.cells.index, other.cells.index)
            and np.array_equal(self.cells.columns, other.cells.columns)
        )


def _code_dtype(cardinalities: Iterable[int]) -> np.dtype:
    """The smallest unsigned dtype that holds every category index of features this wide."""
    return np.min_scalar_type(max(cardinalities, default=1) - 1)


def _integers(array: object, name: str) -> np.ndarray:
    """``array`` as a numpy array, not copied if it is one; ContractError unless ints or bools."""
    values = np.asarray(array)
    if values.dtype.kind not in "biu":
        raise ContractError(f"{name} must be integers or booleans, not {values.dtype}")
    return values


def _adopted(values: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
    """``values`` if no one can change them, else a read-only C-order copy of them as ``dtype``.

    No one can change a read-only C array of ``dtype`` that owns its data, as
    the loaders build; a writeable array, or a read-only view, is copied. The
    caller range-checks ``values`` first, since the copy wraps any value that
    ``dtype`` does not hold.
    """
    flags = values.flags
    if values.dtype == dtype and flags.c_contiguous and flags.owndata and not flags.writeable:
        return values
    return _frozen(values.astype(dtype, order="C"))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Packing(NamedTuple):
    """Where each feature's category index sits in a record's key.

    A feature of h categories takes a bit field of the fewest bits that hold
    h - 1 (none for h = 1). The fields follow feature order, the first in a
    word taking its top bits, and none is split between two words, so keys
    compared word by word compare records in the lexicographic order of
    their indices. A key is one uint16 word up to 16 bits or one int32 word
    up to 31 bits, so that it can become the cell index in place, one int64
    word up to 63 bits, and past that a row of uint64 words of up to 64 bits
    each.
    """

    widths: tuple[int, ...]              # bits a feature
    fields: tuple[tuple[int, int], ...]  # (word, shift) a feature
    dtype: np.dtype
    n_words: int

    @classmethod
    def of(cls, cardinalities: Iterable[int]) -> _Packing:
        widths = tuple((card - 1).bit_length() for card in cardinalities)
        room = next((bits for bits in (16, 31, 63) if sum(widths) <= bits), 64)
        used, ends = [0], []  # bits taken in each word; (word, bits taken in it) after each field
        for width in widths:
            if used[-1] + width > room:
                used.append(0)
            used[-1] += width
            ends.append((len(used) - 1, used[-1]))
        fields = tuple((word, used[word] - end) for word, end in ends)
        dtype = {16: np.uint16, 31: np.int32, 63: np.int64, 64: np.uint64}[room]
        return cls(widths, fields, np.dtype(dtype), len(used))

    def keys(self, n_records: int) -> np.ndarray:
        """(n_records, words) keys of all-zero fields."""
        return np.zeros((n_records, self.n_words), dtype=self.dtype)

    def codes(self, keys: np.ndarray, z: int) -> np.ndarray:
        """Feature ``z``'s category index in each of ``keys``, in their dtype."""
        word, shift = self.fields[z]
        return (keys[:, word] >> shift) & ((1 << self.widths[z]) - 1)

    def store(self, keys: np.ndarray, z: int, codes: Iterable[int]) -> None:
        """Write ``codes`` into feature ``z``'s field of ``keys``, all zero, a block at a time."""
        word, shift = self.fields[z]
        for a in range(0, len(codes), _RECORD_BLOCK):
            part = np.asarray(codes[a:a + _RECORD_BLOCK]).astype(self.dtype)
            part <<= shift
            keys[a:a + len(part), word] |= part


class _Packed(NamedTuple):
    """Records packed into keys, as the loaders pass them to ``Dataset``."""

    keys: np.ndarray
    packing: _Packing


def _packed(columns: np.ndarray | list[list[int]], cardinalities: tuple[int, ...]) -> _Packed:
    """Category indices, one column a feature ((M, N)), packed a block of records at a time."""
    packing = _Packing.of(cardinalities)
    keys = packing.keys(len(columns[0]))
    for z, column in enumerate(columns):
        packing.store(keys, z, column)
    return _Packed(keys, packing)


def _repacked(keys: np.ndarray, old: _Packing, new: _Packing, stop: int) -> np.ndarray:
    """``keys`` with the records before ``stop`` moved from ``old`` fields to ``new``.

    A block of records at a time, in place when both packings have the same
    words, else into new keys; the records from ``stop`` on stay all zero.
    """
    moved = keys if (old.dtype, old.n_words) == (new.dtype, new.n_words) else new.keys(len(keys))
    for a in range(0, stop, _RECORD_BLOCK):
        block = keys[a:min(stop, a + _RECORD_BLOCK)]
        wider = new.keys(len(block))
        for z in range(len(new.widths)):
            new.store(wider, z, old.codes(block, z))
        moved[a:a + len(block)] = wider
    return moved


class CellTable(NamedTuple):
    """The cells of a dataset: its distinct feature patterns, in lexicographic order.

    Beside the outcomes, this is all a dataset keeps of its records. The
    columns' dtype is the smallest unsigned one that holds the widest
    feature's category indices. The index is the records' keys renumbered,
    so it is uint16 when they were (``_cell_table``), else int32. All three
    arrays are read-only.
    """

    columns: np.ndarray  # (M, C) category indices, one contiguous row per feature
    index: np.ndarray    # (N,) uint16 or int32 cell of each record
    n: np.ndarray        # (C,) records per cell, as float64: the counter's bincount weights


def _renumbered(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct keys, each record's cell, records per cell as float64), through a sort.

    The cells are uint16 when the keys are, since a uint16 key has at most
    65,536 values, else int32. A key of several words is sorted as one void
    scalar of their big-endian bytes, which compare as the words do, the
    first word first.
    """
    words, dtype = keys.shape[1], np.uint16 if keys.dtype == np.uint16 else np.int32
    if words > 1:
        keys = keys.astype(">u8").view(np.dtype((np.void, 8 * words)))
    distinct, index, n = np.unique(keys.reshape(-1), return_inverse=True, return_counts=True)
    if words > 1:
        distinct = distinct.view(">u8")
    return distinct.reshape(-1, words), index.astype(dtype), n.astype(np.float64)


def _cell_table(keys: np.ndarray, packing: _Packing, cardinalities: tuple[int, ...]) -> CellTable:
    """Group records by their keys: the cells in key order, which is lexicographic.

    When the keys are one uint16 or int32 word and their span (one past the
    key of every feature's last category) is at most the record count, the
    keys become the cell index in place, of their dtype: a uint16 key has at
    most 65,536 values, so a uint16 index holds every cell. They are counted
    a block of records at a time, in blocks of at least ``span`` records
    since each ``np.bincount`` costs O(span), and then each key becomes its
    cell. So the build holds no per-record array besides the index. Other
    keys are renumbered densely through ``np.unique`` (and its temporaries)
    into a uint16 index if they are uint16, else an int32 one. Either way the
    cells' columns are decoded from the distinct keys.
    """
    span = 1 + sum((card - 1) << shift for card, (_, shift) in zip(cardinalities, packing.fields))
    if packing.dtype in (np.uint16, np.int32) and span <= len(keys):
        index = keys.reshape(-1)
        n, block = np.zeros(span, dtype=np.intp), max(_RECORD_BLOCK, span)
        for a in range(0, len(index), block):
            n += np.bincount(index[a:a + block], minlength=span)  # counts an intp copy of the block
        present = n > 0
        cell = np.cumsum(present, dtype=np.int32) - 1  # cell of each key
        for a in range(0, len(index), _RECORD_BLOCK):
            index[a:a + _RECORD_BLOCK] = cell[index[a:a + _RECORD_BLOCK]]
        distinct, n = np.flatnonzero(present)[:, None], n[present].astype(np.float64)
    else:
        distinct, index, n = _renumbered(keys)
    columns = np.empty((len(cardinalities), len(n)), dtype=_code_dtype(cardinalities))
    for z in range(len(cardinalities)):
        columns[z] = packing.codes(distinct, z)
    return CellTable(_frozen(columns), _frozen(index), _frozen(n))


def _allowed_masks(schema: Schema, descriptor: SubsetDescriptor) -> dict[int, np.ndarray]:
    """The descriptor as boolean category masks, feature index -> mask."""
    descriptor.validate_against(schema)
    allowed = {}
    for f, vs in descriptor.constraints:
        allowed[f] = np.zeros(schema.cardinality(f), dtype=bool)
        allowed[f][list(vs)] = True
    return allowed


class CategoryCounter:
    """Per-category counts of one feature over the records the other features allow.

    Counts the given ``positives`` per cell (``dataset.cell_positives``, or a
    bootstrap replicate's), float64 like the cells' record counts, so both
    are ``np.bincount`` weights as they are and no construction copies
    them. Holds a boolean ``allowed`` category mask per
    feature; only a feature with no mask is unconstrained. For every cell it keeps
    which features reject it and how many do, so counting a feature costs
    O(cells) and changing one feature's mask updates one row of that
    bookkeeping. Both are kept in the smallest unsigned dtype that holds the
    feature count, so updating the count is one same-dtype subtraction. For a
    feature of up to 32 categories that row is one word, bit h set when
    category h is rejected, shifted right by each cell's category and masked
    to bit 0: two vector passes over the cells and no gather. A wider feature
    gathers its mask with ``np.take``.
    """

    def __init__(
        self, dataset: Dataset, positives: np.ndarray, allowed: Mapping[int, np.ndarray]
    ) -> None:
        cells = dataset.cells
        self._columns = cells.columns
        self._cardinalities = dataset.schema.cardinalities()
        self._n = cells.n
        self._positives = positives
        dtype = np.min_scalar_type(len(self._columns))  # a cell fails at most every feature
        self._fails = np.zeros(cells.columns.shape, dtype=dtype)
        self._violations = np.zeros(cells.columns.shape[1], dtype=dtype)
        # each feature's rejected-category word type (see the class docstring)
        self._words = [
            np.min_scalar_type((1 << card) - 1).type if card <= 32 else None
            for card in self._cardinalities
        ]
        for f, ok in allowed.items():
            self.set_allowed(f, ok)

    def set_allowed(self, feature: int, allowed: np.ndarray) -> None:
        """Replace ``feature``'s allowed category mask."""
        fails = self._fails[feature]
        self._violations -= fails
        word = self._words[feature]
        if word is not None:  # shift a word of rejected-category bits (see the class docstring)
            rejected = sum(1 << h for h, ok in enumerate(allowed.tolist()) if not ok)
            np.right_shift(word(rejected), self._columns[feature], out=fails, casting="unsafe")
            fails &= 1  # the cast into ``fails`` kept bit 0 of each shifted word
        else:  # "raise" would buffer ``out``; no cell category is out of range to clip
            np.take((~allowed).astype(fails.dtype), self._columns[feature], out=fails, mode="clip")
        self._violations += fails

    def counts(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """(record counts, positive counts) per category of ``feature``.

        They run over the records that every other feature's mask allows;
        ``feature``'s own mask is ignored. Both hold exact integers (sums of
        integer cell weights below 2**53) as float64, or as int64 when no cell
        is inside, which is ``np.bincount``'s type for no input.
        """
        inside = (self._violations == self._fails[feature]).nonzero()[0]
        col = self._columns[feature][inside]
        card = self._cardinalities[feature]
        counts = np.bincount(col, weights=self._n[inside], minlength=card)
        return counts, np.bincount(col, weights=self._positives[inside], minlength=card)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic cohort with a planted anomalous subgroup.

    Feature values are uniform and independent; outcomes follow baseline odds
    base_rate/(1-base_rate) outside the planted subgroup and odds_multiplier
    times that inside.
    """

    n_records: int
    cardinalities: tuple[int, ...]
    base_rate: float
    planted: SubsetDescriptor
    odds_multiplier: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise ContractError("n_records must be positive")
        if not self.cardinalities or any(h < 1 for h in self.cardinalities):
            raise ContractError("every feature needs cardinality >= 1")
        if not 0.0 < self.base_rate < 1.0:
            raise ContractError("base_rate must lie in (0, 1)")
        if not 1.0 < self.odds_multiplier < np.inf:  # inf would plant no positives at all
            raise ContractError("odds_multiplier must be finite and exceed 1")
        object.__setattr__(self, "cardinalities", tuple(int(h) for h in self.cardinalities))
        self.planted.validate_against(self.schema())
        if self.planted.normalized(self.schema()).is_empty:  # then every record is inside it
            raise ContractError("the planted subgroup constrains no feature: it holds every record")

    def schema(self) -> Schema:
        return _synthetic_schema(self.cardinalities)


def _synthetic_schema(cardinalities: Iterable[int]) -> Schema:
    """Features f0, f1, ... whose categories are v0, v1, ...; the naming of synthetic cohorts."""
    return Schema(
        tuple(
            (f"f{z}", tuple(f"v{h}" for h in range(card)))
            for z, card in enumerate(cardinalities)
        )
    )


def planted_outcome_rate(spec: SyntheticSpec) -> float:
    """Outcome probability inside the planted subgroup (odds multiplied, then inverted)."""
    mu = spec.base_rate
    p_in = spec.odds_multiplier * mu / (1.0 - mu + spec.odds_multiplier * mu)
    if p_in >= 1.0:
        raise ContractError(
            "odds multiplier pushes the in-subgroup probability to 1; reduce it"
        )
    return p_in


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, SubsetDescriptor]:
    """Draw a cohort per the spec; returns the dataset and the planted descriptor.

    Deterministic for a given spec (including seed). Membership of the planted
    subgroup is defined by the descriptor, so scan recovery is well-posed. The
    descriptor is returned normalized: a feature the spec constrains to all
    its categories plants nothing, and is left out.
    Each feature's indices are drawn as one int32 array, which is packed
    into the keys and dropped before the next draw; int32 keys are the first
    draw shifted in place. The outcomes are drawn a block of records at a
    time, the stream of one draw.
    """
    p_in = planted_outcome_rate(spec)
    schema = spec.schema()
    planted = spec.planted.normalized(schema)
    rng = np.random.default_rng(spec.seed)
    packing = _Packing.of(spec.cardinalities)
    keys = None if packing.dtype == np.int32 else packing.keys(spec.n_records)
    for z, card in enumerate(spec.cardinalities):
        codes = rng.integers(0, card, size=spec.n_records, dtype=np.int32)
        if keys is None:  # the first draw becomes the int32 keys in place: one array less
            keys = np.left_shift(codes, packing.fields[0][1], out=codes)[:, None]
        else:
            packing.store(keys, z, codes)
        del codes  # before the next draw: the peak holds one draw beside the keys

    # in blocks: the stream of one draw, without its two float64 arrays as long as the data
    allowed, outcomes = _allowed_masks(schema, planted), np.empty(spec.n_records, np.int8)
    for a in range(0, spec.n_records, _RECORD_BLOCK):
        inside = np.ones(min(_RECORD_BLOCK, spec.n_records - a), dtype=bool)
        for f, ok in allowed.items():
            inside &= ok[packing.codes(keys[a:a + _RECORD_BLOCK], f)]
        p = np.where(inside, p_in, spec.base_rate)
        outcomes[a:a + _RECORD_BLOCK] = rng.random(len(p)) < p
    return Dataset(schema, _Packed(keys, packing), _frozen(outcomes)), planted


def load_csv(path: str | Path, outcome_column: str) -> Dataset:
    """Ingest an RFC-4180 style CSV (header required, UTF-8) into a Dataset.

    Every column except the outcome is treated as categorical; category
    indices follow first appearance order. Empty cells become the
    ``<missing>`` category. A leading byte-order mark is skipped.

    Two readers give the same Dataset. A plain file is parsed as blocks of
    bytes with numpy (``_read_plain``). Every other file goes through the csv
    module one record at a time (``_read_records``): a file with a ``"``
    (quoted fields), and any file in which the byte reader meets what it does
    not handle exactly. That reader accepts the file or raises the LoadError,
    so every load error comes from it.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    dataset = _read_plain(path, outcome_column)
    return dataset if dataset is not None else _read_records(path, outcome_column)


def _columns(path: Path, header: list[str], outcome_column: str) -> tuple[int, list[int]]:
    """(outcome column, feature columns) named by a header, or LoadError naming the file."""
    if outcome_column not in header:
        raise LoadError(f"{path}: outcome column {outcome_column!r} not in header")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise LoadError(f"{path}: column {name!r} appears more than once in the header")
        seen.add(name)
    y_col = header.index(outcome_column)
    feature_cols = [i for i in range(len(header)) if i != y_col]
    if not feature_cols:
        raise LoadError(f"{path}: no feature columns besides the outcome")
    return y_col, feature_cols


def _code(codes: dict[str, int], label: str) -> int:
    """The category index of a field, numbering labels by first appearance; "" is <missing>.

    ``codes`` maps label -> index in insertion order, so it lists the categories.
    """
    return codes.setdefault(label or MISSING_LABEL, len(codes))


def _read_records(path: Path, outcome_column: str) -> Dataset:
    """load_csv through the csv module, one record at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LoadError(f"{path}: file is empty, header row required") from None
            y_col, feature_cols = _columns(path, header, outcome_column)
            codes: list[dict[str, int]] = [{} for _ in feature_cols]
            columns: list[list[int]] = [[] for _ in feature_cols]  # each feature's codes
            outcomes: list[int] = []
            for r, record in enumerate(reader, start=1):
                if len(record) != len(header):
                    raise LoadError(
                        f"{path}: row {r} has {len(record)} cells, expected {len(header)}"
                    )
                raw_y = record[y_col].strip()
                if raw_y not in _OUTCOMES:
                    raise LoadError(
                        f"{path}: row {r}, column {outcome_column!r}: "
                        f"non-binary outcome value {record[y_col]!r}"
                    )
                outcomes.append(_OUTCOMES[raw_y])
                for column, labels, col in zip(columns, codes, feature_cols):
                    column.append(_code(labels, record[col]))
    except (OSError, UnicodeDecodeError, csv.Error) as e:  # a directory, not UTF-8, bad CSV
        raise LoadError(f"{path}: cannot read as a UTF-8 CSV file ({e})") from None

    if not outcomes:
        raise LoadError(f"{path}: no data rows")
    schema = Schema(tuple((header[col], tuple(codes[j])) for j, col in enumerate(feature_cols)))
    outcomes_array = np.array(outcomes, dtype=np.int8)
    return Dataset(schema, _packed(columns, schema.cardinalities()), _frozen(outcomes_array))


_BLOCK_BYTES = 1 << 18  # the byte reader reads, and write_csv builds, this much at a time
_COMMA, _LF, _CR, _ZERO = b",\n\r0"  # byte values
_KEY_WORDS = 8  # fields of up to this many 8-byte words are keyed with numpy
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")  # masks of k low bytes
# odd; a key's slot is the top bits of key times this. MurmurHash3's finalizer
# constant parts the keys of "v0" to "v299" in 2**12 slots; 2**64 over the golden
# ratio leaves two of them in one slot even at 2**20
_HASH_MULTIPLIER = 0xC4CEB9FE1A85EC53
_TABLE_CAP = 1 << 10  # a column with more one-word labels is sorted in every block
_TABLE_BITS = 16  # the largest label table has this many bits of slot
_VACANT = 1 << 8  # no field's key: a NUL byte below a nonzero one


class _NotPlain(Exception):
    """The byte reader hands the file to the csv module."""


def _read_plain(path: Path, outcome_column: str) -> Dataset | None:
    """load_csv over blocks of whole lines with numpy; None if the file is not plain.

    A plain file holds no ``"`` and no NUL byte, ends each line in LF or CRLF
    (or at the end of the file), is valid UTF-8, has as many fields in every
    row as in the header and at least one data row, no field over
    ``csv.field_size_limit()`` bytes, a header that ``_columns`` accepts and
    an outcome of exactly ``0`` or ``1``. Splitting such a file at commas and
    line ends reads what the csv module reads. The file is read twice: once
    to count its lines, so the codes go into one preallocated array, and
    once to parse it, in blocks of whole lines of about ``_BLOCK_BYTES``
    (256 KiB, so that a block's masks and field positions stay in cache). A
    block's line count is the count of its LF mask, and a CR must end a line:
    the block holds as many CRs as it has lines that end in CRLF. The header
    line is checked on its own. Each feature column keeps a ``_LabelTable``
    of its labels of up to 8 bytes, so a block whose fields are all known
    takes their codes from its hash table without sorting, up to
    ``_TABLE_CAP`` (1,024) such labels a column (``_block_codes``). Each
    block's codes go straight into the records' keys (``_Packing``), whose
    fields start empty. When a column's labels outgrow its field, before
    the store that would overflow it, the field widens to the bits its
    labels need and the records parsed so far are re-packed, a block at a
    time: at most log2(cardinality) times a column. That is in place while
    the keys keep their words; the keys start as uint16 words, and past 16,
    31 or 63 bits, or past another 64, they move to wider words and the old
    and new keys of those records are held at once. Keys of one uint16 or
    int32 word become the cell index in place.
    """
    try:
        with open(path, "rb") as fh:
            n_lines, last = 0, b"\n"
            for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
                if b'"' in chunk or b"\0" in chunk:
                    raise _NotPlain
                n_lines += chunk.count(b"\n")
                last = chunk[-1:]
            n_records = n_lines + (last != b"\n") - 1  # a last line may lack its end
            if n_records < 1:
                raise _NotPlain
            fh.seek(0)
            # the parse's block temporaries are gone before the cell build
            return Dataset(*_parse_plain(path, _line_blocks(fh), n_records, outcome_column))
    except (_NotPlain, LoadError, OSError, UnicodeDecodeError):
        return None


def _line_blocks(fh: IO[bytes]) -> Iterator[bytes]:
    """The file in blocks of whole lines; an unended last line gets its LF."""
    tail = b""
    for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + memoryview(chunk)[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail + b"\n"


def _parse_plain(
    path: Path, blocks: Iterator[bytes], n_records: int, outcome_column: str
) -> tuple[Schema, _Packed, np.ndarray]:
    """(schema, packed records, outcomes) of a plain file's line blocks; _NotPlain at a fault."""
    limit = csv.field_size_limit()
    head, _, first = next(blocks).removeprefix(codecs.BOM_UTF8).partition(b"\n")
    head = head.removesuffix(b"\r")
    if b"\r" in head:  # the csv module ends a record at a lone CR
        raise _NotPlain
    fields = head.split(b",")
    if max(map(len, fields)) > limit:
        raise _NotPlain
    header = [name.decode("utf-8") for name in fields]
    y_col, feature_cols = _columns(path, header, outcome_column)

    codes: list[dict[str, int]] = [{} for _ in feature_cols]
    tables = [_LabelTable() for _ in feature_cols]
    packing = _Packing.of([1] * len(feature_cols))
    keys = packing.keys(n_records)
    outcomes = np.empty(n_records, dtype=np.int8)
    done = 0
    for block in itertools.chain([first] if first else [], blocks):  # after the header
        buf = np.frombuffer(block, dtype=np.uint8)
        # the 8 bytes from each position of the block, as little-endian words
        words = np.ndarray(len(block), dtype="<u8", buffer=block + bytes(7), strides=(1,))
        # each row's field ends: the positions of its commas and of its LF
        lf = buf == _LF
        ends = np.flatnonzero(lf | (buf == _COMMA))
        n = int(np.count_nonzero(lf))
        if len(ends) != n * len(header) or done + n > n_records:
            raise _NotPlain
        ends = ends.reshape(n, len(header))
        if not (buf[ends[:, -1]] == _LF).all():  # then every other end is a comma
            raise _NotPlain
        crlf = buf[ends[:, -1] - 1] == _CR  # an empty first line reads the last byte, an LF
        if np.count_nonzero(crlf) != np.count_nonzero(buf == _CR):
            raise _NotPlain  # a CR outside a CRLF, where the csv module ends a record
        row_starts = np.r_[0, ends[:-1, -1] + 1]
        ends[:, -1] -= crlf  # a CRLF line's field ends before its CR
        for col in range(len(header)):
            start = ends[:, col - 1] + 1 if col else row_starts
            length = ends[:, col] - start
            if length.max() > limit:
                raise _NotPlain
            if col == y_col:
                y = buf[start] - _ZERO
                if (length != 1).any() or (y > 1).any():
                    raise _NotPlain  # the csv module strips the outcome or rejects it
                outcomes[done:done + n] = y
            else:
                j = col - (col > y_col)
                block_codes = _block_codes(block, words, start, length, codes[j], tables[j])
                if len(codes[j]) > 1 << packing.widths[j]:  # the store would overflow its field
                    wider = _Packing.of([len(labels) or 1 for labels in codes])
                    # this block's earlier columns too
                    keys, packing = _repacked(keys, packing, wider, done + n), wider
                packing.store(keys[done:done + n], j, block_codes)
        done += n
    if done != n_records:
        raise _NotPlain
    schema = Schema(tuple((header[col], tuple(codes[j])) for j, col in enumerate(feature_cols)))
    return schema, _Packed(keys, packing), _frozen(outcomes)


class _LabelTable:
    """The codes of one column's labels of up to 8 bytes, by their one-word keys.

    A label's key is its bytes zero-padded to one little-endian word. Every
    key known so far is kept in sorted order with its code, so a block that
    sorts its keys decodes only the new ones (until, past the cap below, a
    block repeats none of them). Up to ``_TABLE_CAP`` keys, they
    also fill a hash table of 2**b slots: a key's slot is the top b bits of
    ``key * _HASH_MULTIPLIER`` (mod 2**64), and each slot holds a key and
    its code, a vacant one ``_VACANT``, which equals no field's key. The
    table is built only when the known keys land in distinct slots, at the
    fewest bits up to ``_TABLE_BITS`` that part them, so a field's key is
    known exactly when it equals the key in its slot. Past the cap, or when
    no table parts the keys, the column has no table for the rest of the file.
    """

    def __init__(self) -> None:
        self._keys: np.ndarray | None = np.empty(0, dtype=np.uint64)  # sorted
        self._codes: np.ndarray | None = np.empty(0, dtype=np.int32)
        self._table: tuple[np.ndarray, np.ndarray, int] | None = None  # keys, codes, shift
        self._open = True  # False once the column is past the table

    def lookup(self, keys: np.ndarray) -> np.ndarray | None:
        """The codes of the keys through the hash table, or None unless it knows every key."""
        if self._table is None:
            return None
        table_keys, table_codes, shift = self._table
        slot = (keys * _HASH_MULTIPLIER) >> shift
        return table_codes[slot] if (table_keys[slot] == keys).all() else None

    def known(self, distinct: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Set the codes of the known ones among sorted distinct keys; a mask of the others."""
        if self._keys is None or not len(self._keys):
            return np.ones(len(distinct), dtype=bool)
        at = np.minimum(np.searchsorted(self._keys, distinct), len(self._keys) - 1)
        hit = self._keys[at] == distinct
        codes[hit] = self._codes[at[hit]]
        if not (self._open or hit.any()):  # past the table and no label repeats, as in an ID column
            self._keys = self._codes = None  # keeping the keys costs more than it saves
        return ~hit

    def learn(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Add new sorted keys with their codes, and rebuild the hash table."""
        if self._keys is None:
            return
        at = np.searchsorted(self._keys, keys)
        self._keys, self._codes = np.insert(self._keys, at, keys), np.insert(self._codes, at, codes)
        self._table = None
        self._open = self._open and len(self._keys) <= _TABLE_CAP
        if not self._open:
            return
        for bits in range(len(self._keys).bit_length() + 1, _TABLE_BITS + 1):
            slot = (self._keys * _HASH_MULTIPLIER) >> (64 - bits)
            taken = np.sort(slot)
            if (taken[1:] != taken[:-1]).all():  # distinct slots
                table_keys = np.full(1 << bits, _VACANT, dtype=np.uint64)
                table_codes = np.zeros(1 << bits, dtype=np.int32)
                table_keys[slot], table_codes[slot] = self._keys, self._codes
                self._table = table_keys, table_codes, 64 - bits
                return
        self._open = False


def _block_codes(
    block: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
    codes: dict[str, int], table: _LabelTable,
) -> np.ndarray | list[int]:
    """The category index of each field of one column in a block, adding new labels to ``codes``.

    ``words[i]`` holds the 8 bytes of the block from position ``i``. Each
    field becomes a key of its bytes, zero-padded to whole 8-byte words (a
    plain file has no NUL byte, so distinct fields keep distinct keys): one
    uint64 for a field of up to 8 bytes, else a void scalar of several words.
    When every field of the block fits one word, the column's ``table`` is
    tried first: if its hash table knows every key, at a multiply, a shift,
    two gathers and a compare per field, those are the codes. Otherwise the
    block's keys are sorted with ``np.unique``. The distinct keys the table
    has seen take their codes from it; the others are decoded, one field
    each, and join ``codes`` in the order they first appear (and, if one
    word wide, the table, which rebuilds its hash table). Every key is as
    wide as the column's longest field in the block, and the gather takes
    one pass per word, so a column with a field of over ``_KEY_WORDS``
    words, or whose keys would take more than 8 bytes per byte of the block
    (one long label among many short ones), is decoded one field at a time
    instead: time and memory stay linear in the block. Decoding checks that
    the block is UTF-8, since the rest of it is commas, CRs, LFs and 0/1
    outcomes; a key the table knows was decoded when it joined.
    """
    n_words = max(1, -(-int(lengths.max()) // 8))
    if n_words > _KEY_WORDS or n_words * len(starts) > len(block):
        return _decoded_codes(block, starts, lengths, codes)
    if n_words == 1:  # every field starts before its line's LF and has at most 8 bytes
        keys = words[starts] & _LOW_BYTES[lengths]
        known = table.lookup(keys)
        if known is not None:
            return known
    else:
        wide = np.empty((len(starts), n_words), dtype="<u8")
        for k in range(n_words):
            pos = np.minimum(starts + 8 * k, len(block) - 1)  # a word past a field's end is masked off
            wide[:, k] = words[pos] & _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)]
        keys = wide.view(np.dtype((np.void, 8 * n_words)))[:, 0]
    distinct, inverse = np.unique(keys, return_inverse=True)
    lut = np.empty(len(distinct), dtype=np.int32)
    new = table.known(distinct, lut) if n_words == 1 else np.ones(len(distinct), dtype=bool)
    first = np.full(len(distinct), len(keys))  # each key's first field, found without a stable sort
    np.minimum.at(first, inverse, np.arange(len(keys)))
    order = np.flatnonzero(new)
    order = order[np.argsort(first[order])]
    at = first[order]  # one field of each new key, in order of first appearance
    lut[order] = _decoded_codes(block, starts[at], lengths[at], codes)
    if n_words == 1 and len(order):
        table.learn(distinct[new], lut[new])
    return lut[inverse]


def _decoded_codes(
    block: bytes, starts: np.ndarray, lengths: np.ndarray, codes: dict[str, int]
) -> list[int]:
    """The category index of each field in turn, decoding it as UTF-8."""
    return [
        _code(codes, block[a:a + size].decode("utf-8"))
        for a, size in zip(starts.tolist(), lengths.tolist())
    ]


def write_csv(dataset: Dataset, path: str | Path, outcome_column: str = "y") -> None:
    """Serialize a dataset back to CSV; load_csv on the result reproduces it.

    The file holds the bytes that the csv module writes for the same rows.
    Records of one cell and outcome share their line, so each cell's line is
    built once (``_cell_lines``) by joining its labels' csv fields with
    numpy's string concatenation, right-aligned in a row of bytes as wide as
    the longest line and ending in the outcome ``0``'s ``0\\r\\n``. A block of
    records, about ``_BLOCK_BYTES``, is then one gather of their cells' rows,
    with the outcome added to each row's ``0``; when the lines differ in
    width, a mask drops each row's left padding. Memory is the cells' lines,
    O(cells x line width), plus one block: whatever the record count, but up
    to a table as large as the file's lines when every record is its own cell.
    """
    if outcome_column in dataset.schema.feature_names:
        raise ContractError(f"outcome column {outcome_column!r} collides with a feature")
    for name, cats in dataset.schema.features:
        if "" in cats:  # an empty field, which load_csv reads as MISSING_LABEL
            raise ContractError(f"feature {name!r} has an empty category label")
    lines, starts = _cell_lines(dataset.schema, dataset.cells.columns)
    width, cells, outcomes = lines.shape[1], dataset.cells.index, dataset.outcomes.view(np.uint8)
    step, padded = max(1, _BLOCK_BYTES // width), starts.any()
    with _atomic_bytes(path) as fh:
        fh.write(_csv_lines([[*dataset.schema.feature_names, outcome_column]])[0])
        for a in range(0, dataset.n_records, step):
            block = np.take(lines, cells[a:a + step], axis=0)
            block[:, -3] += outcomes[a:a + step]  # "0" becomes "1"
            if padded:
                block = block[np.arange(width) >= starts[cells[a:a + step], None]]
            fh.write(block)


def _cell_lines(schema: Schema, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lines, starts): each cell's CSV line, right-aligned in a row of bytes, and where it starts.

    A line ends in ``0\\r\\n``, the outcome ``0`` with its line end, and the
    rows are as wide as the longest line; a row's bytes before its line's
    start are spaces. The csv module writes each distinct field once: every
    category label as a lone field whose line end gives way to a comma. Each
    column's fields are an ``S`` array, and a block of cells, about
    ``_BLOCK_BYTES`` of lines, joins its columns' gathered fields and the
    ``0\\r\\n`` with ``np.char.add`` and right-aligns the result with
    ``np.char.rjust``. Every field ends in its comma, so the ``S`` dtype's
    stripping of trailing NUL bytes never cuts a NUL byte of a label.
    """
    fields = [np.array([line[:-2] + b"," for line in _csv_lines([label] for label in cats)])
              for _, cats in schema.features]
    # each cell's bytes before its outcome
    size = sum(np.char.str_len(column)[col] for column, col in zip(fields, columns))
    width = int(size.max()) + 3
    lines, step = np.empty(len(size), f"S{width}"), max(1, _BLOCK_BYTES // width)
    for a in range(0, len(size), step):
        block = [column[col] for column, col in zip(fields, columns[:, a:a + step])]
        lines[a:a + step] = np.char.rjust(reduce(np.char.add, [*block, b"0\r\n"]), width)
    return lines.view((np.uint8, width)), (width - 3 - size).astype(np.min_scalar_type(width))


def _csv_lines(rows: Iterable[Iterable]) -> list[bytes]:
    """Each row as the csv module writes it, CRLF-ended, in UTF-8."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(rows)  # one write a row
    return [line.encode("utf-8") for line in lines]


@contextmanager
def _atomic_bytes(path: str | Path) -> Iterator[IO[bytes]]:
    """Binary file written beside ``path`` and moved onto it only if the block succeeds."""
    tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
    try:
        try:
            with open(tmp, "xb") as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # gone already after a successful replace
    except OSError as e:  # a directory at ``path``, no permission, a full disk
        raise ContractError(f"cannot write {path} ({e.strerror})") from None


@contextmanager
def _atomic_text(path: str | Path) -> Iterator[IO[str]]:
    """UTF-8 text file with untranslated line ends, written as ``_atomic_bytes`` writes."""
    with _atomic_bytes(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        yield fh


def _write_table(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write an RFC-4180 CSV table, its header first, atomically.

    A cell is written as the csv module writes it: a float as its ``repr``,
    ``None`` as an empty field, anything else as its ``str``.
    """
    with _atomic_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
