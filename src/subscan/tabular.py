"""Tabular data model: schema, dataset, subgroup descriptors, CSV I/O, synthetic cohorts.

Categories are encoded as dense integer indices per feature, in the smallest
unsigned dtype that holds the widest feature's; human-readable labels live
only in the Schema. Rows and outcomes are immutable numpy arrays, so datasets
can be shared freely across parallel workers. Only this module reads them,
or the cell table built from them: the other modules see the data through
``CategoryCounter``, the one way a member set is counted (the scan keeps one
per restart, ``scan.evaluate`` builds one per descriptor, the substitution
stages keep one on the subgroup they perturb, and the relevance ranking builds
one with no masks for each feature's marginal counts), and through
``Dataset.cell_sums``, which tallies a bootstrap replicate's drawn outcomes
per cell.

Every count runs over cells, the distinct feature patterns of a dataset,
weighted by their record and positive counts: the scan score depends on the
data only through these aggregates, and a dataset usually has far fewer cells
than records.

``load_csv`` has two readers that give the same Dataset. A plain file (no
``"``, LF or CRLF line ends, valid UTF-8, a 0/1 outcome in every row: what
``write_csv`` writes for unquoted labels) is parsed with numpy over blocks of
whole lines, one fixed-width byte key per field; a column whose fields are
too long for narrow keys is decoded one field at a time. Any other file, and
every file the byte reader finds a fault in, is read through the csv module
one record at a time, which accepts it or raises the LoadError. A fault found
late costs the byte reader's work up to it on top of the csv module's read.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace
from typing import IO, NamedTuple

import numpy as np

from .errors import ContractError, LoadError

MISSING_LABEL = "<missing>"

_OUTCOMES: Mapping[str, int] = {"0": 0, "1": 1}  # outcome label -> value
_RECORD_BLOCK = 1 << 16  # generate_synthetic draws outcomes for this many records at a time


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


@dataclass(frozen=True)
class Dataset:
    """Immutable categorical table with a binary outcome per record and its outcome totals."""

    schema: Schema
    rows: np.ndarray        # (N, M) category indices in _code_dtype(schema.cardinalities())
    outcomes: np.ndarray    # (N,) int8 in {0, 1}
    n_positive: int = field(init=False)
    global_mean: float = field(init=False)

    def __post_init__(self) -> None:
        rows = _integers(self.rows, "rows")
        if rows.ndim != 2 or min(rows.shape) < 1:
            raise ContractError("rows must be an (N, M) array with N, M >= 1")
        if rows.shape[1] != self.schema.n_features:
            raise ContractError(
                f"rows have {rows.shape[1]} columns but schema has "
                f"{self.schema.n_features} features"
            )
        outcomes = _integers(self.outcomes, "outcomes")
        if outcomes.shape != (rows.shape[0],):
            raise ContractError("outcomes must be a length-N vector")
        bad = (outcomes < 0) | (outcomes > 1)  # checked before narrowing, where a 257 would wrap
        if bad.any():
            raise ContractError(f"outcome at row {int(np.argmax(bad))} is not 0/1")
        outcomes = _adopted(outcomes, np.int8)
        cardinalities = self.schema.cardinalities()
        for z, card in enumerate(cardinalities):
            col = rows[:, z]  # checked before narrowing, where a -1 would wrap
            if col.min() < 0 or col.max() >= card:
                raise ContractError(
                    f"category index out of range in feature {self.schema.features[z][0]!r}: "
                    f"rows hold values outside the range [0, {card})"
                )
        rows = _adopted(rows, _code_dtype(cardinalities))
        n_positive = int(outcomes.sum())
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "n_positive", n_positive)
        object.__setattr__(self, "global_mean", n_positive / rows.shape[0])

    @property
    def n_records(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def cells(self) -> CellTable:
        """The distinct feature patterns of the records, built on first use."""
        return _cell_table(self.rows, self.schema.cardinalities())

    @cached_property
    def cell_positives(self) -> np.ndarray:
        """(C,) positive records per cell."""
        return self.cell_sums(self.outcomes.view(np.bool_))  # outcomes are 0/1 int8

    def cell_sums(self, flags: np.ndarray) -> np.ndarray:
        """(C,) count per cell of the records that ``flags``, an (N,) bool mask, marks."""
        return np.bincount(self.cells.index[flags], minlength=len(self.cells.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.outcomes, other.outcomes)
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


class CellTable(NamedTuple):
    """The cells of a dataset: its distinct feature patterns, in lexicographic order."""

    columns: np.ndarray  # (M, C) category indices as rows.dtype, one contiguous row per feature
    index: np.ndarray    # (N,) int32 cell of each record
    n: np.ndarray        # (C,) records per cell


_INT64_MAX = int(np.iinfo(np.int64).max)


def _renumbered(key: np.ndarray) -> tuple[np.ndarray, int]:
    """(the keys renumbered densely in the same order, their span), through a sort."""
    distinct, key = np.unique(key, return_inverse=True)
    return key, len(distinct)


def _cell_table(rows: np.ndarray, cardinalities: tuple[int, ...]) -> CellTable:
    """Group records by feature pattern: a mixed-radix int64 key per record, cells in key order."""
    key = np.zeros(rows.shape[0], dtype=np.int64)
    span = 1  # every key lies in [0, span)
    for z, card in enumerate(cardinalities):
        if span > _INT64_MAX // card:
            key, span = _renumbered(key)  # key * card would wrap and merge distinct cells
        key *= card
        key += rows[:, z]
        span *= card
    if span > len(key):
        key, span = _renumbered(key)  # else the key table would outgrow the records
    n = np.bincount(key, minlength=span)
    present = n > 0
    index = (np.cumsum(present, dtype=np.int32) - 1)[key]  # cell of each record
    del key  # 8 bytes a record, not to be held beside the arange below
    n = n[present]
    representative = np.empty(len(n), dtype=np.intp)
    representative[index] = np.arange(rows.shape[0])
    # one feature at a time: a whole (C, M) gather and its transpose would
    # add two table-sized temporaries to the peak memory
    columns = np.empty((rows.shape[1], len(n)), dtype=rows.dtype)
    for z in range(rows.shape[1]):
        columns[z] = rows[representative, z]
    return CellTable(columns, index, n)


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
    bootstrap replicate's). Holds a boolean ``allowed`` category mask per
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
        self._n = cells.n.astype(np.float64)  # bincount weights
        self._positives = positives.astype(np.float64)
        dtype = np.min_scalar_type(len(self._columns))  # a cell fails at most every feature
        self._fails = np.zeros(cells.columns.shape, dtype=dtype)
        self._violations = np.zeros(cells.columns.shape[1], dtype=dtype)
        for f, ok in allowed.items():
            self.set_allowed(f, ok)

    def set_allowed(self, feature: int, allowed: np.ndarray) -> None:
        """Replace ``feature``'s allowed category mask."""
        fails = self._fails[feature]
        self._violations -= fails
        card = self._cardinalities[feature]
        if card <= 32:  # shift a word of rejected-category bits (see the class docstring)
            rejected = int.from_bytes(np.packbits(~allowed, bitorder="little").tobytes(), "little")
            word = np.min_scalar_type((1 << card) - 1).type(rejected)
            np.right_shift(word, self._columns[feature], out=fails, casting="unsafe")
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
        inside = np.flatnonzero(self._violations == self._fails[feature])
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
    subgroup is defined by the descriptor, so scan recovery is well-posed.
    """
    p_in = planted_outcome_rate(spec)
    schema = spec.schema()
    rng = np.random.default_rng(spec.seed)
    rows = np.empty((spec.n_records, len(spec.cardinalities)), _code_dtype(spec.cardinalities))
    for z, card in enumerate(spec.cardinalities):
        rows[:, z] = rng.integers(0, card, size=spec.n_records, dtype=np.int32)

    # in blocks: the stream of one draw, without its two float64 arrays as long as the data
    allowed, outcomes = _allowed_masks(schema, spec.planted), np.empty(spec.n_records, np.int8)
    for a in range(0, spec.n_records, _RECORD_BLOCK):
        inside = np.ones(min(_RECORD_BLOCK, spec.n_records - a), dtype=bool)
        for f, ok in allowed.items():
            inside &= ok[rows[a:a + _RECORD_BLOCK, f]]
        p = np.where(inside, p_in, spec.base_rate)
        outcomes[a:a + _RECORD_BLOCK] = rng.random(len(p)) < p
    return Dataset(schema, _frozen(rows), _frozen(outcomes)), spec.planted


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
            rows: list[list[int]] = []
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
                rows.append([_code(codes[j], record[col]) for j, col in enumerate(feature_cols)])
    except (OSError, UnicodeDecodeError, csv.Error) as e:  # a directory, not UTF-8, bad CSV
        raise LoadError(f"{path}: cannot read as a UTF-8 CSV file ({e})") from None

    if not rows:
        raise LoadError(f"{path}: no data rows")
    schema = Schema(tuple((header[col], tuple(codes[j])) for j, col in enumerate(feature_cols)))
    rows_array = np.array(rows, dtype=_code_dtype(map(len, codes)))
    outcomes_array = np.array(outcomes, dtype=np.int8)
    return Dataset(schema, _frozen(rows_array), _frozen(outcomes_array))


_BLOCK_BYTES = 1 << 20  # the byte reader reads, and write_csv builds, this much at a time
_COMMA, _LF, _CR, _ZERO = b",\n\r0"  # byte values
_KEY_WORDS = 8  # fields of up to this many 8-byte words are keyed with numpy
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")  # masks of k low bytes


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
    once to parse it. That array starts as uint8 and is widened to uint16,
    then uint32, when a column's labels outgrow it, before the store that
    would wrap: at most twice a load. A widening copies only the records
    parsed so far, and the pages of the rest are not touched until they are
    stored, so it holds the old and the new codes of those records at once:
    3 bytes a code at the step to uint16, 6 at the step to uint32, against
    the 4 of an int32 table. The step to uint32 costs more than an int32
    table only if it comes after two thirds of the records.
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
            return _parse_plain(path, _line_blocks(fh), n_records, outcome_column)
    except (_NotPlain, LoadError, OSError, UnicodeDecodeError):
        return None


def _line_blocks(fh: IO[bytes]) -> Iterator[bytes]:
    """The file in blocks of whole lines; an unended last line gets its LF."""
    tail = b""
    for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield _crlf_only(tail + memoryview(chunk)[:cut])
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield _crlf_only(tail + b"\n")


def _crlf_only(block: bytes) -> bytes:
    """The block; _NotPlain at a CR outside a CRLF, where the csv module ends a record."""
    if block.count(b"\r") != block.count(b"\r\n"):
        raise _NotPlain
    return block


def _parse_plain(
    path: Path, blocks: Iterator[bytes], n_records: int, outcome_column: str
) -> Dataset:
    """The Dataset of a plain file's line blocks; _NotPlain at the first fault."""
    limit = csv.field_size_limit()
    head, _, first = next(blocks).removeprefix(codecs.BOM_UTF8).partition(b"\n")
    fields = head.removesuffix(b"\r").split(b",")
    if max(map(len, fields)) > limit:
        raise _NotPlain
    header = [name.decode("utf-8") for name in fields]
    y_col, feature_cols = _columns(path, header, outcome_column)

    codes: list[dict[str, int]] = [{} for _ in feature_cols]
    rows = np.empty((n_records, len(feature_cols)), dtype=np.uint8)
    outcomes = np.empty(n_records, dtype=np.int8)
    done = 0
    for block in itertools.chain([first] if first else [], blocks):  # after the header
        buf = np.frombuffer(block, dtype=np.uint8)
        # the 8 bytes from each position of the block, as little-endian words
        words = np.ndarray(len(block), dtype="<u8", buffer=block + bytes(7), strides=(1,))
        # each row's field ends: the positions of its commas and of its LF
        ends = np.flatnonzero((buf == _COMMA) | (buf == _LF))
        n = block.count(b"\n")
        if len(ends) != n * len(header) or done + n > n_records:
            raise _NotPlain
        ends = ends.reshape(n, len(header))
        if not (buf[ends[:, -1]] == _LF).all():  # then every other end is a comma
            raise _NotPlain
        row_starts = np.r_[0, ends[:-1, -1] + 1]
        ends[:, -1] -= buf[ends[:, -1] - 1] == _CR  # a CRLF line's field ends before its CR
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
                block_codes = _block_codes(block, words, start, length, codes[j])
                if len(codes[j]) > np.iinfo(rows.dtype).max + 1:  # the store would wrap
                    narrow, rows = rows, np.empty(rows.shape, _code_dtype([len(codes[j])]))
                    rows[:done + n] = narrow[:done + n]  # this block's earlier columns too
                    del narrow
                rows[done:done + n, j] = block_codes
        done += n
    if done != n_records:
        raise _NotPlain
    schema = Schema(tuple((header[col], tuple(codes[j])) for j, col in enumerate(feature_cols)))
    return Dataset(schema, _frozen(rows), _frozen(outcomes))


def _block_codes(
    block: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
    codes: dict[str, int],
) -> np.ndarray | list[int]:
    """The category index of each field of one column in a block, adding new labels to ``codes``.

    ``words[i]`` holds the 8 bytes of the block from position ``i``. Each
    field becomes a key of its bytes, zero-padded to whole 8-byte words (a
    plain file has no NUL byte, so distinct fields keep distinct keys): one
    uint64 for a field of up to 8 bytes, else a void scalar of several words.
    The block's distinct keys join ``codes`` in the order they first appear.
    Every key is as wide as the column's longest field in the block, and the
    gather takes one pass per word, so a column with a field of over
    ``_KEY_WORDS`` words, or whose keys would take more than 8 bytes per byte
    of the block (one long label among many short ones), is decoded one field
    at a time instead: time and memory stay linear in the block. Decoding
    checks that the block is UTF-8, since the rest of it is commas, CRs, LFs
    and 0/1 outcomes.
    """
    n_words = max(1, -(-int(lengths.max()) // 8))
    if n_words > _KEY_WORDS or n_words * len(starts) > len(block):
        return _decoded_codes(block, starts, lengths, codes)
    keys = np.empty((len(starts), n_words), dtype="<u8")
    for k in range(n_words):
        pos = np.minimum(starts + 8 * k, len(block) - 1)  # a word past a field's end is masked off
        keys[:, k] = words[pos] & _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)]
    keys = keys[:, 0] if n_words == 1 else keys.view(np.dtype((np.void, 8 * n_words)))[:, 0]
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys))  # each key's first field, found without a stable sort
    np.minimum.at(first, inverse, np.arange(len(keys)))
    order = np.argsort(first)
    at = first[order]  # one field of each key, in order of first appearance
    lut = np.empty(len(first), dtype=np.int32)
    lut[order] = _decoded_codes(block, starts[at], lengths[at], codes)
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

    The file holds the bytes that the csv module writes for the same rows, and
    the csv module writes each distinct field once: every category label as a
    lone field whose line end gives way to a comma, and the outcomes ``0`` and
    ``1`` with their line ends. Each column's fields are kept zero-padded in
    the narrowest unsigned words that hold the longest (several 8-byte words
    past 8 bytes), beside a 0/1 byte mask of their own bytes. A block of
    records, about ``_BLOCK_BYTES`` of padded fields, is one gather per column
    into a packed record array and one into its mask; the bytes the mask
    keeps are written. Memory stays bounded whatever the dataset's size.
    """
    if outcome_column in dataset.schema.feature_names:
        raise ContractError(f"outcome column {outcome_column!r} collides with a feature")
    for name, cats in dataset.schema.features:
        if "" in cats:  # an empty field, which load_csv reads as MISSING_LABEL
            raise ContractError(f"feature {name!r} has an empty category label")
    tables = [
        _field_table([line[:-2] + b"," for line in _csv_lines([label] for label in cats)])
        for _, cats in dataset.schema.features
    ] + [_field_table(_csv_lines([["0"], ["1"]]))]
    record = np.dtype([(f"c{z}", t.dtype, t.shape[1:]) for z, (t, _) in enumerate(tables)])
    step = max(1, _BLOCK_BYTES // record.itemsize)
    with _atomic_bytes(path) as fh:
        fh.write(_csv_lines([[*dataset.schema.feature_names, outcome_column]])[0])
        for a in range(0, dataset.n_records, step):
            codes = [*dataset.rows[a:a + step].T, dataset.outcomes[a:a + step]]
            block, keep = np.empty(len(codes[-1]), record), np.empty(len(codes[-1]), record)
            for name, (words, mask), index in zip(record.names, tables, codes):
                block[name], keep[name] = words[index], mask[index]
            fh.write(block.view(np.uint8)[keep.view(np.bool_)])


def _csv_lines(rows: Iterable[Iterable]) -> list[bytes]:
    """Each row as the csv module writes it, CRLF-ended, in UTF-8."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(rows)  # one write a row
    return [line.encode("utf-8") for line in lines]


def _field_table(fields: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(words, mask): the fields zero-padded into words, and a 0/1 byte for each of their bytes.

    A row per field, of one unsigned word of 1, 2, 4 or 8 bytes or of several
    8-byte words, the fewest bytes that hold the longest field; the mask marks
    the field's own bytes, so a field may hold NUL bytes of its own.
    """
    width = max(map(len, fields))
    size = 1 << (width - 1).bit_length() if width <= 8 else 8 * -(-width // 8)
    shape = (len(fields), size // 8) if size > 8 else (len(fields),)
    dtype = np.dtype(f"u{min(size, 8)}")
    words = b"".join(f.ljust(size, b"\0") for f in fields)
    mask = b"".join((b"\1" * len(f)).ljust(size, b"\0") for f in fields)
    return np.frombuffer(words, dtype).reshape(shape), np.frombuffer(mask, dtype).reshape(shape)


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
