"""Tabular data model: schema, dataset, subgroup descriptors, CSV I/O, synthetic cohorts.

Categories are encoded as dense integer indices per feature; human-readable
labels live only in the Schema. Rows and outcomes are immutable numpy arrays,
so datasets can be shared freely across parallel workers. Only this module
reads them: the other modules see the data through ``CategoryCounter``,
``category_counts``, ``subset_counts`` and ``membership_mask``.

Every count runs over cells, the distinct feature patterns of a dataset,
weighted by their record and positive counts: the scan score depends on the
data only through these aggregates, and a dataset usually has far fewer cells
than records.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .errors import ContractError, LoadError

MISSING_LABEL = "<missing>"

# Outcome-column aliases: {"0","1"} is the default; pass TRUE_FALSE_ALIASES to
# accept boolean-style files instead.
DEFAULT_OUTCOME_ALIASES: Mapping[str, int] = {"0": 0, "1": 1}
TRUE_FALSE_ALIASES: Mapping[str, int] = {
    "0": 0, "1": 1, "false": 0, "true": 1, "False": 0, "True": 1,
}


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
    rows: np.ndarray        # (N, M) int32 category indices
    outcomes: np.ndarray    # (N,) int8 in {0, 1}
    n_positive: int = field(init=False)
    global_mean: float = field(init=False)

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=np.int32, order="C", copy=True)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ContractError("rows must be a non-empty (N, M) array")
        if rows.shape[1] != self.schema.n_features:
            raise ContractError(
                f"rows have {rows.shape[1]} columns but schema has "
                f"{self.schema.n_features} features"
            )
        outcomes = np.array(self.outcomes, dtype=np.int8, copy=True)
        if outcomes.shape != (rows.shape[0],):
            raise ContractError("outcomes must be a length-N vector")
        bad = ~np.isin(outcomes, (0, 1))
        if bad.any():
            raise ContractError(f"outcome at row {int(np.argmax(bad))} is not 0/1")
        for z in range(self.schema.n_features):
            col = rows[:, z]
            card = self.schema.cardinality(z)
            if col.min() < 0 or col.max() >= card:
                raise ContractError(
                    f"category index out of range in feature "
                    f"{self.schema.features[z][0]!r}"
                )
        rows.setflags(write=False)
        outcomes.setflags(write=False)
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
        positive = self.outcomes.view(np.bool_)  # outcomes are 0/1 int8
        return np.bincount(self.cells.index[positive], minlength=len(self.cells.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.outcomes, other.outcomes)
        )

    __hash__ = None  # type: ignore[assignment]


class CellTable(NamedTuple):
    """The cells of a dataset: its distinct feature patterns, in lexicographic order."""

    columns: np.ndarray  # (M, C) int32 category indices, one contiguous row per feature
    index: np.ndarray    # (N,) int32 cell of each record
    n: np.ndarray        # (C,) records per cell


_INT64_MAX = int(np.iinfo(np.int64).max)


def _cell_table(rows: np.ndarray, cardinalities: tuple[int, ...]) -> CellTable:
    """Group records by feature pattern through a mixed-radix int64 key per record."""
    key = np.zeros(rows.shape[0], dtype=np.int64)
    span = 1  # every key lies in [0, span)
    for z, card in enumerate(cardinalities):
        if span > _INT64_MAX // card:
            # renumber densely first: key * card would wrap and merge distinct cells
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key *= card
        key += rows[:, z]
        span *= card
    index = np.unique(key, return_inverse=True)[1].astype(np.int32)
    n = np.bincount(index)  # every cell holds a record, so there are len(n) cells
    representative = np.empty(len(n), dtype=np.intp)
    representative[index] = np.arange(rows.shape[0])
    # one feature at a time: a whole (C, M) gather and its transpose would
    # add two table-sized temporaries to the peak memory
    columns = np.empty((rows.shape[1], len(n)), dtype=np.int32)
    for z in range(rows.shape[1]):
        columns[z] = rows[representative, z]
    return CellTable(columns, index, n)


def _within(columns: np.ndarray, allowed: Mapping[int, np.ndarray | None]) -> np.ndarray:
    """Mask of the entries whose feature values (``columns[f]``) fall in their allowed masks."""
    mask = np.ones(columns.shape[1], dtype=bool)
    for f, ok in allowed.items():
        if ok is not None:
            mask &= ok[columns[f]]
    return mask


def _allowed_masks(schema: Schema, descriptor: SubsetDescriptor) -> dict[int, np.ndarray]:
    """The descriptor as boolean category masks, feature index -> mask."""
    descriptor.validate_against(schema)
    allowed = {}
    for f, vs in descriptor.constraints:
        allowed[f] = np.zeros(schema.cardinality(f), dtype=bool)
        allowed[f][list(vs)] = True
    return allowed


def membership_mask(dataset: Dataset, descriptor: SubsetDescriptor) -> np.ndarray:
    """Boolean mask of records satisfying the descriptor."""
    return _within(dataset.rows.T, _allowed_masks(dataset.schema, descriptor))


class CategoryCounter:
    """Per-category counts of one feature over the records the other features allow.

    Counts the given ``positives`` per cell (``dataset.cell_positives``, or a
    bootstrap replicate's). Holds a boolean ``allowed`` category mask per
    feature (a missing or None mask is unconstrained). For every cell it keeps
    which features reject it and how many do, so counting a feature costs
    O(cells) and changing one feature's mask updates one row of that
    bookkeeping.
    """

    def __init__(
        self, dataset: Dataset, positives: np.ndarray, allowed: Mapping[int, np.ndarray | None]
    ) -> None:
        cells = dataset.cells
        self._columns = cells.columns
        self._cardinalities = dataset.schema.cardinalities()
        self._n = cells.n.astype(np.float64)  # bincount weights
        self._positives = positives.astype(np.float64)
        self._fails = np.zeros(cells.columns.shape, dtype=np.uint8)
        self._violations = np.zeros(cells.columns.shape[1], dtype=np.int32)
        for f, ok in allowed.items():
            self.set_allowed(f, ok)

    def set_allowed(self, feature: int, allowed: np.ndarray | None) -> None:
        """Replace ``feature``'s allowed category mask."""
        fails = self._fails[feature]
        self._violations -= fails
        fails[:] = False if allowed is None else np.take(~allowed, self._columns[feature])
        self._violations += fails

    def counts(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """(record counts, positive counts) per category of ``feature``.

        They run over the records that every other feature's mask allows;
        ``feature``'s own mask is ignored.
        """
        inside = np.flatnonzero(self._violations == self._fails[feature])
        col = self._columns[feature][inside]
        card = self._cardinalities[feature]
        counts = np.bincount(col, weights=self._n[inside], minlength=card)
        positives = np.bincount(col, weights=self._positives[inside], minlength=card)
        return counts.astype(np.int64), positives.astype(np.int64)


def category_counts(
    dataset: Dataset, allowed: Mapping[int, np.ndarray | None], feature: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-category (record counts, positive counts) of ``feature``.

    Counts run over the records whose other features fall in their boolean
    ``allowed`` category masks (feature index -> mask). A feature without a
    mask, or with None, is unconstrained; ``feature``'s own mask is ignored.
    """
    return CategoryCounter(dataset, dataset.cell_positives, allowed).counts(feature)


def membership(dataset: Dataset, descriptor: SubsetDescriptor) -> np.ndarray:
    """Sorted indices of records satisfying the descriptor.

    An empty descriptor matches every record; a feature constrained to all of
    its categories is vacuous.
    """
    return np.flatnonzero(membership_mask(dataset, descriptor))


def subset_counts(dataset: Dataset, descriptor: SubsetDescriptor) -> tuple[int, int]:
    """(size, positive count) of the descriptor's member set."""
    cells = dataset.cells
    inside = _within(cells.columns, _allowed_masks(dataset.schema, descriptor))
    return int(cells.n[inside].sum()), int(dataset.cell_positives[inside].sum())


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
        if not self.odds_multiplier > 1.0:
            raise ContractError("odds_multiplier must exceed 1")
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
    rows = np.empty((spec.n_records, len(spec.cardinalities)), dtype=np.int32)
    for z, card in enumerate(spec.cardinalities):
        rows[:, z] = rng.integers(0, card, size=spec.n_records, dtype=np.int32)

    inside = _within(rows.T, _allowed_masks(schema, spec.planted))
    p = np.where(inside, p_in, spec.base_rate)
    outcomes = (rng.random(spec.n_records) < p).astype(np.int8)
    return Dataset(schema, rows, outcomes), spec.planted


def load_csv(
    path: str | Path,
    outcome_column: str,
    outcome_aliases: Mapping[str, int] = DEFAULT_OUTCOME_ALIASES,
) -> Dataset:
    """Ingest an RFC-4180 style CSV (header required, UTF-8) into a Dataset.

    Every column except the outcome is treated as categorical; category
    indices follow first appearance order. Empty cells become the
    ``<missing>`` category.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LoadError(f"{path}: file is empty, header row required") from None
            if outcome_column not in header:
                raise LoadError(f"{path}: outcome column {outcome_column!r} not in header")
            y_col = header.index(outcome_column)
            feature_cols = [i for i in range(len(header)) if i != y_col]
            if not feature_cols:
                raise LoadError(f"{path}: no feature columns besides the outcome")

            labels: list[dict[str, int]] = [{} for _ in feature_cols]
            ordered: list[list[str]] = [[] for _ in feature_cols]
            rows: list[list[int]] = []
            outcomes: list[int] = []
            for r, record in enumerate(reader, start=1):
                if len(record) != len(header):
                    raise LoadError(
                        f"{path}: row {r} has {len(record)} cells, expected {len(header)}"
                    )
                raw_y = record[y_col].strip()
                if raw_y not in outcome_aliases:
                    raise LoadError(
                        f"{path}: row {r}, column {outcome_column!r}: "
                        f"non-binary outcome value {record[y_col]!r}"
                    )
                outcomes.append(outcome_aliases[raw_y])
                encoded = []
                for j, col in enumerate(feature_cols):
                    cell = record[col]
                    if cell == "":
                        cell = MISSING_LABEL
                    idx = labels[j].get(cell)
                    if idx is None:
                        idx = len(ordered[j])
                        labels[j][cell] = idx
                        ordered[j].append(cell)
                    encoded.append(idx)
                rows.append(encoded)
    except (OSError, UnicodeDecodeError, csv.Error) as e:  # a directory, not UTF-8, bad CSV
        raise LoadError(f"{path}: cannot read as a UTF-8 CSV file ({e})") from None

    if not rows:
        raise LoadError(f"{path}: no data rows")
    schema = Schema(
        tuple(
            (header[col], tuple(ordered[j]))
            for j, col in enumerate(feature_cols)
        )
    )
    return Dataset(schema, np.asarray(rows, dtype=np.int32), np.asarray(outcomes, dtype=np.int8))


def write_csv(dataset: Dataset, path: str | Path, outcome_column: str = "y") -> None:
    """Serialize a dataset back to CSV; load_csv on the result reproduces it."""
    if outcome_column in dataset.schema.feature_names:
        raise ContractError(f"outcome column {outcome_column!r} collides with a feature")
    with _atomic_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.feature_names) + [outcome_column])
        columns = [
            np.asarray(cats, dtype=object)[dataset.rows[:, z]]
            for z, (_, cats) in enumerate(dataset.schema.features)
        ]
        writer.writerows(zip(*columns, dataset.outcomes.tolist()))


@contextmanager
def _atomic_text(path: str | Path) -> Iterator[IO[str]]:
    """Text file written beside ``path`` and moved onto it only if the block succeeds."""
    tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace
