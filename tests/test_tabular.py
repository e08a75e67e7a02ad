from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from oracles import (
    brute_membership,
    cell_sums,
    index_dtype,
    membership,
    membership_mask,
    reference_cell_table,
    unique_rows_cells,
)
from subscan import tabular
from subscan.errors import ContractError, LoadError
from subscan.scan import evaluate
from subscan.tabular import (
    CategoryCounter,
    CellTable,
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    planted_outcome_rate,
    write_csv,
)

from conftest import make_recovery_cohort, random_dataset

# characters the csv module quotes or passes through, of 1 to 4 UTF-8 bytes
CSV_CHARS = st.sampled_from([",", '"', "\r", "\n", " ", "\0", "a", "v", "9", "é", "日", "😀"])
CSV_LABELS = st.one_of(
    st.sampled_from(["v9", "v10", " lead", "trail ", "x" * 9, "y" * 65]),
    st.text(CSV_CHARS, min_size=1, max_size=4),
    st.builds(lambda text, k: text * k, st.text(CSV_CHARS, min_size=1, max_size=3),
              st.integers(3, 30)),  # past 8 and past 64 bytes
)


@st.composite
def written_cohorts(draw):
    """(schema, rows, outcomes, outcome column, write_csv's block budget in bytes)."""
    names = draw(st.lists(st.text(CSV_CHARS, max_size=3), min_size=1, max_size=4, unique=True))
    outcome = draw(st.text(CSV_CHARS, max_size=3).filter(lambda name: name not in names))
    schema = Schema(tuple(
        (name, tuple(draw(st.lists(CSV_LABELS, min_size=1, max_size=6, unique=True))))
        for name in names
    ))
    rows = draw(st.lists(
        st.tuples(*(st.integers(0, len(cats) - 1) for _, cats in schema.features)),
        min_size=1, max_size=40,
    ))
    outcomes = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return schema, rows, outcomes, outcome, draw(st.integers(1, 256))


# labels of a feature's categories, by kind: one width, "v0" to "v39", ones the csv
# module quotes (a quote, a comma, a line end) and ones of 2- to 4-byte UTF-8 characters
LABEL_KINDS = {
    "fixed": lambda k: f"v{k:02d}",
    "mixed": lambda k: f"v{k}",
    "quoted": lambda k: ['q"{}', "a,{}", "l\n{}", "{}\r"][k % 4].format(k),
    "utf8": lambda k: ["é{}", "日本{}", "😀{}", "{}ü"][k % 4].format(k),
}


@st.composite
def cell_line_cohorts(draw):
    """(dataset, write_csv's block budget in bytes): features of up to 40 labels of one
    kind each, and up to 400 records, so that a cohort of many wide features has
    about as many cells as records."""
    kinds = draw(st.lists(st.sampled_from(sorted(LABEL_KINDS)), min_size=1, max_size=6))
    cards = [draw(st.integers(1, 40)) for _ in kinds]
    schema = Schema(tuple((f"f{z}", tuple(LABEL_KINDS[kind](k) for k in range(card)))
                          for z, (kind, card) in enumerate(zip(kinds, cards))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_records = draw(st.integers(1, 400))
    rows = rng.integers(0, cards, (n_records, len(cards)))
    return Dataset(schema, rows, rng.integers(0, 2, n_records)), draw(st.integers(1, 300))


def row_loop_bytes(dataset: Dataset, outcome: str) -> bytes:
    """The file as the csv module writes it one record at a time: write_csv's reference."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow([*dataset.schema.feature_names, outcome])
    cats = [c for _, c in dataset.schema.features]
    for row, y in zip(dataset.rows.tolist(), dataset.outcomes.tolist()):
        writer.writerow([cats[z][v] for z, v in enumerate(row)] + [y])
    return text.getvalue().encode("utf-8")


def dataset_and_rows(seed: int, n_records: int,
                     cards: tuple[int, ...]) -> tuple[Dataset, np.ndarray]:
    """A dataset of uniform category draws and random outcomes, with the rows it was made from."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, cards, (n_records, len(cards)))
    return Dataset(tabular._synthetic_schema(cards), rows, rng.integers(0, 2, n_records)), rows


def synthetic_rows(spec: SyntheticSpec) -> np.ndarray:
    """The category indices that generate_synthetic draws: an int32 column a feature, in order."""
    rng = np.random.default_rng(spec.seed)
    return np.column_stack([rng.integers(0, card, size=spec.n_records, dtype=np.int32)
                            for card in spec.cardinalities])


class TestSchema:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ContractError):
            Schema((("a", ("x",)), ("a", ("y",))))

    def test_duplicate_category_labels_rejected(self):
        with pytest.raises(ContractError):
            Schema((("a", ("x", "x")),))

    def test_empty_category_list_rejected(self):
        with pytest.raises(ContractError):
            Schema((("a", ()),))

    def test_lookups(self):
        s = Schema((("a", ("x", "y")), ("b", ("p", "q", "r"))))
        assert s.cardinalities() == (2, 3)
        assert s.feature_index("b") == 1
        assert s.value_index(1, "r") == 2
        with pytest.raises(ContractError):
            s.feature_index("nope")
        with pytest.raises(ContractError):
            s.value_index(0, "zzz")


class TestDataset:
    def test_cached_mean_matches_recompute(self, tiny_dataset):
        assert tiny_dataset.n_positive == tiny_dataset.outcomes.sum()
        assert tiny_dataset.global_mean == tiny_dataset.outcomes.sum() / 10

    def test_non_binary_outcome_rejected(self):
        s = Schema((("a", ("x", "y")),))
        with pytest.raises(ContractError):
            Dataset(s, [[0], [1]], [1, 2])

    def test_unhashable(self, tiny_dataset):
        # the dataclass's field hash takes the arrays, which numpy will not hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(tiny_dataset)

    def test_cell_sums_count_flagged_records_per_cell(self):
        # the tests' tally against the cells of whole rows, and cell_positives against it
        dataset, rows = dataset_and_rows(5, 300, (3, 2, 4))
        flags = np.random.default_rng(6).random(dataset.n_records) < 0.3
        _, index, n = unique_rows_cells(rows)
        sums = cell_sums(dataset, flags)
        assert np.array_equal(sums, np.bincount(index, weights=flags, minlength=len(n)))
        positives = dataset.cell_positives
        assert positives.dtype == np.float64
        assert np.array_equal(positives, cell_sums(dataset, dataset.outcomes == 1))

    def test_featureless_table_rejected(self):
        # the restart search would crash at its first step, which takes a feature
        with pytest.raises(ContractError, match="N, M >= 1"):
            Dataset(Schema(()), np.zeros((6, 0), dtype=np.int64), np.arange(6) % 2)

    def test_wrong_length_outcomes_rejected(self):
        s = Schema((("a", ("x", "y")),))
        with pytest.raises(ContractError, match="length-N"):
            Dataset(s, [[0], [1]], [1, 0, 1])

    def test_out_of_range_index_rejected(self):
        s = Schema((("a", ("x", "y")),))
        with pytest.raises(ContractError):
            Dataset(s, [[0], [2]], [1, 0])

    @pytest.mark.parametrize("rows, outcomes", [
        ([[0.9], [1.2]], [0.7, 1.5]),
        ([[0.9], [1.2]], [1, 0]),
        ([[0], [1]], [0.7, 1.5]),
        ([[0], [1]], np.array([1.0, 0.0])),
        ([["0"], ["1"]], [1, 0]),
    ], ids=["both", "rows", "outcomes", "integral_floats", "strings"])
    def test_non_integer_input_rejected(self, rows, outcomes):
        with pytest.raises(ContractError, match="must be integers or booleans"):
            Dataset(Schema((("a", ("x", "y")),)), rows, outcomes)

    @pytest.mark.parametrize("rows, outcomes, message", [
        (np.array([[2**32], [1]]), [1, 0], "outside the range"),
        ([[0], [1]], np.array([257, 0]), "outcome at row 0 is not 0/1"),
        ([[0], [1]], np.array([1, -1], dtype=np.int64), "outcome at row 1 is not 0/1"),
        ([[0], [1]], np.array([0, 2**63], dtype=np.uint64), "outcome at row 1 is not 0/1"),
        ([[0], [1]], np.array([-1, 0], dtype=">i4"), "outcome at row 0 is not 0/1"),
    ], ids=["rows", "outcomes", "negative_int64", "uint64_top_bit", "big_endian"])
    def test_values_that_would_wrap_rejected(self, rows, outcomes, message):
        with pytest.raises(ContractError, match=message):
            Dataset(Schema((("a", ("x", "y")),)), rows, outcomes)

    def test_boolean_input_accepted(self):
        dataset = Dataset(Schema((("a", ("x", "y")),)), [[False], [True]], [True, False])
        assert dataset.rows.tolist() == [[0], [1]] and dataset.outcomes.tolist() == [1, 0]

    def test_empty_table_rejected(self):
        s = Schema((("a", ("x",)),))
        with pytest.raises(ContractError):
            Dataset(s, np.empty((0, 1), dtype=np.int32), np.empty(0, dtype=np.int8))

    def test_arrays_immutable(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.rows[0, 0] = 1
        with pytest.raises(ValueError):
            tiny_dataset.outcomes[0] = 0

    def test_writeable_input_is_copied(self):
        rows, outcomes = np.array([[0], [1]], dtype=np.uint8), np.array([1, 0], dtype=np.int8)
        dataset = Dataset(Schema((("a", ("x", "y")),)), rows, outcomes)
        rows[0, 0], outcomes[0] = 1, 0
        assert dataset.rows.tolist() == [[0], [1]] and dataset.outcomes.tolist() == [1, 0]
        assert not dataset.rows.flags.writeable and not dataset.outcomes.flags.writeable

    def test_read_only_owned_arrays_are_adopted(self):
        outcomes = np.array([1, 0], dtype=np.int8)
        outcomes.setflags(write=False)
        dataset = Dataset(Schema((("a", ("x", "y")),)), [[0], [1]], outcomes)
        assert np.shares_memory(dataset.outcomes, outcomes)

    def test_read_only_owned_int32_rows_are_narrowed(self):
        rows = np.array([[0, 2], [1, 0]], dtype=np.int32)
        rows.setflags(write=False)
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q", "r"))))
        dataset = Dataset(schema, rows, np.array([1, 0], dtype=np.int8))
        assert dataset.rows.dtype == np.uint8 and not np.shares_memory(dataset.rows, rows)
        assert np.array_equal(dataset.rows, rows)
        assert dataset == Dataset(schema, rows.astype(np.uint8), [1, 0])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("value", [-1, 3])
    def test_out_of_range_index_names_the_feature(self, dtype, value):
        # checked on the input, before narrowing to uint8 would wrap -1 to 255
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q", "r"))))
        rows = np.array([[0, 2], [1, value]], dtype=dtype)
        with pytest.raises(ContractError, match="category index out of range in feature 'b'"):
            Dataset(schema, rows, [1, 0])

    @pytest.mark.parametrize("make", [
        lambda base: base[:2],        # a view of a writeable base
        lambda base: base[::2],       # ... that is not C-contiguous either
        lambda base: base[:2].astype(np.int64),  # owned, but not uint8
    ], ids=["view", "strided_view", "int64"])
    def test_other_read_only_arrays_are_copied(self, make):
        base = np.array([[0], [1], [1]], dtype=np.uint8)
        rows = make(base)
        rows.setflags(write=False)
        dataset = Dataset(Schema((("a", ("x", "y")),)), rows, np.array([1, 0], dtype=np.int8))
        assert not np.shares_memory(dataset.rows, base)
        base[:] = 1 - base
        assert dataset.rows.tolist() == [[0], [1]]

    def test_loaders_return_read_only_arrays(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,y\nx,1\nz,0\n")
        spec = SyntheticSpec(50, (2, 3), 0.2, SubsetDescriptor.from_dict({0: [0]}), 2.0, 1)
        for dataset in (tabular._read_plain(path, "y"), tabular._read_records(path, "y"),
                        load_csv(path, "y"), generate_synthetic(spec)[0]):
            for array in (dataset.rows, dataset.outcomes):
                assert array.flags.owndata and not array.flags.writeable


def assert_cell_table_invariants(dataset: Dataset, rows: np.ndarray) -> None:
    """The cells of ``dataset`` against ``rows``, the category indices it was made from."""
    cells = dataset.cells
    n_cells = len(cells.n)
    assert cells.columns.shape == (dataset.schema.n_features, n_cells)
    assert cells.columns.dtype == np.min_scalar_type(max(dataset.schema.cardinalities()) - 1)
    assert cells.index.dtype == index_dtype(dataset.schema.cardinalities())
    assert all(row.flags.c_contiguous for row in cells.columns)
    assert int(cells.n.sum()) == dataset.n_records
    assert cells.n.min() >= 1
    assert int(dataset.cell_positives.sum()) == dataset.n_positive
    positives = np.zeros(n_cells, dtype=np.int64)
    np.add.at(positives, cells.index, dataset.outcomes)
    assert dataset.cell_positives.tolist() == positives.tolist()
    assert len({tuple(cell) for cell in cells.columns.T.tolist()}) == n_cells
    assert np.array_equal(cells.columns[:, cells.index].T, rows)
    assert np.bincount(cells.index, minlength=n_cells).tolist() == cells.n.tolist()


def overflowing_dataset() -> tuple[Dataset, np.ndarray]:
    """70 binary features: the product of cardinalities, 2**70, exceeds 2**63.

    Only the first features vary much, so a key that wrapped (dropping the
    leading features) would merge many distinct records into one cell.
    """
    rng = np.random.default_rng(70)
    rows = (rng.random((300, 70)) < np.r_[np.full(8, 0.5), np.full(62, 0.03)]).astype(int)
    schema = Schema(tuple((f"f{z}", ("v0", "v1")) for z in range(70)))
    return Dataset(schema, rows, (rng.random(300) < 0.3).astype(np.int8)), rows


REGIMES = ["span < N", "span == N", "span > N", "key overflow"]


def drawn_cells_dataset(regime: str, data) -> tuple[Dataset, np.ndarray]:
    """A dataset whose key span (one past the packed key of every feature's last
    category) relates to its record count as ``regime`` says, with few values per
    feature, mostly 0, so that records share cells; and its rows."""
    if regime == "key overflow":  # at least 2**64 keys
        cards = [data.draw(st.integers(2, 3)) for _ in range(64)]
    else:
        low = 2 if regime == "span > N" else 1
        cards = data.draw(st.lists(st.integers(low, 5), min_size=1, max_size=4))
    packing = tabular._Packing.of(cards)
    span = 1 + sum((card - 1) << shift for card, (_, shift) in zip(cards, packing.fields))
    low, high = {
        "span < N": (span + 1, span + 300), "span == N": (span, span),
        "span > N": (1, span - 1), "key overflow": (1, 300),
    }[regime]
    n_records = data.draw(st.integers(low, min(high, low + 300)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    rows = (rng.integers(0, cards, (n_records, len(cards)))
            * (rng.random((n_records, len(cards))) < 0.4)).astype(np.int32)
    return Dataset(tabular._synthetic_schema(cards), rows, rng.integers(0, 2, n_records)), rows


def assert_matches_unique_rows(dataset: Dataset, rows: np.ndarray) -> None:
    cells = dataset.cells
    columns, index, n = unique_rows_cells(rows)
    assert cells.columns.dtype == np.min_scalar_type(max(dataset.schema.cardinalities()) - 1)
    assert cells.index.dtype == index_dtype(dataset.schema.cardinalities())
    assert np.array_equal(cells.columns, columns)
    assert np.array_equal(cells.index, index)
    assert np.array_equal(cells.n, n)


class TestCellTable:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data):
        cards = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        n_records = data.draw(st.integers(2, 200))
        seed = data.draw(st.integers(0, 2**16))
        assert_cell_table_invariants(*dataset_and_rows(seed, n_records, cards))

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_unique_rows(self, regime, data):
        """np.unique over whole rows, whether the keys are counted in a table of every key
        (span <= N) or renumbered first (span > N, and before a key would wrap)."""
        assert_matches_unique_rows(*drawn_cells_dataset(regime, data))

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data(), block=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_unique_rows_across_blocks(self, regime, data, block):
        """As above, with blocks of a few records, so that the records span several
        blocks; a key span above the block size makes the counting block grow to it."""
        with mock.patch.object(tabular, "_RECORD_BLOCK", block):
            drawn = drawn_cells_dataset(regime, data)
            assert_matches_unique_rows(*drawn)
            assert_cell_table_invariants(*drawn)

    @pytest.mark.parametrize("n_records, cards, block, dtype, index", [
        (200, (2, 3), 16, np.uint8, np.uint16),        # span 7 below the block: 13 blocks
        (500, (4, 5, 3), 8, np.uint8, np.uint16),      # span 115 above it: counted in blocks of 115
        (3000, (300, 2, 3), 64, np.uint16, np.uint16),  # span 2,399: two counting blocks
        # 17 key bits, span 76,800: int32 keys, two counting blocks
        (80_000, (300,) + (2,) * 8, 4096, np.uint16, np.int32),
    ], ids=["span_below_block", "span_above_block", "uint16", "int32_index"])
    def test_direct_keys_across_blocks(self, monkeypatch, n_records, cards, block, dtype, index):
        monkeypatch.setattr(tabular, "_RECORD_BLOCK", block)
        monkeypatch.setattr(tabular, "_renumbered", mock.Mock(side_effect=AssertionError))
        dataset, rows = dataset_and_rows(n_records, n_records, cards)
        assert dataset.rows.dtype == dtype and dataset.cells.index.dtype == index
        assert_matches_unique_rows(dataset, rows)
        assert_cell_table_invariants(dataset, rows)

    def test_every_uint16_cell(self):
        # 8 four-category features, every pattern twice in a shuffled order:
        # 65,536 cells, so that the uint16 index reaches its top value
        at = np.random.default_rng(16).permutation(np.tile(np.arange(1 << 16), 2))
        rows = (at[:, None] >> 2 * np.arange(7, -1, -1)) & 3
        dataset = Dataset(tabular._synthetic_schema((4,) * 8), rows, at % 2)
        assert dataset.cells.index.dtype == np.uint16 and int(dataset.cells.index.max()) == 65_535
        assert_cells_match_oracle(dataset, rows)
        assert_cell_table_invariants(dataset, rows)

    def test_renumbered_uint16_keys_keep_their_dtype(self, monkeypatch):
        # 16 two-category features: a key span of 65,536 past the 50,000
        # records, so the keys are renumbered through a sort, into a uint16 index
        renumbered = mock.Mock(side_effect=tabular._renumbered)
        monkeypatch.setattr(tabular, "_renumbered", renumbered)
        dataset, rows = dataset_and_rows(16, 50_000, (2,) * 16)
        assert renumbered.call_count == 1
        assert dataset.cells.index.dtype == np.uint16 and len(dataset.cells.n) > 30_000
        assert_matches_unique_rows(dataset, rows)
        assert_cell_table_invariants(dataset, rows)

    def test_one_cell_per_pattern(self, tiny_dataset):
        assert len(tiny_dataset.cells.n) == 6
        assert tiny_dataset.cells.n.tolist() == [2, 1, 2, 2, 2, 1]  # lexicographic cells
        assert tiny_dataset.cell_positives.tolist() == [2, 1, 0, 0, 0, 0]

    def test_key_overflow_keeps_cells_apart(self):
        dataset, rows = overflowing_dataset()
        assert_cell_table_invariants(dataset, rows)
        assert len(dataset.cells.n) == len({tuple(r) for r in rows.tolist()})

    def test_counts_match_row_loop_past_key_overflow(self):
        dataset, _ = overflowing_dataset()
        rng = np.random.default_rng(1)
        for _ in range(5):
            # v0 stays allowed, so the sparse features keep most records in
            allowed = {
                int(f): np.array([True, rng.random() < 0.5])
                for f in rng.choice(70, size=6, replace=False)
            }
            counter = CategoryCounter(dataset, dataset.cell_positives, allowed)
            for feature in (0, 1, 35, 69):
                counts, positives = counter.counts(feature)
                want = row_loop_counts(dataset, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want
            descriptor = SubsetDescriptor.from_dict({
                int(f): np.flatnonzero(ok).tolist() for f, ok in allowed.items() if ok.any()
            })
            mask = membership_mask(dataset, descriptor)
            panel = evaluate(dataset, descriptor)[0]
            assert (panel.n_subset, panel.n_positive) == (
                int(mask.sum()), int(dataset.outcomes[mask].sum())
            )


def assert_cells_match_oracle(dataset: Dataset, rows: np.ndarray) -> None:
    """The dataset's cells are those the rows-based build makes of ``rows``, bit for bit."""
    want = reference_cell_table(rows, dataset.schema.cardinalities())
    for name, got, expected in zip(CellTable._fields, dataset.cells, want):
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
    assert all(row.flags.c_contiguous for row in dataset.cells.columns)


def write_coded_csv(path, rows: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Write index k as the label ``v<k>``; the rows a loader reads back, whose
    indices number each column's labels by first appearance."""
    header = ",".join([*(f"f{z}" for z in range(rows.shape[1])), "y"])
    path.write_text(header + "\n" + "".join(
        ",".join([*(f"v{k}" for k in row), str(y)]) + "\n"
        for row, y in zip(rows.tolist(), outcomes.tolist())
    ))
    read = np.empty_like(rows)
    for z, column in enumerate(rows.T):
        _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        read[:, z] = rank[inverse]
    return read


def assert_every_way_matches_oracle(tmp_path, rows: np.ndarray, cards: tuple[int, ...],
                                    block_bytes: int, seed: int) -> None:
    """Dataset(schema, rows, outcomes), generate_synthetic, the byte reader and the csv
    module's reader each give the oracle's cells for the indices they were made of."""
    rng = np.random.default_rng(seed)
    outcomes = rng.integers(0, 2, len(rows))
    assert_cells_match_oracle(Dataset(tabular._synthetic_schema(cards), rows, outcomes), rows)
    # a cohort plants its subgroup on a feature of two categories or more (outcomes only)
    planted = next((z for z, card in enumerate(cards) if card > 1), None)
    if planted is not None:
        spec = SyntheticSpec(len(rows), cards, 0.2, SubsetDescriptor.from_dict({planted: [0]}),
                             2.0, seed)
        assert_cells_match_oracle(generate_synthetic(spec)[0], synthetic_rows(spec))
    path = tmp_path / "coded.csv"
    read = write_coded_csv(path, rows, outcomes)
    with mock.patch.object(tabular, "_BLOCK_BYTES", block_bytes):
        plain = tabular._read_plain(path, "y")
    records = tabular._read_records(path, "y")
    assert plain is not None and plain == records
    for dataset in (plain, records):
        assert_cells_match_oracle(dataset, read)


# total key bits, for keys of one uint16, int32 or int64 word and of several uint64 words
KEY_BITS = {"uint16": (0, 16), "int32": (17, 31), "int64": (32, 63), "words": (64, 160)}


class TestCellOracle:
    """Every way of making a dataset packs its records into keys as it reads or draws
    them; its cells must equal those that the rows-based build makes of the same rows."""

    @pytest.mark.parametrize("bits", sorted(KEY_BITS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_way_matches_the_oracle(self, tmp_path_factory, bits, data):
        low, high = KEY_BITS[bits]
        width = lambda cards: sum((card - 1).bit_length() for card in cards)  # noqa: E731
        cards = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 9, 300]),
                                   min_size=1, max_size=6))
        while width(cards) < low:
            cards.append(data.draw(st.sampled_from([2, 3, 5, 9, 300])))
        assume(width(cards) <= high)
        n_records, seed = data.draw(st.integers(1, 600)), data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        # uniform, or mostly low indices, so that a high one first appears in a
        # late block and widens its feature's field past a power of two there
        skew = np.array([data.draw(st.booleans()) for _ in cards])
        uniform = rng.integers(0, cards, (n_records, len(cards)))
        late = np.minimum(rng.geometric(0.3, (n_records, len(cards))) - 1, np.array(cards) - 1)
        rows = np.where(skew, late, uniform)
        block_bytes = data.draw(st.sampled_from([64, 1024, tabular._BLOCK_BYTES]))
        assert_every_way_matches_oracle(tmp_path_factory.getbasetemp(), rows, tuple(cards),
                                        block_bytes, seed)

    def test_wide_features_match_the_oracle(self, tmp_path):
        # 70,000 records: one feature of 65,537 categories, one of a single
        # category, one of 300, and twenty of five whose top three categories
        # first appear at record 40,000. Read in 64 KiB blocks, the keys widen
        # from one int32 word (past 31 bits) to an int64 word and then (past 63
        # bits) to two uint64 words, with the last widening in a late block.
        n_records = 70_000
        at = np.arange(n_records)
        fives = np.where(at[:, None] < 40_000, at[:, None] % 2, (at[:, None] + np.arange(20)) % 5)
        rows = np.column_stack([at % 65_537, np.zeros(n_records, dtype=np.int64), at * 7 % 300,
                                fives])
        cards = (65_537, 1, 300) + (5,) * 20
        packings = []
        repacked = tabular._repacked

        def spy(keys, old, new, stop):
            packings.append((new.dtype.name, new.n_words))
            return repacked(keys, old, new, stop)

        with mock.patch.object(tabular, "_repacked", spy):
            assert_every_way_matches_oracle(tmp_path, rows, cards, 1 << 16, 5)
        assert packings[-1] == ("uint64", 2)
        assert {("int32", 1), ("int64", 1)} <= set(packings)


    def test_keys_move_to_int32_in_the_last_block(self, tmp_path, monkeypatch):
        # 100k records of features of 256 and 128 labels after one of 2 labels:
        # 16 key bits, until the first feature's third label, in the last
        # block, takes it to 17 bits and a key span of 98,304 <= N, so that
        # the uint16 keys move to int32 there and become the int32 index
        n_records = 100_000
        at = np.arange(n_records)
        rows = np.column_stack([np.where(at < n_records - 50, at % 2, at % 3), at % 256,
                                at * 7 % 128])
        read = write_coded_csv(tmp_path / "t.csv", rows, at % 2)
        moves = []
        repacked = tabular._repacked

        def spy(keys, old, new, stop):
            moves.append((keys.dtype.name, new.dtype.name, stop))
            return repacked(keys, old, new, stop)

        monkeypatch.setattr(tabular, "_repacked", spy)
        plain = tabular._read_plain(tmp_path / "t.csv", "y")
        assert moves[-1] == ("uint16", "int32", n_records)
        assert {(old, new) for old, new, _ in moves[:-1]} == {("uint16", "uint16")}
        assert plain.cells.index.dtype == np.int32
        assert_cells_match_oracle(plain, read)
        assert plain == tabular._read_records(tmp_path / "t.csv", "y")


class TestDescriptor:
    def test_canonical_ordering(self):
        d1 = SubsetDescriptor(((1, (2, 0)), (0, (1,))))
        d2 = SubsetDescriptor.from_dict({0: [1], 1: [0, 2]})
        assert d1 == d2
        assert d1.constraints == ((0, (1,)), (1, (0, 2)))

    def test_empty_value_set_rejected(self):
        with pytest.raises(ContractError):
            SubsetDescriptor(((0, ()),))

    def test_duplicate_feature_rejected(self):
        with pytest.raises(ContractError):
            SubsetDescriptor(((0, (1,)), (0, (0,))))

    def test_label_round_trip(self):
        s = Schema((("a", ("x", "y")), ("b", ("p", "q", "r"))))
        d = SubsetDescriptor.from_labels(s, {"b": ["r", "p"]})
        assert d.to_labels(s) == {"b": ["p", "r"]}

    def test_normalized_drops_full_sets(self):
        s = Schema((("a", ("x", "y")), ("b", ("p", "q", "r"))))
        d = SubsetDescriptor.from_dict({0: [0, 1], 1: [2]})
        assert d.normalized(s) == SubsetDescriptor.from_dict({1: [2]})


class TestMembership:
    def test_empty_descriptor_matches_everything(self, tiny_dataset):
        assert membership(tiny_dataset, SubsetDescriptor()).tolist() == list(range(10))

    def test_full_set_constraint_is_vacuous(self, tiny_dataset):
        d = SubsetDescriptor.from_dict({1: [0, 1, 2]})
        assert membership(tiny_dataset, d).tolist() == list(range(10))

    def test_conjunction_of_disjunctions(self, tiny_dataset):
        d = SubsetDescriptor.from_dict({0: [0], 1: [0, 2]})
        expected = brute_membership(tiny_dataset.rows.tolist(), {0: {0}, 1: {0, 2}})
        assert set(membership(tiny_dataset, d).tolist()) == expected

    def test_out_of_range_rejected(self, tiny_dataset):
        with pytest.raises(ContractError):
            membership(tiny_dataset, SubsetDescriptor.from_dict({5: [0]}))
        with pytest.raises(ContractError):
            membership(tiny_dataset, SubsetDescriptor.from_dict({0: [7]}))

    def test_planted_membership_matches_row_loop(self):
        dataset, planted = make_recovery_cohort(seed=5, n_records=400)
        expected = brute_membership(
            dataset.rows.tolist(), {f: set(vs) for f, vs in planted.constraints}
        )
        assert set(membership(dataset, planted).tolist()) == expected

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_descriptor(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        ds = random_dataset(rng, 60, (2, 3, 4))
        feature = data.draw(st.integers(0, 2))
        card = ds.schema.cardinality(feature)
        values = data.draw(
            st.sets(st.integers(0, card - 1), min_size=1, max_size=card - 1)
        )
        base = SubsetDescriptor.from_dict({feature: sorted(values)})
        extra = data.draw(st.integers(0, card - 1))
        widened = SubsetDescriptor.from_dict({feature: sorted(values | {extra})})
        base_members = set(membership(ds, base).tolist())
        assert base_members <= set(membership(ds, widened).tolist())

        other = (feature + 1) % 3
        other_card = ds.schema.cardinality(other)
        other_vals = data.draw(
            st.sets(st.integers(0, other_card - 1), min_size=1, max_size=other_card)
        )
        narrowed = base.with_feature(other, sorted(other_vals))
        assert set(membership(ds, narrowed).tolist()) <= base_members

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_single_value_counts_partition_records(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 80, (3, 2, 5))
        for z, card in enumerate(ds.schema.cardinalities()):
            total = sum(
                membership(ds, SubsetDescriptor.from_dict({z: [v]})).size
                for v in range(card)
            )
            assert total == ds.n_records


class TestCategoryCounts:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_row_loop(self, data):
        cards = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        dataset = random_dataset(
            np.random.default_rng(data.draw(st.integers(0, 2**16))), 40, cards
        )
        feature = data.draw(st.integers(0, len(cards) - 1))
        allowed = {}
        for f, card in enumerate(cards):
            kind = data.draw(st.sampled_from(["missing", "all", "mask"]))
            if kind != "missing":
                mask = data.draw(st.lists(st.booleans(), min_size=card, max_size=card))
                allowed[f] = np.ones(card, dtype=bool) if kind == "all" else np.array(mask)
        counter = CategoryCounter(dataset, dataset.cell_positives, allowed)
        counts, positives = counter.counts(feature)
        assert (counts.tolist(), positives.tolist()) == row_loop_counts(dataset, allowed, feature)

    def test_own_mask_is_ignored(self, tiny_dataset):
        nothing = {0: np.zeros(2, dtype=bool), 1: np.array([True, False, True])}
        counter = CategoryCounter(tiny_dataset, tiny_dataset.cell_positives, nothing)
        counts, positives = counter.counts(0)
        assert counts.tolist() == [4, 3]  # records of size s or l, by color
        assert positives.tolist() == [2, 0]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_counter_follows_set_allowed(self, data):
        cards = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        dataset = random_dataset(
            np.random.default_rng(data.draw(st.integers(0, 2**16))), 60, cards
        )

        def draw_mask(f):
            if data.draw(st.booleans()):
                return np.ones(cards[f], dtype=bool)
            return np.array(data.draw(st.lists(st.booleans(), min_size=cards[f],
                                               max_size=cards[f])))

        # the counter counts the positives it is given: the dataset's own, or
        # those of other outcomes on the same rows, summed per cell
        y = np.array(data.draw(st.lists(st.booleans(), min_size=60, max_size=60)))
        reference = Dataset(dataset.schema, dataset.rows, y)
        cell_positives = np.bincount(dataset.cells.index[y], minlength=len(dataset.cells.n))
        if data.draw(st.booleans()):
            reference, cell_positives = dataset, dataset.cell_positives
        allowed = {f: draw_mask(f) for f in range(len(cards)) if data.draw(st.booleans())}
        counter = CategoryCounter(dataset, cell_positives, allowed)
        for _ in range(data.draw(st.integers(0, 8))):
            f = data.draw(st.integers(0, len(cards) - 1))
            allowed[f] = draw_mask(f)
            counter.set_allowed(f, allowed[f])
            for feature in range(len(cards)):
                counts, positives = counter.counts(feature)
                # exact integers; np.bincount counts no cells as int64
                assert counts.dtype == positives.dtype
                assert counts.dtype in (np.float64, np.int64)
                want = row_loop_counts(reference, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want

    def test_counter_past_255_features(self):
        """A cell can fail 256 or more features: its violation count must not wrap."""
        n_features, rng = 300, np.random.default_rng(4)
        schema = Schema(tuple((f"f{z}", ("v0", "v1")) for z in range(n_features)))
        rows = np.zeros((40, n_features), dtype=np.int32)
        for row in rows:  # a few v1 values per record, v0 everywhere else
            row[rng.choice(n_features, size=rng.integers(0, 50), replace=False)] = 1
        dataset = Dataset(schema, rows, rng.integers(0, 2, 40))
        # rejecting v0 everywhere makes every record fail 250 to 300 features
        allowed = {f: np.array([False, True]) for f in range(n_features)}
        counter = CategoryCounter(dataset, dataset.cell_positives, allowed)
        masks = [np.ones(2, dtype=bool), np.array([True, True]), np.array([True, False]),
                 np.array([False, True])]
        for _ in range(30):
            f = int(rng.integers(n_features))
            allowed[f] = masks[rng.integers(len(masks))]
            counter.set_allowed(f, allowed[f])
            for feature in (f, *rng.choice(n_features, size=3, replace=False).tolist()):
                counts, positives = counter.counts(feature)
                want = row_loop_counts(dataset, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want

    @pytest.mark.parametrize("cards, dtype", [
        ((8, 9, 16, 17, 32, 33), np.uint8),
        ((300, 8, 9, 16, 17, 32, 33), np.uint16),
        ((65_537, 8, 9, 16, 17, 32, 33), np.uint32),
    ])
    def test_word_boundaries_match_row_loop(self, cards, dtype):
        """Features on both sides of each word size a mask update shifts (8, 16
        and 32 categories; above 32 it gathers), over cell columns of each dtype."""
        rng = np.random.default_rng(cards[0])
        dataset = random_dataset(rng, 40 if cards[0] > 65_536 else 300, cards)
        assert dataset.cells.columns.dtype == dtype

        def draw_mask(card):
            kind = rng.integers(4)
            if kind == 0:
                return np.ones(card, dtype=bool)
            if kind == 3:
                return rng.random(card) < rng.uniform(0.5, 1)
            top = np.arange(card) == card - 1  # the highest bit of the word
            return top if kind == 1 else ~top

        allowed = {f: draw_mask(card) for f, card in enumerate(cards)}
        counter = CategoryCounter(dataset, dataset.cell_positives, allowed)
        for _ in range(12):
            f = int(rng.integers(len(cards)))
            allowed[f] = draw_mask(cards[f])
            counter.set_allowed(f, allowed[f])
            for feature in range(len(cards)):
                counts, positives = counter.counts(feature)
                want = row_loop_counts(dataset, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want

    def test_only_features_over_32_categories_gather(self):
        """Up to 32 categories a mask update shifts a word; a uint64 word would cost as
        much as the gather, so a wider feature gathers."""
        dataset = random_dataset(np.random.default_rng(0), 100, (32, 33))
        counter = CategoryCounter(dataset, dataset.cell_positives, {})
        with mock.patch.object(np, "take", wraps=np.take) as take:
            counter.set_allowed(0, np.arange(32) % 2 == 0)
            assert take.call_count == 0
            counter.set_allowed(1, np.arange(33) % 2 == 0)
            assert take.call_count == 1


def row_loop_counts(dataset, allowed, feature) -> tuple[list[int], list[int]]:
    """Per-category (counts, positives) of ``feature`` by a loop over the records."""
    counts = [0] * dataset.schema.cardinality(feature)
    positives = [0] * dataset.schema.cardinality(feature)
    for row, y in zip(dataset.rows.tolist(), dataset.outcomes.tolist()):
        if all(allowed.get(f) is None or allowed[f][row[f]]
               for f in range(len(row)) if f != feature):
            counts[row[feature]] += 1
            positives[row[feature]] += y
    return counts, positives


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Gender,Smoking,y\nF,Y,1\nF,N,0\nM,Y,0\nM,N,1\n")
        ds = load_csv(p, "y")
        assert ds.n_records == 4
        assert ds.schema.feature_names == ("Gender", "Smoking")
        assert ds.schema.features[0][1] == ("F", "M")
        assert ds.outcomes.tolist() == [1, 0, 0, 1]

    def test_non_binary_outcome_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nx,1\nx,2\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(p, "y")

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\nx,p,1\nx,0\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(p, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="no such file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_missing_outcome_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\nx,p\n")
        with pytest.raises(LoadError, match="outcome column"):
            load_csv(p, "y")

    def test_true_false_aliases(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nx,true\nz,false\n")
        with pytest.raises(LoadError):
            load_csv(p, "y")  # outcomes are 0/1 only

    @pytest.mark.parametrize("text", ["y,a\n1,x\n0,z\n", "a,y\nx,1\nz,0\n"])
    def test_utf8_byte_order_mark_skipped(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        ds = load_csv(p, "y")
        assert ds.schema.features == (("a", ("x", "z")),)
        assert ds.outcomes.tolist() == [1, 0]
        write_csv(ds, tmp_path / "again.csv")  # written back without a mark
        assert (tmp_path / "again.csv").read_bytes() == b"a,y\r\nx,1\r\nz,0\r\n"

    def test_empty_cell_becomes_missing_category(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nx,1\n,0\n")
        ds = load_csv(p, "y")
        assert ds.schema.features[0][1] == ("x", "<missing>")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\nx,one,1\ny,two,0\nx,two,1\nz,one,0\n")
        first = load_csv(p, "y")
        q = tmp_path / "rt.csv"
        write_csv(first, q, "y")
        assert first == load_csv(q, "y")

    def test_quoted_fields_with_commas_and_quotes(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text(
            'region,status,y\r\n'
            '"North, Central","Retiree ""Status Unknown""",1\r\n'
            'West,Active,0\r\n'
        )
        ds = load_csv(p, "y")
        assert ds.schema.features[0][1] == ("North, Central", "West")
        assert ds.schema.features[1][1] == ('Retiree "Status Unknown"', "Active")
        q = tmp_path / "rt.csv"
        write_csv(ds, q, "y")
        assert load_csv(q, "y") == ds

    def test_quoted_file_memory_is_a_list_a_column(self, tmp_path):
        # one quoted header name sends a 200k x 8 cohort to the csv module; its
        # eight code lists and outcome list take 72 bytes a record, with list
        # growth under 100, where a list of codes per record took 120 more
        planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1]})
        dataset, _ = generate_synthetic(SyntheticSpec(200_000, (4,) * 8, 0.05, planted, 3.0, 4))
        path, again = tmp_path / "t.csv", tmp_path / "again.csv"
        write_csv(dataset, again)
        path.write_bytes(b'"f0"' + again.read_bytes().removeprefix(b"f0"))
        tracemalloc.start()
        try:
            loaded = tabular._read_records(path, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plain = again.read_bytes()
        write_csv(loaded, again)  # the records and labels read are the ones written
        assert again.read_bytes() == plain
        assert peak < 100 * dataset.n_records

    @settings(max_examples=150, deadline=None)
    @given(case=written_cohorts())
    @example(case=(  # the fixed case this test began with
        Schema((("region", ("North, Central", 'Retiree "Unknown"', "<missing>")),
                ("size", ("s", "m, l", "xl")))),
        [[0, 1], [1, 2], [2, 0], [0, 0], [1, 1], [2, 2]], [1, 0, 0, 1, 1, 0], "y", 1 << 20,
    ))
    @example(case=(Schema((("v", ("v9", "v10")),)), [[1]], [1], 'y, "quoted"', 1 << 20))
    # records of a 2-byte label field and a 3-byte outcome field in 4, 10 to a
    # 60-byte block: one whole block, one record past it, two whole blocks
    @example(case=(Schema((("a", ("p", "q")),)), [[0], [1]] * 5, [0, 1] * 5, "y", 60))
    @example(case=(Schema((("a", ("p", "q")),)), [[0], [1]] * 5 + [[1]], [1] * 11, "y", 60))
    @example(case=(Schema((("a", ("p", "q")),)), [[1], [0]] * 10, [1, 0] * 10, "y", 60))
    # labels with NUL bytes at their end or start, which numpy's bytes arrays
    # strip from the end of a value that does not end in its field's comma
    @example(case=(Schema((("a", ("a\0", "\0", "\0b")),)), [[0], [1], [2]] * 3, [0, 1, 1] * 3,
                   "y", 1 << 20))
    @example(case=(Schema((("\0", ("\0\0", "x")), ("b", ("\0", "a\0")))),
                   [[0, 0], [1, 1], [0, 1], [1, 0]], [1, 0, 0, 1], "y\0", 8))
    def test_write_csv_bytes_match_row_loop(self, tmp_path_factory, case):
        schema, rows, outcomes, outcome, block_bytes = case
        dataset = Dataset(schema, rows, outcomes)
        path = tmp_path_factory.getbasetemp() / "row_loop.csv"
        with mock.patch.object(tabular, "_BLOCK_BYTES", block_bytes):
            write_csv(dataset, path, outcome)
        assert path.read_bytes() == row_loop_bytes(dataset, outcome)

    @settings(max_examples=100, deadline=None)
    @given(case=cell_line_cohorts())
    @example(case=(  # fixed-width lines, every record its own cell, one cell a block
        Dataset(tabular._synthetic_schema((10,) * 6), np.arange(300)[:, None] // 10 ** np.arange(6)
                % 10, np.arange(300) % 2), 1))
    def test_write_csv_from_cell_lines_matches_row_loop(self, tmp_path_factory, case):
        """Each cell's line built a block of cells at a time, and the records
        written a block at a time from them, with and without left padding."""
        dataset, block_bytes = case
        path = tmp_path_factory.getbasetemp() / "cell_lines.csv"
        with mock.patch.object(tabular, "_BLOCK_BYTES", block_bytes):
            write_csv(dataset, path, "y")
        assert path.read_bytes() == row_loop_bytes(dataset, "y")

    def test_write_csv_memory_with_a_cell_a_record(self, tmp_path):
        # 50k x 10 features of 5 categories: about as many cells as records, so
        # the cells' lines are about the size of the file; the bound is twice
        # them plus eight blocks
        dataset, _ = dataset_and_rows(10, 50_000, (5,) * 10)
        tracemalloc.start()
        try:
            write_csv(dataset, tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = max(map(len, (tmp_path / "t.csv").read_bytes().splitlines(keepends=True)[1:]))
        cells = len(dataset.cells.n)
        assert cells > 0.99 * dataset.n_records
        assert peak < 2 * cells * width + 8 * tabular._BLOCK_BYTES

    def test_write_csv_memory_does_not_grow_with_records(self, tmp_path):
        # blocks of about 1 MiB of bytes, against 8.2 MiB at 1M x 8 for the
        # csv module fed 65,536 records at a time as Python label strings
        peaks = []
        for n in (200_000, 1_000_000):
            planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1]})
            dataset, _ = generate_synthetic(SyntheticSpec(n, (4,) * 8, 0.05, planted, 3.0, 4))
            tracemalloc.start()
            try:
                write_csv(dataset, tmp_path / "t.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 6 * 2**20
        assert peaks[1] < peaks[0] + 2**20

    @pytest.mark.parametrize("labels", [("", "x"), ("<missing>", "")])
    def test_write_csv_refuses_an_empty_label(self, tmp_path, labels):
        # load_csv reads an empty field as <missing>: ("", "x") would come back
        # as ("<missing>", "x"), and ("<missing>", "") as one category
        dataset = Dataset(Schema((("a", ("p", "q")), ("b", labels))), [[0, 0], [1, 1]], [0, 1])
        with pytest.raises(ContractError, match="feature 'b' has an empty category label"):
            write_csv(dataset, tmp_path / "t.csv", "y")
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_random(self, tmp_path):
        ds = random_dataset(np.random.default_rng(99), 120, (4, 2, 6))
        path = tmp_path / "r.csv"
        write_csv(ds, path, "outcome")
        again = load_csv(path, "outcome")
        write_csv(again, tmp_path / "r2.csv", "outcome")
        assert again == load_csv(tmp_path / "r2.csv", "outcome")
        assert np.array_equal(again.outcomes, ds.outcomes)

    @pytest.mark.parametrize("header, repeated", [
        ("a,y,y\nx,1,0\n", "y"),
        ("a,b,a,y\nx,p,z,1\n", "a"),
        ('"a",b,"a",y\nx,p,z,1\n', "a"),
    ], ids=["outcome", "feature", "quoted"])
    def test_repeated_column_named(self, tmp_path, header, repeated):
        p = tmp_path / "t.csv"
        p.write_text(header)
        with pytest.raises(LoadError) as err:
            load_csv(p, "y")
        assert str(err.value) == f"{p}: column {repeated!r} appears more than once in the header"


# Fields of quote-free files: empty, padded, "<missing>" itself, non-ASCII,
# longer than one 8-byte key word and longer than the widest key
PLAIN_LABELS = ["", "x", "z", " x", "x ", "<missing>", "0", "1", "ñ", "日本",
                "label_longer_than_8", "längeres_label_über_acht", "w" * 65, "ü" * 40]
# what the csv module reads differently from a split at "," and line ends, or rejects
FAULTS = [b"\r", b"\n", b",", b"\x00", b"\xff", b"\xc3", b" ", b"\r\r\n", b'"', "outcome",
          "blank line", "header CR"]


@st.composite
def plain_csv(draw) -> tuple[bytes, bool]:
    """A quote-free CSV file with outcome column y, and whether it is free of faults."""
    names = draw(st.lists(st.sampled_from(["a", "b", "ü", "feature_name_over_8"]),
                          min_size=1, max_size=3, unique=True))
    y_at = draw(st.integers(0, len(names)))
    records = [names[:y_at] + ["y"] + names[y_at:]]
    for _ in range(draw(st.integers(0, 25))):
        record = [draw(st.sampled_from(PLAIN_LABELS)) for _ in names]
        records.append(record[:y_at] + [draw(st.sampled_from(["0", "1"]))] + record[y_at:])
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)
                  if draw(st.booleans()) else st.just([]))
    if "outcome" in faults and len(records) > 1:
        r = draw(st.integers(1, len(records) - 1))
        records[r][y_at] = draw(st.sampled_from([" 1", "0 ", "2", "", "10", "01"]))
    lines = [",".join(r) + draw(st.sampled_from(["\n", "\r\n"])) for r in records]
    if "header CR" in faults:  # a lone CR or a CRLF inside the header names
        at = draw(st.integers(0, len(",".join(records[0])) - 1))
        lines[0] = lines[0][:at] + draw(st.sampled_from(["\r", "\r\n"])) + lines[0][at:]
    if "blank line" in faults:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["\n", "\r\n"])))
    data = "".join(lines).encode()
    if draw(st.booleans()):
        data = data.removesuffix(b"\n").removesuffix(b"\r")  # no final line end
    for fault in faults:
        if isinstance(fault, bytes):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + fault + data[at:]
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return data, not faults


def load_outcome(load, path):
    """The Dataset a loader returns, or the message of the LoadError it raises."""
    try:
        return load(path, "y")
    except LoadError as e:
        return str(e)


class TestPlainPath:
    """The byte-block reader against the csv module's reader."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plain")

    @given(file=plain_csv(), block=st.sampled_from([1, 5, 16, 64, tabular._BLOCK_BYTES]),
           limit=st.sampled_from([5, 20, csv.field_size_limit()]))
    @settings(max_examples=500, deadline=None)
    def test_matches_csv_module(self, workdir, file, block, limit):
        data, clean = file
        path = workdir / "t.csv"
        path.write_bytes(data)
        default_limit = csv.field_size_limit(limit)  # both readers refuse longer fields
        try:
            want = load_outcome(tabular._read_records, path)
            with mock.patch.object(tabular, "_BLOCK_BYTES", block):  # blocks of a few lines
                plain = tabular._read_plain(path, "y")
                assert load_outcome(load_csv, path) == want
        finally:
            csv.field_size_limit(default_limit)
        if clean and isinstance(want, Dataset) and limit == default_limit:
            assert plain is not None  # a fault-free file never leaves the byte path
        if plain is not None:
            assert isinstance(want, Dataset) and plain == want

    @pytest.mark.parametrize("data", [
        b"a,y\nx\rz,1\n",          # the csv module ends a record at a lone CR
        b"a,y\r\r\nx,1\n",
        b"a\rb,y\nx,1\n",          # a lone CR inside a header name
        b"a,y\nx,10\n",            # an outcome that starts with 0 or 1
        b"a,y\nx,0 \nz, 1\n",      # the csv module strips the outcome
        b"a,y\nx,1\nx\x00,0\n",    # NUL: zero-padded keys would merge the two labels
        b'a,y\n"x",1\nx,0\n',       # quoted
        b"a,y\nx,1\n\nz,0\n",       # a blank line
        b"a,y\n\xc3,1\n",          # not UTF-8
        b"a,y\n" + b"x" * 131_073 + b",1\n",  # a field over csv.field_size_limit()
        b"a,b,y\nx,z,0,1\nx,1\n",  # rows of 4 and 2 cells: 6 field ends, 3 a row on average
    ], ids=["lone_cr", "lone_cr_header", "lone_cr_in_name", "outcome_10", "outcome_padded",
            "nul", "quoted", "blank_line", "not_utf8", "long_field", "ragged_rows_balance"])
    def test_faults_go_to_the_csv_module(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert tabular._read_plain(path, "y") is None
        assert load_outcome(load_csv, path) == load_outcome(tabular._read_records, path)

    @pytest.mark.parametrize("block", [64, tabular._BLOCK_BYTES])
    def test_reads_write_csv_output_without_the_csv_module(self, tmp_path, monkeypatch, block):
        labels = ("ñ", "label_longer_than_8", "<missing>", "日本", "x" * 100)
        schema = Schema((("a", labels), ("feature_name_over_8", ("p", "q")), ("c", ("0", "1"))))
        rng = np.random.default_rng(3)
        rows = np.c_[rng.integers(0, 5, 400), rng.integers(0, 2, 400), rng.integers(0, 2, 400)]
        dataset = Dataset(schema, rows, rng.integers(0, 2, 400))
        write_csv(dataset, tmp_path / "t.csv")
        want = tabular._read_records(tmp_path / "t.csv", "y")

        def refuse(*args, **kwargs):
            raise AssertionError("a quote-free file reached the csv module")

        monkeypatch.setattr(csv, "reader", refuse)
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", block)
        assert load_csv(tmp_path / "t.csv", "y") == want

    @given(file=plain_csv(), block=st.sampled_from([1, 5, 16, 64]),
           multiplier=st.sampled_from([0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_colliding_hashes_match_csv_module(self, workdir, file, block, multiplier):
        # every key lands in one slot, so a column of two labels never gets a table
        path = workdir / "t.csv"
        path.write_bytes(file[0])
        want = load_outcome(tabular._read_records, path)
        with mock.patch.object(tabular, "_BLOCK_BYTES", block), \
                mock.patch.object(tabular, "_HASH_MULTIPLIER", multiplier):
            plain = tabular._read_plain(path, "y")
            assert load_outcome(load_csv, path) == want
        if plain is not None:
            assert isinstance(want, Dataset) and plain == want

    def test_known_labels_are_looked_up_without_a_sort(self, tmp_path, monkeypatch):
        # the second block brings "a", which sorts before every known label,
        # so the table is rebuilt; the third holds known labels only
        blocks = [b"a,y\nm,1\nz,0\nq,1\n", b"z,0\na,1\nm,0\nq,1\n", b"q,1\na,0\nz,1\nm,0\n"]
        path = tmp_path / "t.csv"
        path.write_bytes(b"".join(blocks))
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", len(blocks[0]))
        with open(path, "rb") as fh:
            assert list(tabular._line_blocks(fh)) == blocks
        sorted_keys = []
        unique = np.unique

        def spy(keys, **kwargs):
            sorted_keys.append(sorted(keys.tolist()))
            return unique(keys, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        dataset = tabular._read_plain(path, "y")
        assert sorted_keys == [[ord("m"), ord("q"), ord("z")], [ord("a"), ord("m"), ord("q"), ord("z")]]
        assert dataset.schema.features == (("a", ("m", "z", "q", "a")),)
        assert dataset.rows[:, 0].tolist() == [0, 1, 2, 1, 3, 0, 2, 2, 3, 1, 0]

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated", "unique"])
    def test_column_past_the_label_cap(self, tmp_path, monkeypatch, repeated):
        # column a brings about 190 new labels a block, each on two lines,
        # or 370, each on one as in an ID column, and passes the cap in its
        # sixth or third block; column b keeps its table throughout
        labels = [f"l{i:04d}" for i in range(tabular._TABLE_CAP + 100)]
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n" + "".join(
            f"{label},b{i % 3},{i % 2}\n" + (f"{labels[i // 2]},b{i % 5},1\n" if repeated else "")
            for i, label in enumerate(labels)
        ))
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", 1 << 12)
        plain = tabular._read_plain(path, "y")
        assert plain is not None and plain == tabular._read_records(path, "y")
        assert plain.schema.features[0][1] == tuple(labels)

    def test_working_memory_is_bounded(self, tmp_path):
        # at the default block size the load holds the outcomes and the cells
        # (whose index is the uint16 keys the records were packed into) and less
        # than 4 MiB besides, the masks, field ends and keys of about one block
        planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1]})
        dataset, _ = generate_synthetic(SyntheticSpec(400_000, (4,) * 8, 0.05, planted, 3.0, 4))
        write_csv(dataset, tmp_path / "t.csv")
        tracemalloc.start()
        try:
            plain = tabular._read_plain(tmp_path / "t.csv", "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(plain.outcomes, dataset.outcomes)
        for z, ((_, labels), (_, want)) in enumerate(zip(plain.schema.features,
                                                          dataset.schema.features)):
            assert np.array_equal(np.array(labels)[plain.rows[:, z]], np.array(want)[dataset.rows[:, z]])
        assert peak < plain.outcomes.nbytes + sum(array.nbytes for array in plain.cells) + 4 * 2**20

    def test_cell_build_memory_is_bounded(self):
        # a key span of 4**8 <= N: the packed keys become the index in place, so
        # the build holds the columns and counts it returns and less than
        # 1.5 MiB besides, a block's counts, and no other per-record array
        planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1]})
        spec = SyntheticSpec(400_000, (4,) * 8, 0.05, planted, 3.0, 4)
        rows = synthetic_rows(spec)
        keys, packing = tabular._packed(rows.T, spec.cardinalities)
        tracemalloc.start()
        try:
            cells = tabular._cell_table(keys, packing, spec.cardinalities)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(cells.index, keys)
        dataset = generate_synthetic(spec)[0]
        assert all(np.array_equal(got, want) for got, want in zip(cells, dataset.cells))
        assert_cell_table_invariants(dataset, rows)
        assert peak < cells.columns.nbytes + cells.n.nbytes + 1.5 * 2**20

    @pytest.mark.parametrize("data", [
        b"a,y\n" + b"x,1\n" * 50_000 + b"z" * 4_000 + b",0\n" + b"x,1\n" * 100,
        b"a,y\n" + b"".join(bytes([97 + i % 26]) * 20_000 + b",1\n" for i in range(60)),
    ], ids=["one_long_label", "long_labels"])
    def test_long_labels_in_bounded_memory(self, tmp_path, data):
        # keys as wide as the 4 KB label for all 50k rows would take ~200 MB
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        want = tabular._read_records(path, "y")
        tracemalloc.start()
        try:
            plain = tabular._read_plain(path, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plain == want
        assert peak < 16 * 2**20


    def test_codes_follow_first_appearance_across_blocks(self, tmp_path, monkeypatch):
        # labels first appear in an order unlike their byte order, and the
        # second block brings labels that sort before every earlier one
        first = b"a,b,y\nzz,label_long_b,1\nbb,label_long_a,0\nzz,label_long_b,1\nmm,label_long_c,0\n"
        second = b"bb,label_long_a,1\naa,label_long_0,0\nzz,label_long_b,0\ncc,label_long_a,1\n"
        path = tmp_path / "t.csv"
        path.write_bytes(first + second)
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", len(first))
        with open(path, "rb") as fh:
            assert list(tabular._line_blocks(fh)) == [first, second]
        monkeypatch.setattr(csv, "reader", None)  # the byte reader alone
        dataset = load_csv(path, "y")
        assert dataset.schema.features == (
            ("a", ("zz", "bb", "mm", "aa", "cc")),
            ("b", ("label_long_b", "label_long_a", "label_long_c", "label_long_0")),
        )
        assert dataset.rows.tolist() == [
            [0, 0], [1, 1], [0, 0], [2, 2], [1, 1], [3, 3], [0, 0], [4, 1],
        ]
        assert dataset.outcomes.tolist() == [1, 0, 1, 0, 1, 0, 0, 1]

    @pytest.mark.parametrize("labels, dtype", [
        ([f"k{i // 2}" for i in range(700)], np.uint16),  # the 257th label at row 512
        ([str(i) for i in range(65_537)], np.uint32),     # through uint16 to uint32
    ], ids=["257_labels", "65537_labels"])
    def test_codes_widen_before_they_would_wrap(self, tmp_path, monkeypatch, labels, dtype):
        # blocks of about 80 and 4,700 lines, so the column's field widens
        # after earlier blocks, and the column before it in the same block,
        # have stored their codes in the narrower packing
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", 1 << 10 if len(labels) < 1000 else 1 << 16)
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,y\n" + "".join(
            f"a{i % 3},{label},c{i % 5},{i % 2}\n" for i, label in enumerate(labels)
        ))
        codes: dict[str, int] = {}
        reference = np.array([[i % 3, codes.setdefault(label, len(codes)), i % 5]
                              for i, label in enumerate(labels)], dtype=np.int32)
        plain, records = tabular._read_plain(path, "y"), tabular._read_records(path, "y")
        assert plain is not None and plain == records
        assert plain.rows.dtype == records.rows.dtype == dtype
        for dataset in (plain, records):
            assert np.array_equal(dataset.rows, reference)
            assert int(dataset.rows[:, 1].max()) == len(codes) - 1  # no code wrapped

    def test_table_is_held_once(self, tmp_path, monkeypatch):
        # 400k records of 8 features, the first with 4 or 300 categories.
        # Small blocks keep the parse's working set (about a dozen times the
        # block) under 2 MiB, more than the 0.76 MiB of uint16 keys (4
        # categories, 16 key bits) or the 1.53 MiB of int32 keys (300, whose
        # keys move to int32 in the first block), but a second copy of the
        # keys still shows: the first feature's field widens in place, so the
        # parse holds the keys, the outcomes and its working set, and no more.
        # After the load the dataset holds its outcomes and cells alone. With
        # 4 categories (a key span of 4**8 <= N) the cell build stays within
        # the parse's bound; with 300 the keys are renumbered through
        # np.unique, whose temporaries ROADMAP item 16 bounds.
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", 1 << 16)
        build = tabular._cell_table

        def parsed(*args):  # the peak before the build, which then starts afresh
            parse_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return build(*args)

        monkeypatch.setattr(tabular, "_cell_table", parsed)
        for labels, dtype, index in ((4, np.uint8, np.uint16), (300, np.uint16, np.int32)):
            lines = "".join(
                f"v{i % labels}," + ",".join(f"v{(i >> z) % 4}" for z in range(1, 8))
                + f",{i % 2}\n" for i in range(1000)
            )
            path = tmp_path / f"t{labels}.csv"
            path.write_text(",".join(f"f{z}" for z in range(8)) + ",y\n" + lines * 400)
            parse_peaks = []
            tracemalloc.start()
            try:
                dataset = tabular._read_plain(path, "y")
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert dataset.rows.dtype == dtype and dataset.cells.index.dtype == index
            assert parse_peaks[0] < dataset.cells.index.nbytes + dataset.outcomes.nbytes + 2 * 2**20
            table = dataset.outcomes.nbytes + sum(array.nbytes for array in dataset.cells)
            assert held < table + 2**17, labels
            if labels == 4:
                assert peak < table + 2 * 2**20

    def test_load_holds_no_code_table(self, tmp_path):
        # 400k records of 16 two-category features: their codes as an N x M
        # uint8 table would take 6.1 MiB, the packed uint16 index 0.76 MiB.
        # The load holds the index, the outcomes and the other cell arrays and
        # less than 2 MiB besides
        spec = SyntheticSpec(400_000, (2,) * 16, 0.1, SubsetDescriptor.from_dict({0: [0]}), 2.0, 6)
        write_csv(generate_synthetic(spec)[0], tmp_path / "t.csv")
        tracemalloc.start()
        try:
            dataset = load_csv(tmp_path / "t.csv", "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.n_records == 400_000 and dataset.cells.index.dtype == np.uint16
        table = dataset.outcomes.nbytes + sum(array.nbytes for array in dataset.cells)
        assert peak < table + 2 * 2**20


class TestSynthetic:
    def test_odds_multiplier_at_one_rejected(self):
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2, 2), 0.1, SubsetDescriptor.from_dict({0: [0]}), 1.0, 0)

    @pytest.mark.parametrize("multiplier", [math.inf, math.nan])
    def test_non_finite_odds_multiplier_rejected(self, multiplier):
        with pytest.raises(ContractError, match="finite"):
            SyntheticSpec(100, (2, 2), 0.1, SubsetDescriptor.from_dict({0: [0]}), multiplier, 0)

    def test_base_rate_bounds_rejected(self):
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2,), 0.0, SubsetDescriptor.from_dict({0: [0]}), 2.0, 0)
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2,), 1.0, SubsetDescriptor.from_dict({0: [0]}), 2.0, 0)

    def test_planted_outside_the_schema_rejected(self):
        for planted in ({2: [0]}, {0: [2]}):
            with pytest.raises(ContractError, match="out of range"):
                SyntheticSpec(100, (2, 2), 0.1, SubsetDescriptor.from_dict(planted), 2.0, 0)

    @pytest.mark.parametrize("cards, planted", [
        ((2, 3), {0: [0, 1]}), ((1, 3), {0: [0]}), ((2, 3), {0: [1, 0], 1: [2, 0, 1]}),
        ((2, 3), {}),
    ], ids=["every_category", "one_category_feature", "every_feature", "empty"])
    def test_planted_subgroup_of_every_record_rejected(self, cards, planted):
        with pytest.raises(ContractError, match="constrains no feature"):
            SyntheticSpec(100, cards, 0.1, SubsetDescriptor.from_dict(planted), 2.0, 0)

    def test_planted_descriptor_returned_without_vacuous_constraints(self):
        # f1 is constrained to all three of its categories: only f0 plants records
        planted = SubsetDescriptor.from_dict({0: [0], 1: [0, 1, 2]})
        dataset, returned = generate_synthetic(SyntheticSpec(500, (2, 3), 0.1, planted, 2.5, 7))
        assert returned == SubsetDescriptor.from_dict({0: [0]})
        just_f0 = SyntheticSpec(500, (2, 3), 0.1, SubsetDescriptor.from_dict({0: [0]}), 2.5, 7)
        assert generate_synthetic(just_f0)[0] == dataset

    def test_probability_overflow_rejected(self):
        spec = SyntheticSpec(
            100, (2,), 0.5, SubsetDescriptor.from_dict({0: [0]}), 1e20, 0
        )
        with pytest.raises(ContractError, match="probability"):
            planted_outcome_rate(spec)
        with pytest.raises(ContractError):
            generate_synthetic(spec)

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(
            300, (2, 3, 4), 0.1, SubsetDescriptor.from_dict({0: [0], 2: [1, 2]}), 2.5, 7
        )
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert a == b

    @pytest.mark.parametrize("spec, outcome, digest", [
        (SyntheticSpec(500, (2, 3, 4), 0.1, SubsetDescriptor.from_dict({0: [0], 2: [1, 2]}),
                       2.5, 7),
         "y", "e6ed3f16be405ed963c7cf96037e26179aa5fdb541db48a7223d45125ea8e6fb"),
        (SyntheticSpec(3_000, (300, 5), 0.2, SubsetDescriptor.from_dict({0: list(range(40))}),
                       3.0, 11),
         "label", "cc0760700783f8876dbafed553dae460dc9ac42a52d654ac0433625860d2025c"),
        (SyntheticSpec(70_000, (3, 2), 0.05, SubsetDescriptor.from_dict({1: [1]}), 2.0, 5),
         "y", "ac748b1d290fd0a8f48a272ceebdb7679cad991dcdded431ad82012a9bb05426"),
    ], ids=["small", "300_categories", "70k_records"])
    def test_written_cohort_bytes_pinned(self, tmp_path, spec, outcome, digest):
        # the random stream and the CSV writer together: a synth cohort's file is fixed
        write_csv(generate_synthetic(spec)[0], tmp_path / "t.csv", outcome)
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest

    def test_outcomes_drawn_without_a_record_sized_float_array(self):
        """The outcome draw runs in record blocks: 1M records of one two-category
        feature peak well under the 16 bytes a record of two float64 arrays."""
        spec = SyntheticSpec(1_000_000, (2,), 0.1, SubsetDescriptor.from_dict({0: [0]}), 2.0, 1)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.n_records

    @pytest.mark.parametrize("cardinalities, dtype", [
        ((2, 256), np.uint8), ((300, 5), np.uint16),
    ])
    def test_rows_take_the_narrowest_dtype(self, cardinalities, dtype):
        spec = SyntheticSpec(2_000, cardinalities, 0.1, SubsetDescriptor.from_dict({1: [0]}),
                             2.0, 3)
        dataset = generate_synthetic(spec)[0]
        assert dataset.rows.dtype == dtype
        assert int(dataset.rows[:, 0].max()) == cardinalities[0] - 1

    def test_planted_subset_rate_lifted(self):
        spec = SyntheticSpec(
            2000, (2, 3, 4, 5, 2), 0.05,
            SubsetDescriptor.from_dict({0: [0], 2: [0, 1]}), 3.0, seed=11,
        )
        dataset, planted = generate_synthetic(spec)
        mask = membership_mask(dataset, planted)
        inside = int(dataset.outcomes[mask].sum())
        test = binomtest(inside, int(mask.sum()), 0.05, alternative="greater")
        assert test.pvalue < 0.01

    def test_outside_rate_near_base(self):
        spec = SyntheticSpec(
            5000, (2, 3), 0.05, SubsetDescriptor.from_dict({0: [0]}), 3.0, seed=3
        )
        dataset, planted = generate_synthetic(spec)
        outside = ~membership_mask(dataset, planted)
        rate = dataset.outcomes[outside].mean()
        assert binomtest(int(dataset.outcomes[outside].sum()), int(outside.sum()),
                         0.05).pvalue > 0.001
        assert abs(rate - 0.05) < 0.02
