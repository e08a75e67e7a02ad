from __future__ import annotations

import codecs
import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from oracles import brute_membership, membership, membership_mask
from subscan import tabular
from subscan.errors import ContractError, LoadError
from subscan.tabular import (
    CategoryCounter,
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    category_counts,
    generate_synthetic,
    load_csv,
    planted_outcome_rate,
    subset_counts,
    write_csv,
)

from conftest import make_recovery_cohort, random_dataset


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

    def test_wrong_length_outcomes_rejected(self):
        s = Schema((("a", ("x", "y")),))
        with pytest.raises(ContractError, match="length-N"):
            Dataset(s, [[0], [1]], [1, 0, 1])

    def test_out_of_range_index_rejected(self):
        s = Schema((("a", ("x", "y")),))
        with pytest.raises(ContractError):
            Dataset(s, [[0], [2]], [1, 0])

    def test_empty_table_rejected(self):
        s = Schema((("a", ("x",)),))
        with pytest.raises(ContractError):
            Dataset(s, np.empty((0, 1), dtype=np.int32), np.empty(0, dtype=np.int8))

    def test_arrays_immutable(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.rows[0, 0] = 1
        with pytest.raises(ValueError):
            tiny_dataset.outcomes[0] = 0


def assert_cell_table_invariants(dataset: Dataset) -> None:
    cells = dataset.cells
    n_cells = len(cells.n)
    assert cells.columns.shape == (dataset.schema.n_features, n_cells)
    assert cells.columns.dtype == np.int32 and cells.index.dtype == np.int32
    assert all(row.flags.c_contiguous for row in cells.columns)
    assert int(cells.n.sum()) == dataset.n_records
    assert cells.n.min() >= 1
    assert int(dataset.cell_positives.sum()) == dataset.n_positive
    positives = np.zeros(n_cells, dtype=np.int64)
    np.add.at(positives, cells.index, dataset.outcomes)
    assert dataset.cell_positives.tolist() == positives.tolist()
    assert len({tuple(cell) for cell in cells.columns.T.tolist()}) == n_cells
    assert np.array_equal(cells.columns[:, cells.index].T, dataset.rows)
    assert np.bincount(cells.index, minlength=n_cells).tolist() == cells.n.tolist()


def overflowing_dataset() -> Dataset:
    """70 binary features: the product of cardinalities, 2**70, exceeds 2**63.

    Only the first features vary much, so a key that wrapped (dropping the
    leading features) would merge many distinct records into one cell.
    """
    rng = np.random.default_rng(70)
    rows = (rng.random((300, 70)) < np.r_[np.full(8, 0.5), np.full(62, 0.03)]).astype(int)
    schema = Schema(tuple((f"f{z}", ("v0", "v1")) for z in range(70)))
    return Dataset(schema, rows, (rng.random(300) < 0.3).astype(np.int8))


class TestCellTable:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data):
        cards = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        n_records = data.draw(st.integers(2, 200))
        seed = data.draw(st.integers(0, 2**16))
        assert_cell_table_invariants(random_dataset(np.random.default_rng(seed), n_records, cards))

    def test_one_cell_per_pattern(self, tiny_dataset):
        assert len(tiny_dataset.cells.n) == 6
        assert tiny_dataset.cells.n.tolist() == [2, 1, 2, 2, 2, 1]  # lexicographic cells
        assert tiny_dataset.cell_positives.tolist() == [2, 1, 0, 0, 0, 0]

    def test_key_overflow_keeps_cells_apart(self):
        dataset = overflowing_dataset()
        assert_cell_table_invariants(dataset)
        assert len(dataset.cells.n) == len({tuple(r) for r in dataset.rows.tolist()})

    def test_counts_match_row_loop_past_key_overflow(self):
        dataset = overflowing_dataset()
        rng = np.random.default_rng(1)
        for _ in range(5):
            # v0 stays allowed, so the sparse features keep most records in
            allowed = {
                int(f): np.array([True, rng.random() < 0.5])
                for f in rng.choice(70, size=6, replace=False)
            }
            for feature in (0, 1, 35, 69):
                counts, positives = category_counts(dataset, allowed, feature)
                want = row_loop_counts(dataset, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want
            descriptor = SubsetDescriptor.from_dict({
                int(f): np.flatnonzero(ok).tolist() for f, ok in allowed.items() if ok.any()
            })
            mask = membership_mask(dataset, descriptor)
            assert subset_counts(dataset, descriptor) == (
                int(mask.sum()), int(dataset.outcomes[mask].sum())
            )


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
            kind = data.draw(st.sampled_from(["missing", "none", "mask"]))
            if kind != "missing":
                mask = data.draw(st.lists(st.booleans(), min_size=card, max_size=card))
                allowed[f] = None if kind == "none" else np.array(mask)
        counts, positives = category_counts(dataset, allowed, feature)
        assert (counts.tolist(), positives.tolist()) == row_loop_counts(dataset, allowed, feature)

    def test_own_mask_is_ignored(self, tiny_dataset):
        nothing = {0: np.zeros(2, dtype=bool), 1: np.array([True, False, True])}
        counts, positives = category_counts(tiny_dataset, nothing, 0)
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
                return None
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
                assert counts.dtype == positives.dtype == np.int64
                want = row_loop_counts(reference, allowed, feature)
                assert (counts.tolist(), positives.tolist()) == want


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

    def test_write_csv_bytes_match_row_loop(self, tmp_path):
        schema = Schema((
            ("region", ("North, Central", 'Retiree "Unknown"', "<missing>")),
            ("size", ("s", "m, l", "")),
        ))
        rows = [[0, 1], [1, 2], [2, 0], [0, 0], [1, 1], [2, 2]]
        dataset = Dataset(schema, rows, [1, 0, 0, 1, 1, 0])
        write_csv(dataset, tmp_path / "new.csv", "y")

        with open(tmp_path / "old.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # the per-record loop write_csv replaced
            writer.writerow(list(schema.feature_names) + ["y"])
            cats = [list(c) for _, c in schema.features]
            for i in range(dataset.n_records):
                row = [cats[z][dataset.rows[i, z]] for z in range(schema.n_features)]
                writer.writerow(row + [int(dataset.outcomes[i])])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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
          "blank line"]


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
        b"a,y\nx,10\n",            # an outcome that starts with 0 or 1
        b"a,y\nx,0 \nz, 1\n",      # the csv module strips the outcome
        b"a,y\nx,1\nx\x00,0\n",    # NUL: zero-padded keys would merge the two labels
        b'a,y\n"x",1\nx,0\n',       # quoted
        b"a,y\nx,1\n\nz,0\n",       # a blank line
        b"a,y\n\xc3,1\n",          # not UTF-8
        b"a,y\n" + b"x" * 131_073 + b",1\n",  # a field over csv.field_size_limit()
    ], ids=["lone_cr", "lone_cr_header", "outcome_10", "outcome_padded", "nul", "quoted",
            "blank_line", "not_utf8", "long_field"])
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


class TestSynthetic:
    def test_odds_multiplier_at_one_rejected(self):
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2, 2), 0.1, SubsetDescriptor.from_dict({0: [0]}), 1.0, 0)

    def test_base_rate_bounds_rejected(self):
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2,), 0.0, SubsetDescriptor.from_dict({0: [0]}), 2.0, 0)
        with pytest.raises(ContractError):
            SyntheticSpec(100, (2,), 1.0, SubsetDescriptor.from_dict({0: [0]}), 2.0, 0)

    def test_planted_outside_the_schema_rejected(self):
        for planted in ({2: [0]}, {0: [2]}):
            with pytest.raises(ContractError, match="out of range"):
                SyntheticSpec(100, (2, 2), 0.1, SubsetDescriptor.from_dict(planted), 2.0, 0)

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
