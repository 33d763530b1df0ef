"""Topology, splitting, normalization, and dataset file round-trips."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_snapshots
from tailcast.errors import ParseError, SchemaError
from tailcast.statgraph import (
    FEATURE_WIDTHS,
    Dataset,
    NormStats,
    Snapshot,
    Topology,
    apply_normalizer,
    chronological_split,
    fit_normalizer,
    load_dataset,
    normalize_dataset,
    save_dataset,
)


def make_topology():
    return Topology.create(["web", "api", "db"], [("web", "api"), ("api", "db")])


def make_snapshot(topo, t, rng, label=0.25):
    return Snapshot(
        window_start=float(t),
        node_features=rng.random((topo.num_services, 3)),
        edge_features=rng.random((topo.num_edges, 3)),
        resource_features=rng.random((topo.num_services, 5)),
        label=label,
    )


def make_dataset(n=12, seed=0):
    topo = make_topology()
    rng = np.random.default_rng(seed)
    snaps = tuple(make_snapshot(topo, 5.0 * i, rng, label=0.1 + rng.random()) for i in range(n))
    ds = Dataset(topology=topo, snapshots=snaps)
    ds.validate()
    return ds


class TestTopology:
    def test_services_sorted_alphabetically(self):
        topo = make_topology()
        assert topo.services == ("api", "db", "web")

    def test_edges_track_sorted_indices(self):
        topo = make_topology()
        # web->api and api->db by index in the sorted order
        assert topo.edges == ((2, 0), (0, 1))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(SchemaError):
            Topology.create(["a", "b"], [("a", "b"), ("a", "b")])

    def test_self_loop_rejected_by_create(self):
        with pytest.raises(SchemaError):
            Topology.create(["a", "b"], [("a", "a")])

    def test_self_loop_allowed_when_explicit(self):
        topo = Topology(services=("a", "b"), edges=((0, 0),))
        assert topo.edges == ((0, 0),)

    def test_unknown_service_in_edge(self):
        with pytest.raises(SchemaError):
            Topology.create(["a", "b"], [("a", "zzz")])

    @pytest.mark.parametrize("d", [
        {"services": "ab", "edges": [[0, 1]]},
        {"services": ["a", 2], "edges": [[0, 1]]},
        {"services": ["a", "b"], "edges": "01"},
        {"services": ["a", "b"], "edges": [[0, 1, 1]]},
        {"services": ["a", "b"], "edges": [[0, "1"]]},
        {"services": ["a", "b"], "edges": [[0, True]]},
        {"services": ["a", "b"]},
        ["a", "b"],
    ])
    def test_from_dict_requires_lists_of_names_and_index_pairs(self, d):
        with pytest.raises(SchemaError, match="malformed topology"):
            Topology.from_dict(d)

    def test_dict_roundtrip(self):
        topo = make_topology()
        assert Topology.from_dict(topo.to_dict()) == topo


class TestChronologicalSplit:
    def test_exact_fractions_t10(self):
        ds = make_dataset(10)
        train, val, test = chronological_split(ds)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_floor_sizes_large_t(self):
        # floor arithmetic on a realistic dataset size
        t = 69121
        n_train = int(np.floor(0.70 * t))
        n_val = int(np.floor(0.10 * t))
        assert (n_train, n_val, t - n_train - n_val) == (48384, 6912, 13825)

    def test_time_ordering_between_splits(self):
        ds = make_dataset(23)
        train, val, test = chronological_split(ds)
        assert max(s.window_start for s in train.snapshots) < min(s.window_start for s in val.snapshots)
        assert max(s.window_start for s in val.snapshots) < min(s.window_start for s in test.snapshots)

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError):
            chronological_split(make_dataset(9))

    @given(st.integers(min_value=10, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_split_is_partition(self, n):
        ds = make_dataset(n % 40 + 10, seed=n)
        train, val, test = chronological_split(ds)
        merged = train.snapshots + val.snapshots + test.snapshots
        assert len(merged) == len(ds.snapshots)
        assert all(a is b for a, b in zip(merged, ds.snapshots))


class TestNormalizer:
    def test_constant_column_becomes_zero(self):
        topo = make_topology()
        rng = np.random.default_rng(1)
        snaps = []
        for i in range(4):
            s = make_snapshot(topo, 5.0 * i, rng)
            s.node_features[:, 0] = 3.5  # constant column
            snaps.append(s)
        ds = Dataset(topology=topo, snapshots=tuple(snaps))
        stats = fit_normalizer(ds)
        out = apply_normalizer(snaps[0], stats)
        assert np.allclose(out.node_features[:, 0], 0.0)

    def test_two_point_column(self):
        # column values {0, 2}: population mean 1, std 1 -> (-1, 1)
        topo = Topology.create(["a"], [])
        snaps = []
        for i, v in enumerate((0.0, 2.0)):
            snaps.append(Snapshot(
                window_start=float(i),
                node_features=np.full((1, 3), v),
                edge_features=np.zeros((0, 3)),
                resource_features=np.full((1, 5), v),
                label=1.0,
            ))
        ds = Dataset(topology=topo, snapshots=tuple(snaps))
        stats = fit_normalizer(ds)
        assert np.allclose(stats.node_mean, 1.0)
        assert np.allclose(stats.node_std, 1.0)
        assert np.allclose(apply_normalizer(snaps[0], stats).node_features, -1.0)
        assert np.allclose(apply_normalizer(snaps[1], stats).node_features, 1.0)

    def test_normalized_train_columns_standard(self):
        ds = make_dataset(30, seed=5)
        stats = fit_normalizer(ds)
        normalized = normalize_dataset(ds, stats)
        node = np.concatenate([s.node_features for s in normalized.snapshots])
        assert np.all(np.abs(node.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(node.std(axis=0) - 1.0) < 1e-9)

    def test_labels_untouched(self):
        ds = make_dataset(12, seed=2)
        stats = fit_normalizer(ds)
        normalized = normalize_dataset(ds, stats)
        assert normalized.snapshots[3].label == ds.snapshots[3].label

    def test_double_normalization_rejected(self):
        ds = make_dataset(12, seed=3)
        stats = fit_normalizer(ds)
        once = normalize_dataset(ds, stats)
        with pytest.raises(ValueError):
            normalize_dataset(once, stats)

    def test_applying_twice_is_not_identity(self):
        ds = make_dataset(12, seed=4)
        stats = fit_normalizer(ds)
        once = apply_normalizer(ds.snapshots[0], stats)
        twice = apply_normalizer(once, stats)
        assert not np.allclose(once.node_features, twice.node_features)

    def test_empty_split_rejected(self):
        ds = make_dataset(12)
        empty = Dataset(topology=ds.topology, snapshots=())
        with pytest.raises(ValueError):
            fit_normalizer(empty)


NOT_NUMBERS = "window_start, y, X, E and R must hold JSON numbers only"


class TestSerialization:
    def test_roundtrip_value_identical(self, tmp_path):
        ds = make_dataset(3, seed=9)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.topology == ds.topology
        assert len(loaded) == 3
        for a, b in zip(loaded.snapshots, ds.snapshots):
            assert a.window_start == b.window_start
            assert np.array_equal(a.node_features, b.node_features)
            assert np.array_equal(a.edge_features, b.edge_features)
            assert np.array_equal(a.resource_features, b.resource_features)
            assert a.label == b.label

    def test_roundtrip_exact_for_awkward_floats(self, tmp_path):
        ds = make_dataset(2, seed=10)
        ds.snapshots[0].node_features[0, 0] = 0.1 + 0.2  # 0.30000000000000004
        ds.snapshots[0].node_features[0, 1] = 1e-300
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.snapshots[0].node_features, ds.snapshots[0].node_features)

    def test_wrong_node_row_count_rejected(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        import json
        row = json.loads(lines[1])
        row["X"] = row["X"][:-1]  # drop one service row
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_paper_schema_dims_load(self, tmp_path):
        # d_n=3, d_e=3, d_r=5 header loads cleanly
        ds = make_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dims"] == {"node": 3, "edge": 3, "resource": 5}
        assert FEATURE_WIDTHS == header["dims"]
        assert len(load_dataset(path)) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("y", "0.1", NOT_NUMBERS),
        ("y", True, NOT_NUMBERS),
        ("window_start", "5", NOT_NUMBERS),
        ("window_start", False, NOT_NUMBERS),
        ("X", "1.0", NOT_NUMBERS),
        ("R", True, NOT_NUMBERS),  # numpy reads it as 1.0 among floats
        ("E", "", NOT_NUMBERS),
        ("X", 10 ** 400, "malformed snapshot: int too large to convert to float"),
        ("window_start", 10 ** 400, "malformed snapshot: int too large to convert to float"),
    ], ids=["y_string", "y_true", "start_string", "start_false", "X_string", "R_bool",
            "E_empty_string", "X_huge_int", "start_huge_int"])
    def test_non_numbers_rejected_with_line_number(self, tmp_path, field, value, message):
        path = tmp_path / "data.jsonl"
        save_dataset(make_dataset(3), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        if field in ("X", "E", "R"):
            row[field][0][1] = value  # one entry among numbers
        else:
            row[field] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"line 3: {message}")):
            load_dataset(path)

    def test_malformed_json_carries_line_number(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-5]  # corrupt the second snapshot line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 3

    def test_unknown_field_rejected(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        import json
        row = json.loads(lines[1])
        row["surprise"] = 1
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"line 2: unknown fields \['surprise'\]"):
            load_dataset(path)

    def test_out_of_order_snapshots_rejected(self, tmp_path):
        ds = make_dataset(3)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_label_optional_for_inference(self, tmp_path):
        topo = make_topology()
        rng = np.random.default_rng(0)
        snap = make_snapshot(topo, 0.0, rng, label=None)
        ds = Dataset(topology=topo, snapshots=(snap,))
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.snapshots[0].label is None


# Dataset.validate's checks, in its order
CHECKS = ("start", "order", "node_shape", "edge_shape", "resource_shape", "non_finite", "negative",
          "label")
BLOCKS = ("node_features", "edge_features", "resource_features")


def _with_fault(snaps, i, kind, draw):
    """``snaps`` (a list) with snapshot i given one fault of ``kind``."""
    snap = snaps[i]
    if kind == "start":
        change = {"window_start": draw(st.sampled_from([np.nan, np.inf, -np.inf]))}
    elif kind == "order":
        prev = snaps[i - 1].window_start if i else -np.inf
        change = {"window_start": prev - draw(st.sampled_from([0.0, 0.5, 100.0]))}
    elif kind.endswith("_shape"):
        block = BLOCKS[CHECKS.index(kind) - 2]
        rows, cols = getattr(snap, block).shape
        shape = draw(st.sampled_from([(rows + 1, cols), (rows, cols - 1), (rows * cols,)]))
        change = {block: np.ones(shape)}
    elif kind in ("non_finite", "negative"):
        block = draw(st.sampled_from([b for b in BLOCKS if getattr(snap, b).size]))
        values = getattr(snap, block).copy()
        at = draw(st.integers(0, values.size - 1))
        values.flat[at] = (draw(st.sampled_from([np.nan, np.inf, -np.inf])) if kind == "non_finite"
                           else -draw(st.floats(min_value=1e-300, max_value=1e300)))
        change = {block: values}
    else:
        change = {"label": draw(st.sampled_from([0.0, -0.5, np.nan, np.inf, -np.inf]))}
    snaps[i] = dataclasses.replace(snap, **change)


def _first_error(check, dataset):
    try:
        check(dataset)
    except SchemaError as exc:
        return str(exc)
    return None


class TestValidateAgainstOracle:
    """Dataset.validate names the snapshot and check the per-snapshot loop names."""

    @pytest.mark.parametrize("normalised", [False, True], ids=["raw", "normalised"])
    @pytest.mark.parametrize("first, second", list(itertools.product(CHECKS, repeat=2)))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_two_faults_first_message_matches(self, first, second, normalised, data):
        topo = make_topology()
        n = data.draw(st.integers(2, 6), label="n")
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                         label="faulty snapshots")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        draw_values = rng.standard_normal if normalised else rng.random
        snaps = [Snapshot(window_start=5.0 * k,
                          node_features=draw_values((topo.num_services, 3)),
                          edge_features=draw_values((topo.num_edges, 3)),
                          resource_features=draw_values((topo.num_services, 5)),
                          label=None if rng.random() < 0.2 else 0.1 + rng.random())
                 for k in range(n)]
        _with_fault(snaps, i, first, data.draw)
        _with_fault(snaps, j, second, data.draw)
        stats = NormStats(np.zeros(3), np.ones(3), np.zeros(3), np.ones(3), np.zeros(5),
                          np.ones(5)) if normalised else None
        dataset = Dataset(topology=topo, snapshots=tuple(snaps), norm_stats=stats)
        want = _first_error(validate_snapshots, dataset)
        if not (normalised and first == second == "negative"):
            assert want is not None
        assert _first_error(Dataset.validate, dataset) == want

    def test_empty_and_clean_datasets_pass(self):
        Dataset(topology=make_topology(), snapshots=()).validate()
        make_dataset(5).validate()
