"""End-to-end command-line pipeline tests and the exit-code contract."""

import json
import math

import numpy as np
import pytest

from tailcast.cli import main


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps({
        "preset": "online_boutique_like",
        "seed": 11,
        "duration_s": 120.0,
        "noise_sigma": 0.01,
        "profile": [
            {"kind": "ramp", "duration_s": 40.0, "start_rate": 5.0, "end_rate": 25.0},
            {"kind": "spike", "duration_s": 30.0, "start_rate": 25.0, "end_rate": 70.0},
            {"kind": "plateau", "duration_s": 50.0, "start_rate": 15.0},
        ],
    }))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, scenario_file):
    """simulate -> ingest -> train once; reused by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    sim_dir = root / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(sim_dir)]) == 0
    dataset = root / "data.jsonl"
    assert main(["ingest", "--telemetry", str(sim_dir), "--topology", str(sim_dir / "topology.json"),
                 "--dataset", str(dataset)]) == 0
    train_dir = root / "train"
    assert main(["train", "--dataset", str(dataset), "--out-dir", str(train_dir),
                 "--variant", "resource_only", "--epochs", "3", "--seed", "1"]) == 0
    return {"root": root, "sim": sim_dir, "dataset": dataset, "train": train_dir}


class TestSimulate:
    def test_outputs_exist(self, pipeline):
        sim = pipeline["sim"]
        assert (sim / "telemetry.prom").exists()
        assert (sim / "latency.csv").exists()
        assert (sim / "topology.json").exists()

    def test_same_seed_byte_identical(self, tmp_path, scenario_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file), "--out-dir", str(b)]) == 0
        for name in ("telemetry.prom", "latency.csv", "topology.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_invalid_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "online_boutique_like",
                                   "duration_s": 0.0,
                                   "profile": [{"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0}]}))
        assert main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")]) == 2

    def test_non_finite_scenario_exit_2(self, tmp_path, capsys):
        # json reads Infinity; an infinite run would overflow (or, for a
        # segment field, never end), so it is refused before simulating
        bad = tmp_path / "bad.json"
        bad.write_text('{"preset": "online_boutique_like", "duration_s": Infinity, '
                       '"profile": [{"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0}]}')
        assert main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "duration must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 2


class TestIngest:
    def test_window_count_arithmetic(self, pipeline):
        # duration 120 -> floor((120-30)/5)+1 = 19 windows before drops
        from tailcast.statgraph import load_dataset
        ds = load_dataset(pipeline["dataset"])
        assert 0 < len(ds) <= 19
        assert ds.node_dim == 3 and ds.edge_dim == 3 and ds.resource_dim == 5

    def test_report_fields(self, tmp_path, pipeline):
        report_path = tmp_path / "report.json"
        out = tmp_path / "data.jsonl"
        assert main(["ingest", "--telemetry", str(pipeline["sim"]),
                     "--topology", str(pipeline["sim"] / "topology.json"),
                     "--dataset", str(out), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report["labels"]) == {
            "count", "min_ms", "max_ms", "mean_ms", "std_ms", "q1_ms", "median_ms", "q3_ms"}
        assert report["windows_built"] == report["labels"]["count"]
        assert report["dropped_missing_by_series"] == {}

    def test_report_names_under_covering_series(self, tmp_path, pipeline):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        prom = tel / "telemetry.prom"
        lines = prom.read_text().splitlines()
        t0 = min(float(line.split()[-1]) for line in lines if line and not line.startswith("#"))
        gaps = ('container_spec_cpu_period{workload="frontend"}',
                'container_memory_usage_bytes{workload="cartservice"}')
        prom.write_text("\n".join(
            line for line in lines
            if not (line.startswith(gaps) and float(line.split()[-1]) < t0 + 40.0)) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                     "--dataset", str(tmp_path / "d.jsonl"), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        by_series = report["dropped_missing_by_series"]
        assert list(by_series) == ["container_memory_usage_bytes{cartservice}",
                                   "container_spec_cpu_period{frontend}"]
        assert set(by_series.values()) == {report["dropped_missing_data"]}
        assert report["dropped_missing_data"] > 0

    def test_report_written_when_every_window_is_dropped(self, tmp_path, pipeline):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        prom = tel / "telemetry.prom"
        gone = 'container_memory_usage_bytes{workload="cartservice"}'
        prom.write_text("".join(
            line for line in prom.read_text().splitlines(keepends=True) if not line.startswith(gone)))
        report_path = tmp_path / "report.json"
        assert main(["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                     "--dataset", str(tmp_path / "d.jsonl"), "--report", str(report_path)]) == 3
        assert not (tmp_path / "d.jsonl").exists()
        report = json.loads(report_path.read_text())
        assert report["windows_built"] == 0
        assert report["labels"] == {"count": 0}
        assert report["dropped_missing_by_series"] == {
            "container_memory_usage_bytes{cartservice}": report["dropped_missing_data"]}
        assert report["dropped_missing_data"] > 0

    def test_corrupt_line_strict_exit_2_lenient_ok(self, tmp_path, pipeline):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        prom = tel / "telemetry.prom"
        prom.write_text("this is not a metric line\n" + prom.read_text())
        args = ["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                "--dataset", str(tmp_path / "d.jsonl")]
        assert main(args) == 2
        report_path = tmp_path / "report.json"
        assert main(args + ["--no-strict", "--report", str(report_path)]) == 0
        # the report is IngestStats in field order, plus the label statistics
        report = json.loads(report_path.read_text())
        assert list(report) == [
            "windows_total", "windows_built", "dropped_no_label", "dropped_missing_data",
            "unknown_label_series", "dropped_missing_by_series", "parse_skipped", "labels"]
        assert report["parse_skipped"] == 1

    @pytest.mark.parametrize("file_name,bad_line", [
        ("latency.csv", "12.5,nan"),
        ("telemetry.prom", "istio_requests_total 1.0 inf"),
    ])
    def test_non_finite_input_exit_2_with_line_number(self, tmp_path, capsys, pipeline,
                                                      file_name, bad_line):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        path = tel / file_name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [bad_line] + lines[1:]) + "\n")
        assert main(["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                     "--dataset", str(tmp_path / "d.jsonl")]) == 2
        assert "line 2:" in capsys.readouterr().err

    def test_parse_error_names_the_file(self, tmp_path, capsys, pipeline):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        lines = (tel / "telemetry.prom").read_text().splitlines(keepends=True)
        (tel / "telemetry.prom").unlink()
        half = len(lines) // 2
        (tel / "a.prom").write_text("".join(lines[:half]))
        b_lines = lines[half:]
        b_lines[4] = "garbage here\n"
        (tel / "b.prom").write_text("".join(b_lines))
        args = ["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                "--dataset", str(tmp_path / "d.jsonl")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{tel / 'b.prom'}: line 5: bad sample value 'here'" in err
        assert main(args + ["--no-strict"]) == 0

    def test_no_windows_exit_3(self, tmp_path, scenario_file):
        short = json.loads(scenario_file.read_text())
        short["duration_s"] = 20.0
        short["profile"] = [{"kind": "plateau", "duration_s": 20.0, "start_rate": 5.0}]
        sc = tmp_path / "short.json"
        sc.write_text(json.dumps(short))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(sc), "--out-dir", str(sim)]) == 0
        assert main(["ingest", "--telemetry", str(sim), "--topology", str(sim / "topology.json"),
                     "--dataset", str(tmp_path / "d.jsonl")]) == 3


class TestTrainCli:
    def test_artifacts_written(self, pipeline):
        train_dir = pipeline["train"]
        assert (train_dir / "checkpoint.json").exists()
        report = json.loads((train_dir / "report.json").read_text())
        assert report["variant"] == "resource_only"
        assert len(report["epochs"]) == 3
        assert "wall_clock" not in json.dumps(report)
        csv_lines = (train_dir / "epochs.csv").read_text().splitlines()
        assert csv_lines[0] == "epoch,train_loss,val_loss,grad_norm_max"
        assert len(csv_lines) == 4
        for line, record in zip(csv_lines[1:], report["epochs"]):
            assert float(line.split(",")[3]) == record["grad_norm_max"] > 0.0

    def test_deterministic_reports_and_checkpoints(self, tmp_path, pipeline):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--dataset", str(pipeline["dataset"]), "--variant", "traffic_only",
                "--epochs", "2", "--seed", "9"]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("checkpoint.json", "report.json", "epochs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestEvalPredictExport:
    def test_eval_writes_metrics_and_predictions(self, tmp_path, pipeline):
        out = tmp_path / "eval"
        assert main(["eval", "--dataset", str(pipeline["dataset"]),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                     "--out-dir", str(out), "--split", "test"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["split"] == "test"
        assert metrics["mape_pct"] > 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "window_start,y,y_hat"
        assert len(lines) == metrics["count"] + 1
        rows = [line.split(",") for line in lines[1:]]
        pairs = [(float(y), float(y_hat)) for _, y, y_hat in rows]

        def mape(sel):
            return 100.0 * sum(abs(y - y_hat) / y for y, y_hat in sel) / len(sel)

        under = [(y, y_hat) for y, y_hat in pairs if y_hat < y]
        over = [(y, y_hat) for y, y_hat in pairs if y_hat > y]
        assert over  # at this seed no test window is under-predicted: "under" is null
        for side, sel in (("under", under), ("over", over)):
            assert metrics[f"{side}_count"] == len(sel)
            expected = pytest.approx(mape(sel), rel=1e-12) if sel else None
            assert metrics[f"{side}_mape_pct"] == expected
        ys = sorted(y for y, _ in pairs)
        p90 = ys[math.ceil(0.9 * len(ys)) - 1]  # nearest rank
        top = [(y, y_hat) for y, y_hat in pairs if y >= p90]
        assert metrics["top_decile_mape_pct"] == pytest.approx(mape(top), rel=1e-12)

    def test_eval_topology_mismatch_exit_5(self, tmp_path, pipeline):
        from tailcast.statgraph import Topology, load_dataset, save_dataset, Dataset
        other = tmp_path / "other.jsonl"
        ds = load_dataset(pipeline["dataset"])
        topo = Topology.create(["x", "y"], [("x", "y")])
        rng = np.random.default_rng(0)
        from tailcast.statgraph import Snapshot
        snaps = tuple(Snapshot(5.0 * i, rng.random((2, 3)), rng.random((1, 3)),
                               rng.random((2, 5)), 0.2) for i in range(12))
        save_dataset(Dataset(topology=topo, snapshots=snaps), other)
        assert main(["eval", "--dataset", str(other),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "e")]) == 5

    @pytest.mark.parametrize("command", ["eval", "predict", "export-embedding"])
    def test_normalized_dataset_exit_5(self, tmp_path, pipeline, command):
        from tailcast.statgraph import fit_normalizer, load_dataset, normalize_dataset, save_dataset
        ds = load_dataset(pipeline["dataset"])
        normalized = tmp_path / "normalized.jsonl"
        save_dataset(normalize_dataset(ds, fit_normalizer(ds)), normalized)
        data_flag = "--snapshots" if command == "predict" else "--dataset"
        out_flag = {"eval": ["--out-dir", str(tmp_path / "e")],
                    "predict": [],
                    "export-embedding": ["--out", str(tmp_path / "emb.csv")]}[command]
        assert main([command, data_flag, str(normalized),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json")] + out_flag) == 5

    def test_predict_prints_positive_numbers(self, capsys, pipeline):
        assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = [float(line) for line in out]
        assert values and all(v > 0 for v in values)

    def test_predict_equals_eval_all_exactly(self, tmp_path, capsys, pipeline):
        checkpoint = str(pipeline["train"] / "checkpoint.json")
        assert main(["eval", "--dataset", str(pipeline["dataset"]), "--checkpoint", checkpoint,
                     "--out-dir", str(tmp_path / "eval"), "--split", "all"]) == 0
        capsys.readouterr()
        assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                     "--checkpoint", checkpoint]) == 0
        printed = capsys.readouterr().out.split()
        rows = (tmp_path / "eval" / "predictions.csv").read_text().splitlines()[1:]
        assert printed == [row.split(",")[2] for row in rows]

    def test_export_embedding_rows_match_snapshots(self, tmp_path, pipeline):
        out = tmp_path / "emb.csv"
        assert main(["export-embedding", "--dataset", str(pipeline["dataset"]),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                     "--out", str(out)]) == 0
        from tailcast.fusion import read_embeddings_csv
        from tailcast.statgraph import load_dataset
        starts, matrix = read_embeddings_csv(out)
        assert len(starts) == len(load_dataset(pipeline["dataset"]))
        assert matrix.shape[1] == 16

    def test_baseline_linear(self, tmp_path, pipeline):
        out = tmp_path / "base"
        assert main(["baseline", "--dataset", str(pipeline["dataset"]),
                     "--kind", "linear", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "linear"
        assert report["test_mape"] is not None
