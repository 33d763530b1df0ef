"""End-to-end command-line pipeline tests and the exit-code contract."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailcast
from tailcast.cli import main
from tailcast.statgraph import SPLIT_FRACTIONS


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


def _break_checkpoint(payload: dict, defect: str):
    """A saved checkpoint's JSON with one defect."""
    meta = payload["meta"]
    if defect == "top_level_list":
        return [payload]
    if defect == "no_params":
        del payload["params"]
    elif defect == "param_without_shape":
        del next(iter(payload["params"].values()))["shape"]
    elif defect == "normalization_list":
        meta["normalization"] = [1.0, 2.0]
    elif defect == "one_element_node_stats":
        for key in ("node_mean", "node_std"):
            meta["normalization"][key] = meta["normalization"][key][:1]
    elif defect == "unknown_variant":
        meta["model_config"] = {"variant": "bogus"}
    elif defect.startswith("dropout_"):
        meta["model_config"]["dropout_resource"] = {
            "dropout_above_one": 1.5, "dropout_negative": -0.1, "dropout_nan": math.nan}[defect]
    elif defect == "zero_node_std":
        meta["normalization"]["node_std"] = [0.0, 0.0, 0.0]
    elif defect == "nan_edge_mean":
        meta["normalization"]["edge_mean"][1] = math.nan
    elif defect == "string_node_mean":
        meta["normalization"]["node_mean"] = ["0.0", "0.0", "0.0"]
    elif defect == "bool_resource_std":
        meta["normalization"]["resource_std"][2] = True
    elif defect.startswith("data_"):
        data = next(iter(payload["params"].values()))["data"]
        if defect == "data_nested":
            data[:] = [list(data)]
        else:
            data[0] = {"data_nan": math.nan, "data_null": None, "data_string": "0.5",
                       "data_bool": True, "data_huge_int": 10 ** 400}[defect]
    elif defect == "shape_bare_int":
        entry = next(e for e in payload["params"].values() if len(e["shape"]) == 1)
        entry["shape"] = entry["shape"][0]
    elif defect == "shape_bool":
        entry = next(e for e in payload["params"].values() if 1 in e["shape"])
        entry["shape"] = [True if d == 1 else d for d in entry["shape"]]
    elif defect == "string_topology":
        meta["topology"]["services"] = "".join(
            chr(ord("a") + i) for i in range(len(meta["topology"]["services"])))
    return payload


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
        assert "scenario duration_s must be finite, got Infinity" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_duration_longer_than_profile_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "online_boutique_like", "duration_s": 20.0,
                                   "profile": [{"kind": "plateau", "duration_s": 10.0,
                                                "start_rate": 1.0}]}))
        assert main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "duration_s 20.0 is longer than the profile's 10.0 s" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unbounded_rate_exit_2_before_sampling(self, tmp_path):
        # a start_rate of 1e300 once sent the sampler after 1e301 candidates;
        # the command runs as a child process under a timeout and a 1 GiB
        # address-space limit, so a regression fails instead of hanging
        scenario = tmp_path / "rate.json"
        scenario.write_text(json.dumps({
            "preset": "sockshop_like", "seed": 5,
            "profile": [{"kind": "plateau", "duration_s": 10.0, "start_rate": 1e300}]}))
        src = Path(tailcast.__file__).resolve().parents[1]

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        run = subprocess.run(
            [sys.executable, "-m", "tailcast.cli", "simulate", "--scenario", str(scenario),
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
        assert run.returncode == 2, run.stderr
        assert "asks for 1e+301 candidate arrivals" in run.stderr
        assert "more than the 1e+07 allowed" in run.stderr
        assert not (tmp_path / "o").exists()

    def test_out_of_range_scenario_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        scenario = {"preset": "online_boutique_like", "seed": 1.9,
                    "profile": [{"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0}]}
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "scenario seed must be an integer, got 1.9" in capsys.readouterr().err
        scenario["seed"] = 1
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(bad), "--seed", "-1",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, edit", [
        ("request_mix entry missing field 'name'",
         {"request_mix": [{"path": ["frontend"], "weight": 1.0}]}),
        ("capacities must be an object", {"capacities": [{"pods": 2}]}),
        ("profile must be a list",
         {"profile": {"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0}}),
        ("profile segment must be an object", {"profile": [["plateau", 5.0, 1.0]]}),
        ("path must be a list of service names",
         {"preset": None, "topology": {"services": ["a", "b"], "edges": [["a", "b"]]},
          "request_mix": [{"name": "r", "path": "ab", "weight": 1.0}]}),
        ("scenario: unknown fields ['duraton_s', 'zeta']", {"duraton_s": 20.0, "zeta": 1}),
        ("profile segment: unknown fields ['peak_rate']",
         {"profile": [{"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0, "peak_rate": 50}]}),
        ("request_mix entry: unknown fields ['weigth']",
         {"request_mix": [{"name": "r", "path": ["frontend"], "weight": 1.0, "weigth": 2.0}]}),
        ("services must be a list of strings",
         {"preset": None, "topology": {"services": "ab", "edges": [["a", "b"]]},
          "request_mix": [{"name": "r", "path": ["a", "b"], "weight": 1.0}]}),
        ("edges must be a list of [str, str] pairs",
         {"preset": None, "topology": {"services": ["a", "b"], "edges": ["ab"]},
          "request_mix": [{"name": "r", "path": ["a", "b"], "weight": 1.0}]}),
    ], ids=["mix_without_name", "capacities_list", "profile_object", "segment_list",
            "path_string", "unknown_field", "unknown_segment_field", "unknown_mix_field",
            "topology_services_string", "topology_edge_string"])
    def test_malformed_scenario_exit_2(self, tmp_path, capsys, field, edit):
        scenario = {"preset": "online_boutique_like",
                    "profile": [{"kind": "plateau", "duration_s": 5.0, "start_rate": 1.0}]}
        scenario = {k: v for k, v in {**scenario, **edit}.items() if v is not None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestIngest:
    def test_window_count_arithmetic(self, pipeline):
        # duration 120 -> floor((120-30)/5)+1 = 19 windows before drops
        from tailcast.statgraph import load_dataset
        ds = load_dataset(pipeline["dataset"])
        assert 0 < len(ds) <= 19
        assert {(s.node_features.shape[1], s.edge_features.shape[1], s.resource_features.shape[1])
                for s in ds.snapshots} == {(3, 3, 5)}

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

    def test_split_across_files_equals_one_file(self, tmp_path, pipeline):
        """a.prom + b.prom, cut inside a scrape, ingest to the one file's bytes."""
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        lines = (tel / "telemetry.prom").read_text().splitlines(keepends=True)
        (tel / "telemetry.prom").unlink()
        cut = len(lines) // 2 + 7
        # inside one scrape, and every series has samples in both files
        assert lines[cut - 1].split()[-1] == lines[cut].split()[-1]
        heads = [{line.split()[0] for line in part} for part in (lines[:cut], lines[cut:])]
        assert heads[0] == heads[1]
        (tel / "a.prom").write_text("".join(lines[:cut]))
        (tel / "b.prom").write_text("".join(lines[cut:]))
        outputs = []
        for i, directory in enumerate((pipeline["sim"], tel)):
            out = tmp_path / f"out{i}"
            out.mkdir()
            assert main(["ingest", "--telemetry", str(directory),
                         "--topology", str(directory / "topology.json"),
                         "--dataset", str(out / "d.jsonl"), "--report", str(out / "report.json")]) == 0
            outputs.append(((out / "d.jsonl").read_bytes(), (out / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("flag", ["--learning-rate=1e-3", "--traffic-layers=4",
                                      "--resource-blocks=4", "--fusion-rank=4"])
    def test_removed_train_flag_exit_2(self, tmp_path, capsys, pipeline, flag):
        # the model's sizes and Adam's rate are constants
        out = tmp_path / "train"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", str(pipeline["dataset"]), "--out-dir", str(out),
                  "--epochs", "1", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("labels, message", [
        # predictions of about 5e299 against a label of 1e-300 overflow the
        # mean loss of the first batch
        ("alternating", "non-finite loss at epoch 1, batch 0"),
        # the training split's loss is finite; its predictions of 1e300
        # overflow the loss of every validation label
        ("train_split_huge", "no epoch reached a finite validation loss"),
    ])
    def test_diverged_training_exit_4_without_checkpoint(self, tmp_path, capsys, pipeline,
                                                         labels, message):
        header, *rows = pipeline["dataset"].read_text().splitlines()
        n_train = int(SPLIT_FRACTIONS[0] * len(rows))
        for i, line in enumerate(rows):
            row = json.loads(line)
            huge = i % 2 == 0 if labels == "alternating" else i < n_train
            row["y"] = 1e300 if huge else 1e-300
            rows[i] = json.dumps(row)
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "train"
        assert main(["train", "--dataset", str(data), "--out-dir", str(out), "--epochs", "1"]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_feature_exit_2_before_writing(self, tmp_path, capsys, pipeline):
        # 1e308 is finite, but its square is not: the node std would be inf,
        # and eval refuses a checkpoint holding it
        lines = pipeline["dataset"].read_text().splitlines()
        row = json.loads(lines[1])
        row["X"][0][0] = 1e308
        lines[1] = json.dumps(row)
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "train"
        assert main(["train", "--dataset", str(data), "--out-dir", str(out), "--epochs", "1"]) == 2
        assert "node feature column 0 has non-finite statistics" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("defect, field", [
        ("top_level_list", "checkpoint must be an object, got [{"),
        ("no_params", "'params'"),
        ("param_without_shape", "missing field 'shape'"),
        ("normalization_list", "normalization must be an object"),
        ("one_element_node_stats", "node_mean has shape (1,), expected (3,)"),
        ("unknown_variant", "unknown variant"),
        ("dropout_above_one", "model_config.dropout_resource must be 0.1, got 1.5"),
        ("dropout_negative", "model_config.dropout_resource must be 0.1, got -0.1"),
        ("dropout_nan", "model_config.dropout_resource must be 0.1, got NaN"),
        ("zero_node_std", "normalization node_std must be finite and > 0, got [0.0, 0.0, 0.0]"),
        ("nan_edge_mean", "normalization edge_mean must be finite"),
        ("string_node_mean", "normalization node_mean must be a list of numbers"),
        ("bool_resource_std", "normalization resource_std must be a list of numbers"),
        ("string_topology", "services must be a list of strings"),
        # numpy read each of these as a float and the model predicted from it
        ("data_nan", "data must be finite, got [NaN, "),
        ("data_null", "data must be a list of numbers, got [null, "),
        ("data_string", 'data must be a list of numbers, got ["0.5", '),
        ("data_bool", "data must be a list of numbers, got [true, "),
        ("data_huge_int", "data must be finite, got [1000000000"),  # raised OverflowError
        ("data_nested", "data must be a list of numbers, got [["),
        ("shape_bare_int", "shape must be a list of integers, got "),
        ("shape_bool", "shape must be a list of integers, got ["),
    ])
    def test_malformed_checkpoint_exit_5(self, tmp_path, capsys, pipeline, defect, field):
        payload = json.loads((pipeline["train"] / "checkpoint.json").read_text())
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(_break_checkpoint(payload, defect)))
        assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                     "--checkpoint", str(bad)]) == 5
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("normalization, field", [
        ([1], "normalization must be an object"),
        ({"node_mean": [0.0], "node_std": [1.0], "edge_mean": [0.0] * 3, "edge_std": [1.0] * 3,
          "resource_mean": [0.0] * 5, "resource_std": [1.0] * 5}, "normalization node_mean has shape"),
        ({"node_mean": [0.0] * 3, "node_std": [0.0] * 3, "edge_mean": [0.0] * 3,
          "edge_std": [1.0] * 3, "resource_mean": [0.0] * 5, "resource_std": [1.0] * 5},
         "normalization node_std must be finite and > 0"),
        ({"node_mean": [0.0] * 3, "node_std": [1.0] * 3, "edge_mean": [0.0] * 3,
          "edge_std": [1.0] * 3, "resource_mean": [0.0] * 5, "resource_std": [1.0] * 4 + [-1.0]},
         "normalization resource_std must be finite and > 0"),
        ({"node_mean": [0.0] * 2 + [math.inf], "node_std": [1.0] * 3, "edge_mean": [0.0] * 3,
          "edge_std": [1.0] * 3, "resource_mean": [0.0] * 5, "resource_std": [1.0] * 5},
         "normalization node_mean must be finite"),
        ({"node_mean": ["0.0"] * 3, "node_std": [1.0] * 3, "edge_mean": [0.0] * 3,
          "edge_std": [1.0] * 3, "resource_mean": [0.0] * 5, "resource_std": [1.0] * 5},
         "normalization node_mean must be a list of numbers"),
        ({"node_mean": [0.0] * 3, "node_std": [1.0] * 3, "edge_mean": [0.0] * 3,
          "edge_std": [True] * 3, "resource_mean": [0.0] * 5, "resource_std": [1.0] * 5},
         "normalization edge_std must be a list of numbers"),
    ], ids=["list", "one_element_node_stats", "zero_std", "negative_std", "infinite_mean",
            "string_mean", "bool_std"])
    def test_malformed_dataset_header_exit_2(self, tmp_path, capsys, pipeline, normalization,
                                             field):
        lines = pipeline["dataset"].read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["normalization"] = normalization
        bad = tmp_path / "data.jsonl"
        bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(["eval", "--dataset", str(bad),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert f"line 1: {field}" in err

    @pytest.mark.parametrize("topology, field", [
        ({"services": "abcdefghijk", "edges": []}, "services must be a list of strings"),
        ({"services": [1, 2], "edges": [[0, 1]]}, "services must be a list of strings"),
        ({"services": ["a", 2], "edges": []}, "services must be a list of strings"),
        ({"services": ["a", "b"], "edges": ["01"]}, "edges must be a list of [int, int] pairs"),
    ], ids=["services_string", "services_numbers", "services_one_number", "edge_string"])
    def test_malformed_topology_exit_2(self, tmp_path, capsys, pipeline, topology, field):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        (tel / "topology.json").write_text(json.dumps(topology))
        assert main(["ingest", "--telemetry", str(tel), "--topology", str(tel / "topology.json"),
                     "--dataset", str(tmp_path / "d.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tel / 'topology.json'}: ") and field in err
        lines = pipeline["dataset"].read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["topology"] = topology
        bad = tmp_path / "data.jsonl"
        bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(["predict", "--snapshots", str(bad),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json")]) == 2
        assert field in capsys.readouterr().err

    def test_topology_cut_after_its_last_edge_exit_2(self, tmp_path, capsys, pipeline):
        import shutil
        tel = tmp_path / "tel"
        shutil.copytree(pipeline["sim"], tel)
        path = tel / "topology.json"
        text = path.read_text()
        path.write_text(text[:text.rindex("]]") + 1])
        assert main(["ingest", "--telemetry", str(tel), "--topology", str(path),
                     "--dataset", str(tmp_path / "d.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Expecting ',' delimiter" in err
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("d_node", 4), ("d_edge", 2), ("d_resource", 6), ("d_emb", 8), ("num_heads", 2),
        ("gmlp_expansion", 2), ("fusion_tokens", 2), ("fused_width", 8), ("head_hidden", 8),
        ("dropout_traffic", 0.2), ("dropout_resource", 0.0), ("d_emb", "16"), ("d_emb", 16.0),
        ("num_heads", True), ("dropout_traffic", None),
    ])
    def test_retired_model_config_key_exit_5(self, tmp_path, capsys, pipeline, key, value):
        fixed = {"d_node": 3, "d_edge": 3, "d_resource": 5, "d_emb": 16, "num_heads": 4,
                 "gmlp_expansion": 4, "fusion_tokens": 4, "fused_width": 16, "head_hidden": 16,
                 "dropout_traffic": 0.1, "dropout_resource": 0.1}[key]
        payload = json.loads((pipeline["train"] / "checkpoint.json").read_text())
        payload["meta"]["model_config"][key] = value
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                     "--checkpoint", str(bad)]) == 5
        assert f"model_config.{key} must be {fixed}, got " in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [
        {"node": "3", "edge": "3", "resource": "5"},
        {"node": 3, "edge": 4, "resource": 5},
        {"node": 3.0, "edge": 3, "resource": 5},
        {"node": True, "edge": 3, "resource": 5},
        {"node": 3, "edge": 3},
        {"node": 3, "edge": 3, "resource": 5, "extra": 1},
        None,
    ], ids=["strings", "width_4", "float", "bool", "missing_block", "extra_block", "null"])
    def test_dataset_dims_other_than_the_schema_exit_2(self, tmp_path, capsys, pipeline, dims):
        lines = pipeline["dataset"].read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["dims"] = dims
        bad = tmp_path / "data.jsonl"
        bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(["predict", "--snapshots", str(bad),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json")]) == 2
        assert 'line 1: dims must be {"node": 3, "edge": 3, "resource": 5}, got ' in \
            capsys.readouterr().err

    @pytest.mark.parametrize("row, start", [(1, math.nan), (-1, math.inf)],
                             ids=["nan_second", "inf_last"])
    def test_non_finite_window_start_exit_2(self, tmp_path, capsys, pipeline, row, start):
        lines = pipeline["dataset"].read_text().splitlines()
        snapshot = json.loads(lines[row])
        snapshot["window_start"] = start
        lines[row] = json.dumps(snapshot)
        bad = tmp_path / "data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["predict", "--snapshots", str(bad),
                     "--checkpoint", str(pipeline["train"] / "checkpoint.json")]) == 2
        index = row - 1 if row > 0 else len(lines) - 2
        assert f"snapshot {index}: window_start must be finite" in capsys.readouterr().err

    def test_checkpoint_edit_predicts_the_same(self, tmp_path, capsys, pipeline):
        # integral floats load as their integers: a shape entry 16.0 and a
        # topology index 1.0
        checkpoint = pipeline["train"] / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        payload["meta"]["topology"]["edges"] = [
            [float(i) for i in e] for e in payload["meta"]["topology"]["edges"]]
        for entry in payload["params"].values():
            entry["shape"] = [float(d) for d in entry["shape"]]
        edited = tmp_path / "checkpoint.json"
        edited.write_text(json.dumps(payload))
        outputs = []
        for path in (checkpoint, edited):
            assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                         "--checkpoint", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize("value", [2, 4000, True, 4.0, "4"], ids=repr)
    @pytest.mark.parametrize("key", ["traffic_layers", "resource_blocks", "fusion_rank"])
    def test_model_size_other_than_its_constant_exit_5_before_building(
            self, tmp_path, capsys, monkeypatch, pipeline, key, value):
        # the sizes are constants; older checkpoints carry each at 4, whatever
        # the variant builds. A size of 10**8 once built layer by layer until
        # the host ran out of memory
        from tailcast import encoders, fusion
        payload = json.loads((pipeline["train"] / "checkpoint.json").read_text())
        payload["meta"]["model_config"][key] = value
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(payload))
        built = []
        for cls in (encoders.GraphTransformerLayer, encoders.GmlpBlock,
                    fusion.DemandCapacityFusion):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        assert main(["predict", "--snapshots", str(pipeline["dataset"]),
                     "--checkpoint", str(checkpoint)]) == 5
        assert f"model_config.{key} must be 4, got {json.dumps(value)}" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("command", ["eval", "predict", "export-embedding"])
    def test_non_finite_outputs_exit_5(self, tmp_path, capsys, pipeline, command):
        # every value is finite, but the first layer overflows on the data;
        # the parent printed nan and exited 0
        payload = json.loads((pipeline["train"] / "checkpoint.json").read_text())
        payload["params"]["resource.input_proj.w"]["data"][0] = 1e308
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        data_flag = "--snapshots" if command == "predict" else "--dataset"
        out_flag = {"eval": ["--out-dir", str(tmp_path / "e")], "predict": [],
                    "export-embedding": ["--out", str(tmp_path / "emb.csv")]}[command]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, data_flag, str(pipeline["dataset"]),
                         "--checkpoint", str(bad)] + out_flag) == 5
        captured = capsys.readouterr()
        assert "non-finite outputs" in captured.err and not captured.out
        assert not (tmp_path / "e").exists() and not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("target", ["checkpoint", "snapshot"])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, pipeline, target):
        # json reads an integer of more than 4300 digits with a ValueError
        # that is no JSONDecodeError: a checkpoint's exited 2, not 5, and a
        # snapshot's named no line
        huge = "1" + "0" * 5000
        checkpoint = pipeline["train"] / "checkpoint.json"
        dataset = pipeline["dataset"]
        if target == "checkpoint":
            payload = json.loads(checkpoint.read_text())
            next(iter(payload["params"].values()))["data"][0] = 12345.0
            checkpoint = tmp_path / "checkpoint.json"
            checkpoint.write_text(json.dumps(payload).replace("12345.0", huge, 1))
        else:
            lines = dataset.read_text().splitlines()
            row = json.loads(lines[1])
            row["y"] = 12345.0
            lines[1] = json.dumps(row).replace("12345.0", huge)
            dataset = tmp_path / "data.jsonl"
            dataset.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--snapshots", str(dataset), "--checkpoint", str(checkpoint)])
        err = capsys.readouterr().err
        assert (code, "digits" in err) == (5 if target == "checkpoint" else 2, True)
        assert target == "checkpoint" or "line 2:" in err

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
        from oracles import read_embeddings_csv
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
