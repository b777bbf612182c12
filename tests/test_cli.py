"""End-to-end checks for the command-line front end."""

import csv
import json

import pytest

from driftwatch.cli import main


def run_cli(*argv):
    return main(list(argv))


def synth_args(out, seed=0, k=60, noise=0.02, anomalies="40,45,50"):
    args = [
        "synth", "--i", "6", "--j", "5", "--k", str(k),
        "--rank", "2", "--seed", str(seed), "--noise-sigma", str(noise),
        "--out", str(out),
    ]
    if anomalies:
        args += ["--anomaly-steps", anomalies, "--anomaly-location", "2",
                 "--anomaly-mu-shift", "4.0"]
    return args


def train_args(tensor, bundle, window=30):
    return [
        "train", "--tensor", str(tensor), "--window", str(window),
        "--rank", "2", "--nu", "0.1", "--epochs", "40", "--seed", "0",
        "--k-neighbors", "2", "--gamma-change", "0.01",
        "--out", str(bundle),
    ]


class TestSynth:
    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*synth_args(a)) == 0
        assert run_cli(*synth_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.labels.csv").read_bytes() == \
            (tmp_path / "b.labels.csv").read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == \
            (tmp_path / "b.meta.json").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*synth_args(a, seed=0))
        run_cli(*synth_args(b, seed=1))
        assert a.read_bytes() != b.read_bytes()

    def test_labels_cover_every_step(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(*synth_args(out, k=50, anomalies="30,35"))
        with open(tmp_path / "t.labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        labels = [r["label"] for r in rows]
        assert labels[30] == "anomalous" and labels[35] == "anomalous"
        assert labels[0] == "healthy"


class TestTrainAndBundle:
    def test_bundle_round_trip_is_exact(self, tmp_path):
        from driftwatch.files import load_bundle, load_tensor_csv, save_bundle

        tensor_path = tmp_path / "t.csv"
        bundle_path = tmp_path / "bundle.json"
        run_cli(*synth_args(tensor_path))
        assert run_cli(*train_args(tensor_path, bundle_path)) == 0

        tensor = load_tensor_csv(str(tensor_path))
        slices = [tensor.slice_at(k) for k in range(30)]
        window, decomp, model, snapshot, config = load_bundle(
            str(bundle_path), slices)
        assert window == 30
        assert config.k_neighbors == 2
        assert config.gamma_change == 0.01
        # hex floats decode bit-exactly: saving what was loaded gives back
        # the same file, byte for byte
        again = tmp_path / "again.json"
        lr = decomp.state.lr
        save_bundle(str(again), window, decomp, model, snapshot, config,
                    (lr.a, lr.b), json.loads(bundle_path.read_text())["meta"])
        assert again.read_bytes() == bundle_path.read_bytes()

    @pytest.mark.parametrize("lr_a,lr_b,want", [
        ("0", "0.003", (4.0 / 30.0, 0.003)),  # auto rate 4/(I*J), I*J = 30
        ("0.02", "0.5", (0.02, 0.5)),
    ], ids=["auto", "explicit"])
    def test_bundle_keeps_the_lr_schedule(self, tmp_path, lr_a, lr_b, want):
        from driftwatch import LrSchedule
        from driftwatch.cli import load_bundle

        tensor_path = tmp_path / "t.csv"
        bundle_path = tmp_path / "bundle.json"
        run_cli(*synth_args(tensor_path))
        assert run_cli(*train_args(tensor_path, bundle_path),
                       "--lr-a", lr_a, "--lr-b", lr_b) == 0
        _, decomp, _, _, _ = load_bundle(str(bundle_path), [])
        assert decomp.state.lr == LrSchedule(*want)

    def test_window_larger_than_k_fails(self, tmp_path):
        tensor_path = tmp_path / "t.csv"
        run_cli(*synth_args(tensor_path, k=20))
        code = run_cli(*train_args(tensor_path, tmp_path / "b.json",
                                   window=500))
        assert code == 2

    def test_factor_export(self, tmp_path):
        tensor_path = tmp_path / "t.csv"
        run_cli(*synth_args(tensor_path))
        args = train_args(tensor_path, tmp_path / "b.json")
        args += ["--factors-prefix", str(tmp_path / "fac")]
        assert run_cli(*args) == 0
        for name in ("a", "b", "c"):
            assert (tmp_path / f"fac_{name}.csv").exists()


class TestStreamAndEval:
    def setup_run(self, tmp_path):
        tensor_path = tmp_path / "t.csv"
        bundle_path = tmp_path / "bundle.json"
        run_cli(*synth_args(tensor_path))
        run_cli(*train_args(tensor_path, bundle_path))
        return tensor_path, bundle_path

    def test_stream_writes_verdicts_and_metrics(self, tmp_path):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        verdicts = tmp_path / "verdicts.csv"
        metrics = tmp_path / "metrics.json"
        code = run_cli("stream", "--bundle", str(bundle_path),
                       "--tensor", str(tensor_path),
                       "--verdicts", str(verdicts),
                       "--metrics", str(metrics), "--far-window", "10")
        assert code == 0
        with open(verdicts, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30  # K=60 minus the training window
        assert rows[0]["t"] == "30"
        m = json.loads(metrics.read_text())
        assert m["far_window"] == 10
        assert m["anomalous_events"] == 3

    def test_missing_labels_skip_only_metrics(self, tmp_path):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        (tmp_path / "t.labels.csv").unlink()
        verdicts = tmp_path / "verdicts.csv"
        metrics = tmp_path / "metrics.json"
        code = run_cli("stream", "--bundle", str(bundle_path),
                       "--tensor", str(tensor_path),
                       "--verdicts", str(verdicts),
                       "--metrics", str(metrics))
        assert code == 0
        with open(verdicts, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 30
        assert not metrics.exists()

    def test_stream_is_deterministic(self, tmp_path):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        v1, v2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        for v in (v1, v2):
            run_cli("stream", "--bundle", str(bundle_path),
                    "--tensor", str(tensor_path), "--verdicts", str(v))
        assert v1.read_bytes() == v2.read_bytes()

    def test_eval_matches_stream_metrics(self, tmp_path, capsys):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        verdicts = tmp_path / "verdicts.csv"
        metrics = tmp_path / "metrics.json"
        run_cli("stream", "--bundle", str(bundle_path),
                "--tensor", str(tensor_path), "--verdicts", str(verdicts),
                "--metrics", str(metrics), "--far-window", "10")
        capsys.readouterr()
        code = run_cli("eval", "--verdicts", str(verdicts),
                       "--labels", str(tmp_path / "t.labels.csv"),
                       "--far-window", "10")
        assert code == 0
        rerun = json.loads(capsys.readouterr().out)
        assert rerun == json.loads(metrics.read_text())

    def test_eval_detection_rate_matches_manual_count(self, tmp_path, capsys):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        verdicts = tmp_path / "verdicts.csv"
        run_cli("stream", "--bundle", str(bundle_path),
                "--tensor", str(tensor_path), "--verdicts", str(verdicts))
        capsys.readouterr()
        run_cli("eval", "--verdicts", str(verdicts),
                "--labels", str(tmp_path / "t.labels.csv"))
        m = json.loads(capsys.readouterr().out)
        with open(verdicts, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "t.labels.csv", newline="") as fh:
            labels = {int(r["k"]): r["label"] for r in csv.DictReader(fh)}
        hits = sum(1 for r in rows if labels[int(r["t"])] == "anomalous"
                   and r["action"] == "report_anomaly")
        total = sum(1 for r in rows if labels[int(r["t"])] == "anomalous")
        assert m["detection_rate"] == pytest.approx(hits / total)

    def test_empty_stream_is_validation_error(self, tmp_path):
        tensor_path = tmp_path / "t.csv"
        bundle_path = tmp_path / "bundle.json"
        run_cli(*synth_args(tensor_path, k=30, anomalies=""))
        run_cli(*train_args(tensor_path, bundle_path, window=30))
        code = run_cli("stream", "--bundle", str(bundle_path),
                       "--tensor", str(tensor_path),
                       "--verdicts", str(tmp_path / "v.csv"))
        assert code == 2

    def test_shape_mismatch_is_validation_error(self, tmp_path):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        other = tmp_path / "other.csv"
        run_cli("synth", "--i", "7", "--j", "4", "--k", "60",
                "--rank", "2", "--seed", "3", "--out", str(other))
        code = run_cli("stream", "--bundle", str(bundle_path),
                       "--tensor", str(other),
                       "--verdicts", str(tmp_path / "v.csv"))
        assert code == 2

    def test_policy_override(self, tmp_path):
        tensor_path, bundle_path = self.setup_run(tmp_path)
        v_none = tmp_path / "v_none.csv"
        code = run_cli("stream", "--bundle", str(bundle_path),
                       "--tensor", str(tensor_path),
                       "--verdicts", str(v_none), "--policy", "none")
        assert code == 0
        with open(v_none, newline="") as fh:
            actions = {r["action"] for r in csv.DictReader(fh)}
        assert "update_model" not in actions


class TestBench:
    def test_bench_writes_traces(self, tmp_path):
        tensor_path = tmp_path / "t.csv"
        run_cli(*synth_args(tensor_path, k=40, anomalies=""))
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--tensor", str(tensor_path),
                       "--optimizers", "sgd,nesgd", "--lr-a", "0.02",
                       "--lr-b", "0.001", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {r["optimizer"] for r in rows}
        assert kinds == {"sgd", "nesgd"}
        for r in rows:
            float(r["rmse"])  # parseable full-precision values


class TestMalformedInput:
    @pytest.mark.parametrize("case", [
        "missing_bundle", "truncated_bundle", "missing_bundle_key",
        "unknown_update_policy", "missing_eval_verdicts",
        "unwritable_stream_verdicts", "far_window_zero", "short_labels",
        "negative_label_k", "duplicate_label_k", "missing_label_k",
        "non_numeric_tensor_value", "non_numeric_dims",
        "negative_train_window", "negative_bundle_window",
        "negative_verdict_t", "non_numeric_anomaly_steps",
        "non_numeric_drift_locations", "unknown_bench_optimizer",
        "unknown_stream_policy", "negative_bench_lr_b", "negative_train_lr_b",
        "negative_bundle_lr_b", "train_epochs_below_one",
    ])
    def test_exit_code_2(self, tmp_path, capsys, case):
        tensor_path = tmp_path / "t.csv"
        bundle = tmp_path / "bundle.json"
        run_cli(*synth_args(tensor_path))
        run_cli(*train_args(tensor_path, bundle))
        payload = json.loads(bundle.read_text())
        verdicts = tmp_path / "v.csv"
        labels = tmp_path / "t.labels.csv"
        label_lines = labels.read_text().splitlines(keepends=True)
        extra = []
        if case == "missing_bundle":
            bundle.unlink()
        elif case == "truncated_bundle":
            bundle.write_text(bundle.read_text()[:200])
        elif case == "missing_bundle_key":
            del payload["factors"]
            bundle.write_text(json.dumps(payload))
        elif case == "unknown_update_policy":
            payload["config"]["update_policy"] = "no_such_policy"
            bundle.write_text(json.dumps(payload))
        elif case == "unwritable_stream_verdicts":
            verdicts = tmp_path / "no_such_dir" / "v.csv"
        elif case == "far_window_zero":
            extra = ["--far-window", "0"]
        elif case == "short_labels":  # header plus steps 0..49 of 60
            labels.write_text("".join(label_lines[:51]))
        elif case == "negative_label_k":
            labels.write_text("".join(label_lines[:-1]) + "-1,healthy\n")
        elif case == "duplicate_label_k":
            labels.write_text("".join(label_lines[:-1]) + "3,healthy\n")
        elif case == "missing_label_k":
            labels.write_text("".join(label_lines[:5] + label_lines[6:]))
        elif case == "non_numeric_tensor_value":
            text = tensor_path.read_text()
            tensor_path.write_text(text.replace("\n0,0,0,", "\n0,0,0,x", 1))
        elif case == "non_numeric_dims":
            (tmp_path / "t.dims.json").write_text(
                '{"I": "six", "J": 5, "K": 60}\n')
        elif case == "negative_bundle_window":
            payload["window"] = -5
            bundle.write_text(json.dumps(payload))
        elif case == "negative_bundle_lr_b":
            payload["state"]["lr"]["b"] = float.hex(-1.0)
            bundle.write_text(json.dumps(payload))
        migrations = tmp_path / "m.jsonl"
        if case == "missing_eval_verdicts":
            argv = ["eval", "--verdicts", str(verdicts),
                    "--labels", str(tmp_path / "t.labels.csv")]
        elif case == "negative_verdict_t":
            bad = tmp_path / "bad_v.csv"
            bad.write_text("t,g_raw,p_env,g_advised,action\n"
                           "-1,0.1,0.0,0.1,report_anomaly\n")
            argv = ["eval", "--verdicts", str(bad),
                    "--labels", str(tmp_path / "t.labels.csv")]
        elif case == "negative_train_window":
            bundle.unlink()
            argv = train_args(tensor_path, bundle, window=-20)
        elif case == "negative_train_lr_b":
            bundle.unlink()
            argv = [*train_args(tensor_path, bundle), "--lr-b", "-0.5"]
        elif case == "train_epochs_below_one":
            bundle.unlink()
            argv = [*train_args(tensor_path, bundle), "--epochs", "-3"]
        elif case == "non_numeric_anomaly_steps":
            argv = synth_args(tmp_path / "s.csv", anomalies="x")
        elif case == "non_numeric_drift_locations":
            argv = [*synth_args(tmp_path / "s.csv"), "--drift-start-k", "20",
                    "--drift-locations", "a"]
        elif case == "unknown_bench_optimizer":
            argv = ["bench", "--tensor", str(tensor_path), "--optimizers",
                    "sgd,foo", "--out", str(tmp_path / "bench.csv")]
        elif case == "negative_bench_lr_b":
            argv = ["bench", "--tensor", str(tensor_path), "--lr-a", "0.02",
                    "--lr-b", "-1", "--out", str(tmp_path / "bench.csv")]
        elif case == "unknown_stream_policy":
            argv = ["stream", "--bundle", str(bundle),
                    "--tensor", str(tensor_path), "--verdicts", str(verdicts),
                    "--migrations", str(migrations), "--policy", "foo"]
        else:
            argv = ["stream", "--bundle", str(bundle),
                    "--tensor", str(tensor_path), "--verdicts", str(verdicts),
                    "--migrations", str(migrations), *extra]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [")
        # bad input is rejected before the stream runs: no partial outputs
        assert not verdicts.exists()
        assert not migrations.exists()
        if case in ("negative_train_window", "negative_train_lr_b",
                    "train_epochs_below_one"):
            assert not bundle.exists()
        assert not (tmp_path / "s.csv").exists()
        assert not (tmp_path / "bench.csv").exists()
