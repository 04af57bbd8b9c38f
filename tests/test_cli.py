import csv
import json

import numpy as np
import pytest

from tramsurv.basis import LogTimeScaler
from tramsurv.cli import (
    CDF_GRID_CHUNK,
    CDF_GRID_POINTS,
    main,
    parse_dataset_csv,
    write_cdf_grid,
    write_dataset_csv,
)
from tramsurv.core import (
    CensoringKind,
    FittedModel,
    ModelSpec,
    Observation,
    Parameterization,
    SurvivalDataset,
)
from tramsurv.errors import (
    BadConfig,
    BadStatusValue,
    DataNotFound,
    MissingColumn,
    NonNumericCovariate,
)
from tramsurv.feature import ExtractorSpec, init_params
from tramsurv.target import TargetFamily
from tramsurv.transform import conditional_distribution, head_size, init_head


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestParseDatasetCsv:
    def test_exact_row(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,status,x1\n1.0,exact,0.5\n")
        ds = parse_dataset_csv(path)
        assert ds.n == 1
        obs = ds.observations[0]
        assert obs.censoring == CensoringKind.EXACT
        assert obs.time_lower == 1.0
        np.testing.assert_array_equal(obs.covariates, [0.5])
        assert ds.feature_names == ["x1"]

    def test_right_censored_row(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,status,x1\n2.5,right,0.0\n")
        obs = parse_dataset_csv(path).observations[0]
        assert obs.censoring == CensoringKind.RIGHT
        assert obs.time_lower == 2.5
        assert obs.time_upper == np.inf

    def test_interval_row(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,time2,status,x1\n1.0,2.0,interval,0.1\n")
        obs = parse_dataset_csv(path).observations[0]
        assert obs.censoring == CensoringKind.INTERVAL
        assert (obs.time_lower, obs.time_upper) == (1.0, 2.0)

    def test_interval_without_time2(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,status,x1\n1.0,interval,0.1\n")
        with pytest.raises(MissingColumn):
            parse_dataset_csv(path)

    def test_missing_time_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "status,x1\nexact,0.1\n")
        with pytest.raises(MissingColumn):
            parse_dataset_csv(path)

    def test_bad_status(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,status,x1\n1.0,sometimes,0.1\n")
        with pytest.raises(BadStatusValue, match="line 2"):
            parse_dataset_csv(path)

    def test_non_numeric_covariate_locates_cell(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time,status,age\n1.0,exact,young\n")
        with pytest.raises(NonNumericCovariate, match="age"):
            parse_dataset_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataNotFound):
            parse_dataset_csv(str(tmp_path / "nope.csv"))

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(901)
        obs = [
            Observation.exact(float(rng.uniform(0.1, 5.0)), rng.normal(size=2)),
            Observation.right_censored(float(rng.uniform(0.1, 5.0)), rng.normal(size=2)),
            Observation.left_censored(float(rng.uniform(0.1, 5.0)), rng.normal(size=2)),
            Observation.interval(0.5, 1.25, rng.normal(size=2)),
        ]
        ds = SurvivalDataset(obs, feature_names=["age", "dose"])
        path = tmp_path / "round.csv"
        write_dataset_csv(ds, str(path))
        back = parse_dataset_csv(str(path))
        assert back.feature_names == ["age", "dose"]
        for a, b in zip(ds.observations, back.observations):
            assert a.time_lower == b.time_lower
            assert a.time_upper == b.time_upper
            assert a.censoring == b.censoring
            np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_reexport_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(903)
        ds = SurvivalDataset(
            [Observation.exact(float(t), rng.normal(size=1)) for t in rng.uniform(0.1, 9.0, 6)]
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, str(p1))
        write_dataset_csv(parse_dataset_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestWriteCdfGrid:
    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(907)
        spec = ModelSpec(
            family=TargetFamily.LOGISTIC, parameterization=Parameterization.BERNSTEIN_SHIFT,
            bernstein_order=4, extractor=ExtractorSpec(input_dim=2, hidden_dims=(4,), output_dim=2),
        )
        model = FittedModel(
            spec=spec, scaler=LogTimeScaler(np.log(0.1), np.log(20.0)),
            head_params=init_head(spec) + 0.3 * rng.normal(size=head_size(spec)),
            extractor_params=init_params(spec.extractor, 5),
            train_nll=0.0, validation_nll=0.0,
        )
        n = 130
        assert n % CDF_GRID_CHUNK  # the last chunk is partial
        x = rng.normal(size=(n, 2))
        write_cdf_grid(model, SurvivalDataset([Observation.exact(1.0, row) for row in x]),
                       tmp_path / "grid.csv")

        grid = np.exp(np.linspace(model.scaler.a_lo, model.scaler.b_hi, CDF_GRID_POINTS))
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["subject", "time", "cdf"])
            for start in range(0, n, CDF_GRID_CHUNK):
                chunk = x[start : start + CDF_GRID_CHUNK]
                values = conditional_distribution(model, chunk).cdf(
                    np.broadcast_to(grid, (chunk.shape[0], CDF_GRID_POINTS))
                )
                for i, row in enumerate(values, start=start):
                    writer.writerows([i, repr(float(t)), repr(float(v))] for t, v in zip(grid, row))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.fixture
def training_csv(tmp_path):
    rng = np.random.default_rng(905)
    obs = []
    for _ in range(120):
        x = rng.uniform(-1.0, 1.0, size=2)
        t = max(float(rng.exponential(np.exp(0.3 * x[0]))), 1e-3)
        if rng.random() < 0.2:
            obs.append(Observation.right_censored(t, x))
        else:
            obs.append(Observation.exact(t, x))
    path = tmp_path / "train.csv"
    write_dataset_csv(SurvivalDataset(obs, feature_names=["age", "dose"]), str(path))
    return str(path)


@pytest.fixture
def spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "family": "minimum_extreme_value",
                "parameterization": "linear_shift",
                "epochs": 8,
                "seed": 3,
            }
        )
    )
    return str(path)


class TestFitCommand:
    def test_writes_artifacts(self, tmp_path, training_csv, spec_json):
        out = tmp_path / "run"
        assert main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        assert (out / "manifest.json").exists()
        log = (out / "training_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch")
        assert len(log) >= 2

    def test_manifest_captures_config(self, tmp_path, training_csv, spec_json):
        out = tmp_path / "run"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config"]["spec"]["seed"] == 3
        assert manifest["config"]["spec"]["family"] == "minimum_extreme_value"
        assert manifest["config"]["train"]["seed"] == 3

    def test_flag_overrides_config_file(self, tmp_path, training_csv, spec_json):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(out1)])
        main(
            ["fit", "--data", training_csv, "--spec", spec_json, "--seed", "9",
             "--out", str(out2)]
        )
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config"]["spec"]["seed"] == 3
        assert m2["config"]["spec"]["seed"] == 9
        assert (out1 / "model.json").read_bytes() != (out2 / "model.json").read_bytes()

    def test_deterministic_rerun(self, tmp_path, training_csv, spec_json):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(out1)])
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(out2)])
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "training_log.csv").read_bytes() == (out2 / "training_log.csv").read_bytes()

    def test_unknown_config_key(self, tmp_path, training_csv):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"famly": "logistic"}))
        out = tmp_path / "run"
        code = main(["fit", "--data", training_csv, "--spec", str(spec), "--out", str(out)])
        assert code == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "E_BAD_CONFIG"


class TestEvaluateCommand:
    def test_report_matches_recorded_train_nll(self, tmp_path, training_csv, spec_json):
        run = tmp_path / "run"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(run)])
        ev = tmp_path / "eval"
        code = main(
            ["evaluate", "--data", training_csv, "--model", str(run / "model.json"),
             "--out", str(ev)]
        )
        assert code == 0
        model = json.loads((run / "model.json").read_text())
        report = json.loads((ev / "report.json").read_text())
        assert abs(report["mean_nll"] - model["train_nll"]) < 1e-9
        scores = (ev / "scores.csv").read_text().splitlines()
        assert len(scores) == 120 + 1
        grid = (ev / "cdf_grid.csv").read_text().splitlines()
        assert len(grid) == 120 * 200 + 1

    def test_missing_model(self, tmp_path, training_csv):
        out = tmp_path / "ev"
        code = main(
            ["evaluate", "--data", training_csv, "--model", str(tmp_path / "no.json"),
             "--out", str(out)]
        )
        assert code == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "E_MODEL_NOT_FOUND"

    def test_success_clears_stale_error_record(self, tmp_path, training_csv, spec_json):
        run = tmp_path / "run"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(run)])
        ev = tmp_path / "eval"
        main(["evaluate", "--data", training_csv, "--model", "missing.json", "--out", str(ev)])
        assert (ev / "error.json").exists()
        main(
            ["evaluate", "--data", training_csv, "--model", str(run / "model.json"),
             "--out", str(ev)]
        )
        assert not (ev / "error.json").exists()


class TestSampleCommand:
    def test_writes_replicated_rows(self, tmp_path, training_csv, spec_json):
        run = tmp_path / "run"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(run)])
        out = tmp_path / "synth"
        code = main(
            ["sample", "--data", training_csv, "--model", str(run / "model.json"),
             "--replication", "10", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "synthetic.csv").read_text().splitlines()
        assert len(rows) == 120 * 10 + 1
        synth = parse_dataset_csv(str(out / "synthetic.csv"))
        assert synth.feature_names == ["age", "dose"]

    def test_sample_deterministic(self, tmp_path, training_csv, spec_json):
        run = tmp_path / "run"
        main(["fit", "--data", training_csv, "--spec", spec_json, "--out", str(run)])
        a, b = tmp_path / "s1", tmp_path / "s2"
        for out in (a, b):
            main(
                ["sample", "--data", training_csv, "--model", str(run / "model.json"),
                 "--replication", "2", "--seed", "5", "--out", str(out)]
            )
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()


class TestEnsembleCommand:
    def test_writes_members_and_selection(self, tmp_path, training_csv, spec_json):
        out = tmp_path / "ens"
        code = main(
            ["ensemble", "--data", training_csv, "--spec", spec_json,
             "--members", "4", "--top", "2", "--out", str(out)]
        )
        assert code == 0
        selection = json.loads((out / "selection.json").read_text())
        assert len(selection["selected_indices"]) == 2
        assert len(selection["pool_validation_nlls"]) == 4
        members = sorted(p.name for p in out.glob("member_*.json"))
        assert members == ["member_000.json", "member_001.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["n_subjects"] == 120
