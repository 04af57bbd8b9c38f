import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tramsurv.basis import LogTimeScaler
from tramsurv.cli import (
    CDF_GRID_CHUNK,
    CDF_GRID_POINTS,
    DATASET_WRITE_CHUNK,
    _SPEC_KEYS,
    build_model_spec,
    build_train_config,
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
    serialize_model,
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
        ds = SurvivalDataset.from_observations(obs, feature_names=["age", "dose"])
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
        ds = SurvivalDataset.from_observations(
            [Observation.exact(float(t), rng.normal(size=1)) for t in rng.uniform(0.1, 9.0, 6)]
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, str(p1))
        write_dataset_csv(parse_dataset_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def test_dataset_csv_bytes_match_csv_writer(tmp_path):
    """Repeated rows, interval rows, signed zeros, a chunk boundary and a quoted name."""
    rng = np.random.default_rng(905)
    n = DATASET_WRITE_CHUNK + 13
    subjects = rng.normal(size=(n // 10 + 2, 3))
    subjects[::7, 1] = 0.0
    subjects[1::7, 1] = -0.0
    x = np.repeat(subjects, 10, axis=0)[3 : n + 3]  # repeats straddle the chunk boundary
    x[-2:, 0] = [0.0, -0.0]
    kind = rng.integers(0, 4, size=n).astype(np.int8)
    t_lower = rng.uniform(0.1, 5.0, size=n)
    t_upper = np.where(kind == CensoringKind.RIGHT.code, np.inf, t_lower)
    t_upper = np.where(kind == CensoringKind.INTERVAL.code, 2.0 * t_lower, t_upper)
    names = ["age", 'dose, "mg"', "z"]
    write_dataset_csv(SurvivalDataset(x, t_lower, t_upper, kind, names), tmp_path / "data.csv")

    with open(tmp_path / "reference.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "time2", "status", *names])
        for t, t2, code, row in zip(t_lower, t_upper, kind, x):
            kind_ = list(CensoringKind)[code]
            time2 = repr(float(t2)) if kind_ == CensoringKind.INTERVAL else ""
            writer.writerow([repr(float(t)), time2, kind_.value, *(repr(float(v)) for v in row)])
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
        rows = [Observation.exact(1.0, row) for row in x]
        write_cdf_grid(conditional_distribution(model, x), SurvivalDataset.from_observations(rows),
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

    @pytest.mark.parametrize("n", [1, CDF_GRID_CHUNK - 1, CDF_GRID_CHUNK + 1])
    def test_extreme_values_match_csv_writer(self, tmp_path, n):
        spec = ModelSpec(
            family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
            extractor=ExtractorSpec(input_dim=2, hidden_dims=(), output_dim=2),
        )
        # h = a + f.w + m log t with m = 160 climbs about 850 over the grid: each
        # subject's CDF runs from 0.0 through subnormals and exponent notation to 1.0
        model = FittedModel(
            spec=spec, scaler=LogTimeScaler(np.log(0.1), np.log(20.0)),
            head_params=np.array([-432.0, 160.0, 1.0, -1.0]),
            extractor_params=init_params(spec.extractor, 3), train_nll=0.0, validation_nll=0.0,
        )
        x = np.random.default_rng(908).normal(size=(n, 2))
        dist = conditional_distribution(model, x)
        write_cdf_grid(dist, SurvivalDataset.from_observations(
            [Observation.exact(1.0, row) for row in x]), tmp_path / "grid.csv")

        grid = np.exp(np.linspace(model.scaler.a_lo, model.scaler.b_hi, CDF_GRID_POINTS))
        values = dist.cdf(np.broadcast_to(grid, (n, CDF_GRID_POINTS)))
        for row in values:
            assert np.any(row == 0.0) and np.any(row == 1.0)
            assert np.any((row > 0.0) & (row < np.finfo(float).smallest_normal))
            assert np.any((row >= np.finfo(float).smallest_normal) & (row < 1e-4))
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["subject", "time", "cdf"])
            for i, row in enumerate(values):
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
    dataset = SurvivalDataset.from_observations(obs, feature_names=["age", "dose"])
    write_dataset_csv(dataset, str(path))
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

    def test_one_row_fails_with_empty_validation_split(self, tmp_path, spec_json):
        data = tmp_path / "one.csv"
        data.write_text("time,status,a\n1.5,exact,0.3\n")
        out = tmp_path / "run"
        assert main(["fit", "--data", str(data), "--spec", spec_json, "--out", str(out)]) == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "E_EMPTY_DATASET"
        assert "validation split" in record["message"]
        assert not (out / "model.json").exists()
        ens = tmp_path / "ens"
        argv = ["ensemble", "--data", str(data), "--spec", spec_json,
                "--members", "2", "--top", "1", "--out", str(ens)]
        assert main(argv) == 0
        assert not (ens / "error.json").exists()


@pytest.mark.parametrize(
    "command, flags, spec_values",
    [
        ("fit", ["--epochs", "0"], {}),
        ("fit", ["--batch_size", "0"], {}),
        ("fit", ["--validation_fraction", "1.5"], {}),
        ("fit", ["--bernstein_order", "0"], {}),
        ("fit", [], {"epochs": "ten"}),
        ("fit", [], {"lr_head": "fast"}),
        ("fit", ["--seed", "-1"], {}),
        ("ensemble", ["--members", "2", "--top", "3"], {}),
        ("ensemble", ["--members", "2", "--top", "1", "--jobs", "0"], {}),
        ("sample", ["--replication", "0"], {}),
        ("fit", [], {"hidden_dims": [0]}),
        ("sample", ["--seed", str(2**128)], {}),
        ("fit", [], {"hidden_dims": "16"}),
        ("fit", [], {"hidden_dims": {"8": 1}}),
        ("fit", [], {"lr_head": True}),
    ],
    ids=["epochs", "batch_size", "validation_fraction", "bernstein_order", "epochs-text",
         "lr-text", "negative-seed", "top-above-members", "jobs-zero", "replication",
         "hidden-dims-zero", "seed-too-large", "hidden-dims-text", "hidden-dims-object",
         "lr-bool"],
)
def test_out_of_range_config_fails_with_code(
    tmp_path, training_csv, spec_json, command, flags, spec_values
):
    """Config values out of range or of the wrong type exit with E_BAD_CONFIG."""
    spec = tmp_path / "config.json"
    spec.write_text(json.dumps({**json.loads(Path(spec_json).read_text()), **spec_values}))
    if command == "sample":
        main(["fit", "--data", training_csv, "--spec", str(spec), "--out", str(tmp_path / "run")])
        inputs = ["--model", str(tmp_path / "run" / "model.json")]
    else:
        inputs = ["--spec", str(spec)]
    out = tmp_path / "out"
    assert main([command, "--data", training_csv, *inputs, *flags, "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text())["error"] == "E_BAD_CONFIG"


@pytest.mark.parametrize("command", ["fit", "ensemble"])
@pytest.mark.parametrize(
    "flags, spec_text",
    [
        ([], '"epochs": Infinity'),
        ([], '"seed": 1e400'),
        ([], '"hidden_dims": [Infinity]'),
        ([], '"init_scale": Infinity'),
        ([], '"lr_extractor": NaN'),
        (["--init_scale", "nan"], None),
        (["--lr_head", "inf"], None),
    ],
    ids=["epochs-inf", "seed-overflow", "hidden-dims-inf", "init-scale-inf", "lr-nan",
         "init-scale-flag-nan", "lr-head-flag-inf"],
)
def test_non_finite_config_fails_before_the_manifest(
    tmp_path, training_csv, spec_json, command, flags, spec_text
):
    """Non-finite or overflowing spec values, in the JSON file or as flags, exit with
    E_BAD_CONFIG and leave no manifest behind."""
    spec = tmp_path / "config.json"
    text = Path(spec_json).read_text()
    if spec_text is not None:
        text = text.rstrip().rstrip("}") + ", " + spec_text + "}"
    spec.write_text(text)
    out = tmp_path / "out"
    extra = ["--members", "2", "--top", "1"] if command == "ensemble" else []
    argv = [command, "--data", training_csv, "--spec", str(spec), *extra, *flags,
            "--out", str(out)]
    assert main(argv) == 1
    assert json.loads((out / "error.json").read_text())["error"] == "E_BAD_CONFIG"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["fit", "ensemble"])
@pytest.mark.parametrize(
    "spec_values",
    [
        {"epochs": 2.7},
        {"batch_size": 40.9},
        {"seed": 1.5},
        {"bernstein_order": 2.5},
        {"early_stopping_patience": 3.5},
        {"hidden_dims": [32.5]},
        {"epochs": True},
    ],
    ids=["epochs", "batch_size", "seed", "bernstein_order", "patience", "hidden_dims",
         "epochs-bool"],
)
def test_fractional_integer_setting_fails_before_the_manifest(
    tmp_path, training_csv, spec_json, command, spec_values
):
    """An integer setting given a fraction or a bool is rejected, never truncated."""
    spec = tmp_path / "config.json"
    spec.write_text(json.dumps({**json.loads(Path(spec_json).read_text()), **spec_values}))
    out = tmp_path / "out"
    extra = ["--members", "2", "--top", "1"] if command == "ensemble" else []
    argv = [command, "--data", training_csv, "--spec", str(spec), *extra, "--out", str(out)]
    assert main(argv) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "E_BAD_CONFIG"
    assert repr(next(iter(spec_values))) in record["message"]
    assert not (out / "manifest.json").exists()


# A value for each spec key that differs from its default.
_SPEC_VALUES = {
    "family": "logistic", "parameterization": "bernstein_shift", "bernstein_order": 3,
    "hidden_dims": [4], "activation": "relu", "init_scale": 0.5, "lr_extractor": 0.05,
    "lr_head": 0.5, "epochs": 7, "batch_size": 16, "early_stopping_patience": 3,
    "validation_fraction": 0.3, "seed": 9,
}


@pytest.mark.parametrize("key", _SPEC_KEYS)
def test_every_spec_key_reaches_the_model_or_its_training(key):
    """No spec key is dropped: each changes the built ModelSpec or TrainConfig."""

    def built(config):
        spec = build_model_spec(config, 2)
        return spec, build_train_config(config, spec)

    base = {"family": "minimum_extreme_value", "parameterization": "linear_shift"}
    assert built({**base, key: _SPEC_VALUES[key]}) != built(base)


def test_integral_float_setting_is_read_as_an_integer(tmp_path, training_csv, spec_json):
    spec = tmp_path / "config.json"
    spec.write_text(json.dumps({**json.loads(Path(spec_json).read_text()),
                                "epochs": 2.0, "batch_size": 40.0}))
    out = tmp_path / "out"
    assert main(["fit", "--data", training_csv, "--spec", str(spec), "--out", str(out)]) == 0
    train = json.loads((out / "manifest.json").read_text())["config"]["train"]
    assert (train["epochs"], train["batch_size"]) == (2, 40)
    assert len((out / "training_log.csv").read_text().splitlines()) == 3


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


@pytest.mark.parametrize("command", ["evaluate", "sample"])
def test_model_without_its_extractor_fails_with_code(tmp_path, training_csv, command):
    """A non-baseline artifact with a null extractor and a matching head size, and
    one with its extractor but a head parameter more than its spec lays out."""
    spec = ModelSpec(
        family=TargetFamily.MEV, parameterization=Parameterization.LINEAR_SHIFT,
        extractor=ExtractorSpec(input_dim=2, output_dim=2),
    )
    model = FittedModel(
        spec=spec, scaler=LogTimeScaler(-3.0, 2.0), head_params=init_head(spec),
        extractor_params=init_params(spec.extractor, 1), train_nll=0.0, validation_nll=0.0,
    )
    no_extractor = json.loads(serialize_model(model))
    no_extractor["spec"]["extractor"] = None
    no_extractor["head_params"] = no_extractor["head_params"][:2]
    no_extractor["extractor_params"] = []
    long_head = json.loads(serialize_model(model))
    long_head["head_params"].append(0.0)
    for name, doc in (("no_extractor", no_extractor), ("long_head", long_head)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / name
        code = main([command, "--data", training_csv, "--model", str(tmp_path / f"{name}.json"),
                     "--out", str(out)])
        assert code == 1, name
        assert json.loads((out / "error.json").read_text())["error"] == "E_DIMENSION_MISMATCH"


@pytest.mark.parametrize(
    "bad_row", ["", "2.0,,exact,0.1", "2.0,,exact,0.1,0.2,5"],
    ids=["blank-line", "short-row", "long-row"],
)
def test_incomplete_row_fails_with_code(tmp_path, training_csv, bad_row):
    """A row with fewer or more cells than the header is reported with its line."""
    lines = open(training_csv).read().splitlines()
    lines.insert(3, bad_row)  # line 4 of the file
    data = tmp_path / "incomplete.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["evaluate", "--data", str(data), "--model", str(tmp_path / "model.json"),
                 "--out", str(out)])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "E_MISSING_COLUMN"
    assert "line 4:" in record["message"]


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
