"""The four benchmark workloads: fixtures, CLI commands and output checks.

Each workload builds its fixtures (and any pre-fitted model) in set-up, then
repeats a fixed list of ``tramsurv`` commands, one at a time, through
``tramsurv.cli.main``.  One command per workload is primary: its wall time and
the work it completed give the throughput.  A failed command adds no work and
no time to any throughput.

``tiny=True`` shrinks every size for the self-test.
"""

from dataclasses import dataclass, field
import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

import fixtures

JOBS = os.cpu_count() or 1


@dataclass
class Command:
    """One CLI invocation of a workload iteration."""

    kind: str
    argv: list
    out: Path
    primary: bool
    # Work units one successful run completes, read from its outputs.
    work: object = None


@dataclass
class Outcome:
    """What a command did: exit status, error code, raw and scaled wall time, hashes."""

    status: int
    error: str | None
    raw_s: float
    scaled_s: float
    digests: dict = field(default_factory=dict)


def _write_spec(path, **config):
    Path(path).write_text(json.dumps(config, sort_keys=True) + "\n")


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _read_rows(path) -> tuple[list, list]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def check_model(path) -> list[str]:
    from tramsurv.core import deserialize_model

    model = deserialize_model(Path(path).read_bytes())
    values = np.concatenate([model.head_params, model.extractor_params])
    if not np.all(np.isfinite(values)) or not math.isfinite(model.train_nll):
        return [f"{path}: non-finite parameters or train_nll"]
    return []


def check_report(path, n: int) -> tuple[list[str], dict]:
    doc = json.loads(Path(path).read_text())
    problems = []
    if not _finite_json(doc):
        problems.append(f"{path}: non-finite number")
    if doc["n_subjects"] != n or len(doc["per_subject"]) != n:
        problems.append(f"{path}: expected {n} subjects")
    if any(s["crps"] < 0.0 for s in doc["per_subject"]):
        problems.append(f"{path}: negative CRPS")
    if doc["c_index"] is not None and not 0.0 <= doc["c_index"] <= 1.0:
        problems.append(f"{path}: c-index {doc['c_index']} outside [0, 1]")
    return problems, {"c_index_pairs": doc["n_comparable_pairs"]}


def check_scores(path, n: int) -> list[str]:
    """Row count and finiteness, one row at a time (the checker holds no table)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = 0
        for row in reader:
            rows += 1
            if not all(math.isfinite(float(v)) for v in row[1:]):
                return [f"{path}: non-finite value in row {rows}"]
    if rows != n:
        return [f"{path}: expected {n} rows, got {rows}"]
    return []


def check_cdf_grid(path, n: int, points: int) -> list[str]:
    """Row count, [0, 1] bounds and per-subject monotonicity, streamed row by row."""
    rows = 0
    times: list[float] = []
    previous = -math.inf
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            subject, j = divmod(rows, points)
            rows += 1
            t, cdf = float(row[1]), float(row[2])
            if int(row[0]) != subject:
                return [f"{path}: row {rows} belongs to subject {row[0]}, expected {subject}"]
            if not (math.isfinite(cdf) and 0.0 <= cdf <= 1.0):
                return [f"{path}: CDF value {cdf} outside [0, 1] in row {rows}"]
            if subject == 0:
                if times and not t > times[-1]:
                    return [f"{path}: time grid not increasing"]
                times.append(t)
            elif t != times[j]:
                return [f"{path}: subject {subject} has a different time grid"]
            if j > 0 and cdf < previous - 1e-12:
                return [f"{path}: CDF of subject {subject} not increasing"]
            previous = cdf
    if rows != points * n:
        return [f"{path}: expected {points * n} rows, got {rows}"]
    return []


def evaluate_checks(out: Path, n: int) -> tuple[list[str], dict]:
    from tramsurv.cli import CDF_GRID_POINTS

    problems, facts = check_report(out / "report.json", n)
    problems += check_scores(out / "scores.csv", n)
    problems += check_cdf_grid(out / "cdf_grid.csv", n, CDF_GRID_POINTS)
    return problems, facts


def mean_log_score(model_path, data_path) -> float:
    """Mean public ``log_score`` of a model on a dataset (outside any timing)."""
    from tramsurv.cli import parse_dataset_csv
    from tramsurv.core import deserialize_model
    from tramsurv.metrics import log_score
    from tramsurv.transform import conditional_distribution

    model = deserialize_model(Path(model_path).read_bytes())
    dataset = parse_dataset_csv(data_path)
    return float(np.mean([
        log_score(conditional_distribution(model, obs.covariates), obs)
        for obs in dataset.observations
    ]))


class Workload:
    """Base: fixtures in ``setup``, commands per iteration, checks per command."""

    name = ""
    why = ""
    work_unit = ""
    named_metric = ""

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.params: dict = {}

    def fit_argv(self, data, spec, out):
        return ["fit", "--data", str(data), "--spec", str(spec), "--out", str(out)]

    def prefit(self, data, spec, out):
        """Fit a model during set-up through the same CLI path users take.

        The fit runs in a forked process, so its memory stays out of this
        process's peak RSS, which is meant to measure the timed commands.
        """
        import multiprocessing
        import sys

        from tramsurv.cli import main

        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(main(self.fit_argv(data, spec, out))))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"set-up fit of {self.name} failed; see {out}/error.json")


class Train(Workload):
    name = "train"
    why = (
        "SGD fit of bernstein_shift_scale/MEV, 8k rows, p=16, 20 epochs, then a held-out "
        "evaluate on wide-range rows; stresses fit, basis, transform, feature; no bisection"
    )
    work_unit = "rows*epochs"
    named_metric = "fit_obs_epochs_per_s"

    def setup(self):
        n, n_out = (300, 40) if self.tiny else (8000, 1000)
        self.data, self.heldout = self.root / "train.csv", self.root / "heldout.csv"
        self.spec = self.root / "spec.json"
        fit_rows = fixtures.make(self.data, self.seed, 1, 0, n, 16, 0.7, 1.0)
        held = fixtures.make(self.heldout, self.seed, 1, 1, n_out, 16, 0.7, 1.0)
        epochs = 3 if self.tiny else 20
        _write_spec(self.spec, family="minimum_extreme_value",
                    parameterization="bernstein_shift_scale", hidden_dims=[32],
                    epochs=epochs, early_stopping_patience=epochs, seed=self.seed)
        self.params = {"fit_rows": fit_rows, "heldout_rows": held, "epochs": epochs}

    def commands(self):
        fit_out, eval_out = self.root / "fit", self.root / "heldout_eval"
        n = self.params["fit_rows"]["n"]
        # fit() holds out round(0.2 n) rows for validation by default.
        train_rows = n - min(max(int(round(0.2 * n)), 1), n - 1)

        def work(out):
            _, rows = _read_rows(out / "training_log.csv")
            return train_rows * len(rows)

        return [
            Command("fit", self.fit_argv(self.data, self.spec, fit_out), fit_out, True, work),
            # Wide-range held-out rows: CRPS quadrature may not converge here,
            # and such a failure is counted, not avoided.
            Command("evaluate", ["evaluate", "--data", str(self.heldout), "--model",
                                 str(fit_out / "model.json"), "--out", str(eval_out)],
                    eval_out, False),
        ]

    def check(self, cmd):
        if cmd.kind == "fit":
            problems = check_model(cmd.out / "model.json")
            _, rows = _read_rows(cmd.out / "training_log.csv")
            if not rows or not all(math.isfinite(float(v)) for row in rows for v in row):
                problems.append("training_log.csv: empty or non-finite")
            return problems, {}
        return evaluate_checks(cmd.out, self.params["heldout_rows"]["n"])

    def quality(self):
        return mean_log_score(self.root / "fit" / "model.json", self.heldout)

    def crps_failures(self) -> tuple[int, int]:
        """Public ``crps`` on every held-out subject: (failed, attempted)."""
        from tramsurv.cli import parse_dataset_csv
        from tramsurv.core import deserialize_model
        from tramsurv.errors import TramsurvError
        from tramsurv.metrics import crps
        from tramsurv.transform import conditional_distribution

        model = deserialize_model((self.root / "fit" / "model.json").read_bytes())
        dataset = parse_dataset_csv(self.heldout)
        t_max = max(math.exp(model.scaler.b_hi), float(np.max(dataset.times_lower())))
        failed = 0
        for obs in dataset.observations:
            try:
                crps(conditional_distribution(model, obs.covariates),
                     obs.time_lower, bool(obs.event), t_max)
            except TramsurvError:
                failed += 1
        return failed, dataset.n


class Score(Workload):
    name = "score"
    why = (
        "evaluate a pre-fitted linear_shift logistic model on 600 narrow-range rows with "
        "Weibull shape 3 times on a 1-day tie grid; quantile bisection, CRPS, c-index, CDF grid"
    )
    work_unit = "subjects"
    named_metric = "evaluate_subjects_per_s"

    def setup(self):
        n_fit, n = (200, 60) if self.tiny else (2000, 600)
        data, self.scored = self.root / "fit.csv", self.root / "scored.csv"
        spec = self.root / "spec.json"
        fit_rows = fixtures.make(data, self.seed, 2, 0, n_fit, 8, 3.0, 0.25, 1.0)
        scored = fixtures.make(self.scored, self.seed, 2, 1, n, 8, 3.0, 0.25, 1.0)
        _write_spec(spec, family="logistic", parameterization="linear_shift",
                    epochs=3 if self.tiny else 20, seed=self.seed)
        self.model = self.root / "model"
        self.prefit(data, spec, self.model)
        self.params = {"fit_rows": fit_rows, "scored_rows": scored}

    def commands(self):
        out = self.root / "eval"
        n = self.params["scored_rows"]["n"]
        return [Command("evaluate", ["evaluate", "--data", str(self.scored), "--model",
                                     str(self.model / "model.json"), "--out", str(out)],
                        out, True, lambda _out: n)]

    def check(self, cmd):
        return evaluate_checks(cmd.out, self.params["scored_rows"]["n"])

    def quality(self):
        return json.loads((self.root / "eval" / "report.json").read_text())["mean_nll"]


class Simulate(Workload):
    name = "simulate"
    why = (
        "sample 400 subjects x 10 draws from a pre-fitted bernstein_flexible logistic model; "
        "quantile bisection on the Bernstein basis, Philox uniforms, CSV writing; no quadrature"
    )
    work_unit = "draws"
    named_metric = "sample_draws_per_s"
    replication = 10

    def setup(self):
        n = 50 if self.tiny else 400
        self.data = self.root / "data.csv"
        spec = self.root / "spec.json"
        rows = fixtures.make(self.data, self.seed, 3, 0, n, 8, 1.5, 0.5)
        _write_spec(spec, family="logistic", parameterization="bernstein_flexible",
                    epochs=3 if self.tiny else 20, seed=self.seed)
        self.model = self.root / "model"
        self.prefit(self.data, spec, self.model)
        self.params = {"rows": rows, "replication": self.replication}

    def commands(self):
        out = self.root / "sample"
        draws = self.params["rows"]["n"] * self.replication
        argv = ["sample", "--data", str(self.data), "--model", str(self.model / "model.json"),
                "--replication", str(self.replication), "--seed", str(self.seed),
                "--out", str(out)]
        return [Command("sample", argv, out, True, lambda _out: draws)]

    def _synthetic(self):
        _, rows = _read_rows(self.root / "sample" / "synthetic.csv")
        _, source = _read_rows(self.data)
        return rows, source

    def check(self, cmd):
        """Row count, times, censoring and covariates, streamed row by row."""
        _, source = _read_rows(self.data)
        covariates = [[float(v) for v in row[3:]] for row in source]
        t_cap = max(float(row[0]) for row in source)
        n, rep = len(source), self.replication
        rows = 0
        with open(cmd.out / "synthetic.csv", newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for i, row in enumerate(reader):
                rows += 1
                t = float(row[0])
                if not (math.isfinite(t) and 0.0 < t <= t_cap):
                    return [f"synthetic.csv: row {i} time {t} not in (0, max observed time]"], {}
                if row[2] not in ("exact", "right") or (row[2] == "right" and t != t_cap):
                    return [f"synthetic.csv: row {i} has a bad status or censoring time"], {}
                if i // rep >= n or [float(v) for v in row[3:]] != covariates[i // rep]:
                    return [f"synthetic.csv: row {i} covariates differ from subject {i // rep}"], {}
        if rows != n * rep:
            return [f"synthetic.csv: expected {n * rep} rows, got {rows}"], {}
        return [], {}

    def quality(self):
        """Mean NLL of the drawn rows under the generating model."""
        from tramsurv.core import deserialize_model
        from tramsurv.transform import conditional_distribution

        model = deserialize_model((self.model / "model.json").read_bytes())
        rows, source = self._synthetic()
        rep = self.replication
        total = 0.0
        for i, src in enumerate(source):
            dist = conditional_distribution(model, np.array([float(v) for v in src[3:]]))
            block = rows[i * rep:(i + 1) * rep]
            exact = np.array([float(r[0]) for r in block if r[2] == "exact"])
            right = np.array([float(r[0]) for r in block if r[2] == "right"])
            total -= float(np.sum(dist.log_pdf(exact))) + float(np.sum(dist.log_survivor(right)))
        return total / len(rows)


class Ensemble(Workload):
    name = "ensemble"
    why = (
        "bootstrap ensemble of linear_shift logistic models, 200 narrow-range rows, 80 epochs, "
        "6 members, top 3, --jobs nproc; the process pool and the mixture distribution"
    )
    work_unit = "members"
    named_metric = "ensemble_s"
    members, top = 6, 3

    def setup(self):
        n = 80 if self.tiny else 200
        self.data, self.spec = self.root / "data.csv", self.root / "spec.json"
        rows = fixtures.make(self.data, self.seed, 4, 0, n, 8, 3.0, 0.25)
        epochs = 3 if self.tiny else 80
        _write_spec(self.spec, family="logistic", parameterization="linear_shift",
                    epochs=epochs, early_stopping_patience=epochs, seed=self.seed)
        self.params = {"rows": rows, "members": self.members, "top": self.top, "jobs": JOBS}

    def commands(self):
        out = self.root / "ensemble"
        argv = ["ensemble", "--data", str(self.data), "--spec", str(self.spec),
                "--members", str(self.members), "--top", str(self.top),
                "--jobs", str(JOBS), "--out", str(out)]
        return [Command("ensemble", argv, out, True, lambda _out: self.members)]

    def check(self, cmd):
        doc = json.loads((cmd.out / "selection.json").read_text())
        problems = []
        selected, pool = doc["selected_indices"], doc["pool_validation_nlls"]
        if (len(selected) != self.top or len(set(selected)) != self.top
                or len(pool) != self.members
                or doc["selected_validation_nlls"] != sorted(doc["selected_validation_nlls"])
                or doc["selected_validation_nlls"] != [pool[i] for i in selected]
                or min(pool) != doc["selected_validation_nlls"][0]):
            problems.append("selection.json: selection is not the top members by validation NLL")
        for member in doc["members"]:
            problems += check_model(cmd.out / member)
        report_problems, facts = check_report(cmd.out / "report.json", self.params["rows"]["n"])
        return problems + report_problems, facts

    def quality(self):
        return json.loads((self.root / "ensemble" / "report.json").read_text())["mean_nll"]

    def speedup(self) -> tuple[float, float, int]:
        """``fit_ensemble`` wall time at one job and at nproc jobs, plus task bytes."""
        import pickle
        import time

        from tramsurv import cli
        from tramsurv.basis import fit_scaler
        from tramsurv.fit import fit_ensemble

        dataset = cli.parse_dataset_csv(self.data)
        config = cli.load_spec_config(self.spec, {})
        spec = cli.build_model_spec(config, dataset.p)
        train = cli.build_train_config(config, spec)
        seconds = []
        for jobs in (1, JOBS):
            start = time.perf_counter()
            fit_ensemble(dataset, spec, train, n_members=self.members, top_m=self.top, jobs=jobs)
            seconds.append(time.perf_counter() - start)
        # Computed, not measured: each pool task pickles the dataset, spec,
        # config and scaler.
        task = pickle.dumps((dataset, spec, train, fit_scaler(dataset), 0))
        return seconds[0], seconds[1], len(task) * self.members


WORKLOADS = {w.name: w for w in (Train, Score, Simulate, Ensemble)}


def digest_dir(path: Path) -> dict:
    """SHA-256 of every file a command left in its output directory."""
    digests = {}
    for p in sorted(path.iterdir()):
        if p.is_file():
            with open(p, "rb") as handle:
                digests[p.name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests
