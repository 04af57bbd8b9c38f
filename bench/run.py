"""Benchmark of the ``tramsurv`` command line on four seeded workloads.

    python3 bench/run.py --workload train --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --self-test

Load is a closed loop in one process: one CLI command at a time through
``tramsurv.cli.main``, the next starting after the previous returns.  The
only concurrency is the ensemble's own worker pool (``--jobs`` = nproc).
BLAS runs one thread per process on every workload.

With ``--trace 0`` the run sets up the workload several times, repeats its
commands for ``--seconds``, checks every output and prints the end-to-end
metrics.  ``setup_s`` is the median time to import ``tramsurv.cli`` in a fresh
interpreter plus the median time to build the fixtures and any pre-fitted
model.  The imports run after peak RSS is read, so their processes are not
counted in it.  With ``--trace 1`` it wraps each layer's public functions (see
``spans.py``), runs the commands for half the time, restores the wrappers,
runs them untraced for the other half and prints the per-layer metrics,
normalised to one workload iteration.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Full results, the machine block and the spans go to ``.bench_out/``.

Times in the end-to-end metrics are scaled to a nominal machine speed.  On a
shared host the same command can run a third slower for minutes at a time,
which no statistic over one run removes.  So every timed operation is
bracketed by a fixed reference kernel, and its wall time is multiplied by
``REF_NOMINAL_S`` over the kernel's mean duration around it.  The kernel is
benchmark code that no change to ``src/`` affects.  The same metrics computed
from raw wall times are kept next to the scaled ones in ``.bench_out/``
(``raw_metrics``); ``baseline.json`` compares the spread of both.
"""

import argparse
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
MIN_ITERATIONS = 2
# Duration of reference_s() on an idle 2-vCPU x86-64 VM (numpy 2.4, Python 3.11).
REF_NOMINAL_S = 0.065


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["train", "score", "simulate", "ensemble"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the emitted metrics")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def reference_s() -> float:
    """Wall time of a fixed kernel shaped like the program's own work.

    Small numpy calls (interpreter-bound), a 64x16 by 16x32 matrix product
    with tanh (the extractor's batch shape), 8192-node vector maths (a CRPS
    grid) and float formatting and parsing (the CSV paths).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = np.linspace(0.1, 2.0, 200)
    grid = np.linspace(1e-3, 5.0, 8193)
    a, w = rng.normal(size=(64, 16)), rng.normal(size=(16, 32))
    total = 0.0
    start = time.perf_counter()
    for i in range(2000):
        total += float((np.log(small) * 1.5 + np.exp(-small)).sum())
        total += float(np.tanh(a @ w).sum())
        if i % 8 == 0:
            total += float(np.square(1.0 - np.exp(-grid)).sum())
        total += sum(float(repr(v)) for v in small[:20].tolist())
    return time.perf_counter() - start


class SpeedScale:
    """Times operations and scales them by the reference kernel run around them."""

    def __init__(self):
        self.last_ref = reference_s()

    def scale(self, raw_s: float, ref_before: float) -> float:
        return raw_s * REF_NOMINAL_S / (0.5 * (ref_before + self.last_ref))

    def time(self, fn):
        """Run ``fn()``; returns its result, raw seconds and scaled seconds."""
        before = self.last_ref
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.last_ref = reference_s()
        return result, raw, self.scale(raw, before)


def machine_block() -> dict:
    import multiprocessing
    import platform

    import numpy as np

    from workloads import JOBS

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "start_method": multiprocessing.get_context().get_start_method(),
        "jobs": JOBS,
        "ref_nominal_s": REF_NOMINAL_S,
    }


def peak_rss_mb(with_workers: bool) -> float:
    """Peak RSS of this process, plus that of its largest worker if asked (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if with_workers else 0
    return (own + workers) / 1024.0


def import_runs(clock: SpeedScale) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds to import ``tramsurv.cli``, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import tramsurv.cli; print(time.perf_counter() - start)")
    raw, scaled = [], []
    for _ in range(IMPORT_REPEATS):
        before = clock.last_ref
        done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=60)
        clock.last_ref = reference_s()
        raw.append(float(done.stdout))
        scaled.append(clock.scale(raw[-1], before))
    return raw, scaled


def clear_dir(path: Path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def run_command(cmd, clock: SpeedScale):
    """Run one CLI command; a failure is recorded, never raised."""
    from tramsurv import cli
    from workloads import Outcome, digest_dir

    def call():
        try:
            return cli.main(cmd.argv)
        except (Exception, SystemExit):
            # Anything but a clean nonzero exit is a crash of the program.
            traceback.print_exc()
            return None

    clear_dir(cmd.out)
    status, raw, scaled = clock.time(call)
    if status is None:
        return Outcome(-1, "CRASH", raw, scaled)
    error = None
    if status != 0:
        try:
            error = json.loads((cmd.out / "error.json").read_text())["error"]
        except (OSError, ValueError, KeyError):
            error = "NO_ERROR_JSON"
    return Outcome(status, error, raw, scaled, digest_dir(cmd.out))


class Loop:
    """Repeats a workload's commands and keeps the record the metrics need."""

    def __init__(self, workload, clock: SpeedScale):
        self.workload = workload
        self.clock = clock
        self.commands = workload.commands()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict = {}
        self.first_digests: dict = {}
        self.primary_raw_s: list[float] = []
        self.primary_s: list[float] = []
        self.primary_rates: list[float] = []

    def run(self, seconds: float, min_iterations: int) -> int:
        """Whole iterations until ``seconds`` have passed; returns how many ran."""
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_iterations or time.perf_counter() < deadline:
            for i, cmd in enumerate(self.commands):
                self.record(i, cmd, run_command(cmd, self.clock))
            done += 1
        return done

    def record(self, i, cmd, outcome):
        self.attempted += 1
        if outcome.status != 0:
            self.failed += 1
            if outcome.status != 1 or not outcome.error.startswith("E_"):
                self.problems.append(f"{cmd.kind}: unclean failure {outcome.error}")
        # Repeats of a command on the same inputs must leave identical bytes.
        if i not in self.first_digests:
            self.first_digests[i] = outcome.digests
            if outcome.status == 0:
                problems, facts = self.workload.check(cmd)
                self.problems += problems
                self.facts.update(facts)
        elif outcome.digests != self.first_digests[i]:
            self.problems.append(f"{cmd.kind}: outputs differ between repeats")
        # A failed command adds neither work nor time to the throughput.
        if cmd.primary and outcome.status == 0:
            self.primary_raw_s.append(outcome.raw_s)
            self.primary_s.append(outcome.scaled_s)
            self.primary_rates.append(cmd.work(cmd.out) / outcome.scaled_s)


def setup_workload(cls, root: Path, seed: int, tiny: bool, repeats: int, clock: SpeedScale):
    """Build fixtures ``repeats`` times; returns the workload and raw and scaled seconds."""
    raw, scaled = [], []
    for _ in range(repeats):
        clear_dir(root)
        workload = cls(root, seed, tiny)
        _, raw_s, scaled_s = clock.time(workload.setup)
        raw.append(raw_s)
        scaled.append(scaled_s)
    return workload, raw, scaled


def end_to_end(rates: list[float], setup_s: float, peak_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_mb,
    }


def named_metrics(workload, loop: Loop, metrics: dict, nll: float) -> dict:
    """The workload's metrics under their user-facing names, with units."""
    named = {"setup_s": (metrics["setup_s"], "s"),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "ops_failed_frac": (loop.failed / loop.attempted, "ratio")}
    if workload.name == "ensemble":
        seconds = statistics.median(loop.primary_s) if loop.primary_s else 0.0
        named["ensemble_s"] = (seconds, "s")
    else:
        named[workload.named_metric] = (metrics["throughput_per_s"], f"{workload.work_unit}/s")
    named["heldout_nll" if workload.name == "train" else "mean_nll"] = (nll, "nats")
    return named


def per_layer(tracer, loop: Loop, iterations: int, traced_s, untraced_s, probes) -> dict:
    """Per-layer metrics of the traced iterations, normalised to one iteration."""
    from spans import LAYERS

    incl, calls, layer_self = tracer.totals()
    counts = tracer.counts

    def per_iter(value):
        return value / iterations

    def t(name):
        return per_iter(incl.get(name, 0.0))

    def c(name):
        return per_iter(calls.get(name, 0))

    m = {f"{layer}.self_s": per_iter(layer_self[layer]) for layer in LAYERS}
    train_row_epochs = counts["fit.train_row_epochs"]
    epochs = tracer.epoch_s
    crps_calls = calls.get("metrics.crps", 0)
    crps_failed, crps_tried = probes.get(
        "crps", (crps_calls - counts["metrics.crps_ok"], crps_calls))
    slow, fast, task_bytes = probes.get("ensemble", (0.0, 0.0, 0))
    m.update({
        "basis.calls": c("basis.bernstein_vectors"),
        "basis.rows": per_iter(counts["basis.rows"]),
        "basis.s": t("basis.bernstein_vectors"),
        "basis.rows_per_train_row_epoch":
            counts["basis.rows_in_fit"] / train_row_epochs if train_row_epochs else 0.0,
        "transform.eval_calls": c("transform.eval_transform"),
        "transform.eval_s": t("transform.eval_transform"),
        "transform.grad_s": t("transform.grad_transform"),
        "transform.rows": per_iter(counts["transform.rows"]),
        "feature.forward_s": t("feature.forward"),
        "feature.backward_s": t("feature.backward"),
        "feature.rows": per_iter(counts["feature.rows"]),
        "fit.fit_s": t("fit.fit"),
        "fit.epochs_run": per_iter(counts["fit.epochs_run"]),
        "fit.epoch_s_median": statistics.median(epochs) if epochs else 0.0,
        "fit.epoch_s_p90": statistics.quantiles(epochs, n=10)[-1] if len(epochs) > 1 else 0.0,
        "fit.clipped_steps": per_iter(counts["fit.clipped_steps"]),
        "cli.parse_dataset_csv_s": t("cli.parse_dataset_csv"),
        "core.validate_dataset_s": t("core.validate_dataset"),
        "core.serialize_model_s": t("core.serialize_model"),
        "core.deserialize_model_s": t("core.deserialize_model"),
        "transform.conditional_distribution_calls": c("transform.conditional_distribution"),
        "transform.quantile_calls": c("transform.quantile"),
        "transform.quantile_s": t("transform.quantile"),
        "transform.bisect_evals": c("transform.transform_at_log_time"),
        "transform.bisect_rows": per_iter(counts["transform.bisect_rows"]),
        "quadrature.simpson_calls": c("quadrature.simpson"),
        "quadrature.nodes_evaluated": per_iter(counts["quadrature.nodes_evaluated"]),
        "quadrature.max_panels": tracer.maxima["quadrature.max_panels"],
        "quadrature.s": t("quadrature.simpson_doubling"),
        "metrics.crps_calls": c("metrics.crps"),
        "metrics.crps_s": t("metrics.crps"),
        "metrics.crps_failed_frac": crps_failed / crps_tried if crps_tried else 0.0,
        "metrics.log_score_s": t("metrics.log_score"),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "metrics.c_index_s": t("metrics.c_index"),
        "metrics.c_index_pairs": loop.facts.get("c_index_pairs", 0),
        "cli.write_cdf_grid_s": t("cli.write_cdf_grid"),
        "cli.cdf_grid_rows": per_iter(counts["cli.cdf_grid_rows"]),
        "cli.write_dataset_csv_s": t("cli.write_dataset_csv"),
        "sample.generate_s": t("sample.generate_semisynthetic"),
        "sample.draws": per_iter(counts["sample.draws"]),
        "fit.ensemble_fit_s": t("fit.fit_ensemble"),
        "fit.ensemble_speedup": slow / fast if fast else 0.0,
        "fit.ensemble_task_bytes": task_bytes,
        "trace.overhead_frac": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            if traced_s and untraced_s else 0.0),
        "ops_failed_frac": loop.failed / loop.attempted,
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 clock: SpeedScale, tiny: bool = False) -> dict:
    """Set up, run and check one workload; returns the result record."""
    import spans
    from workloads import WORKLOADS

    root = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        workload, setup_raw, setup_times = setup_workload(
            WORKLOADS[name], root, seed, tiny, 1 if trace else SETUP_REPEATS, clock)
        loop = Loop(workload, clock)
        absent = []
        import_raw, import_times = [], []
        raw_metrics = {}
        if not trace:
            iterations = loop.run(seconds, MIN_ITERATIONS)
            peak_mb = peak_rss_mb(with_workers=name == "ensemble")
            import_raw, import_times = import_runs(clock)
            metrics = end_to_end(loop.primary_rates, statistics.median(import_times)
                                 + statistics.median(setup_times), peak_mb)
            raw_rates = [rate * scaled / raw for rate, scaled, raw
                         in zip(loop.primary_rates, loop.primary_s, loop.primary_raw_s)]
            raw_metrics = end_to_end(raw_rates, statistics.median(import_raw)
                                     + statistics.median(setup_raw), peak_mb)
            named = named_metrics(workload, loop, metrics, workload.quality())
        else:
            tracer = spans.Tracer()
            spans.install(tracer)
            tracer.enabled = True
            try:
                iterations = loop.run(seconds / 2, 1)
            finally:
                tracer.enabled = False
                broken = tracer.restore()
            loop.problems += [f"wrapper not restored: {b}" for b in broken]
            absent = tracer.absent
            traced_s = list(loop.primary_s)
            probes = {}
            if name == "train":
                probes["crps"] = workload.crps_failures()
            if name == "ensemble":
                probes["ensemble"] = workload.speedup()
            loop.run(seconds / 2, 1)
            untraced_s = loop.primary_s[len(traced_s):]
            metrics = per_layer(tracer, loop, iterations, traced_s, untraced_s, probes)
            metrics["quality.nll_nats"] = workload.quality()
            named = {}
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"{name}-spans.npz")
        return {
            "workload": name, "seed": seed, "trace": int(trace), "params": workload.params,
            "import_raw_s": import_raw, "import_scaled_s": import_times,
            "setup_raw_s": setup_raw, "setup_scaled_s": setup_times, "iterations": iterations,
            "primary_raw_s": loop.primary_raw_s, "primary_scaled_s": loop.primary_s,
            "raw_metrics": raw_metrics,
            "named": named, "absent_bindings": absent,
            "correct": not loop.problems, "problems": loop.problems,
            "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def benchmark_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result: dict, doc: dict) -> dict:
    """Print the human-readable summary; returns the contract's result line."""
    unit_of = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    name = result["workload"]
    print(f"# workload {name} seed {result['seed']} trace {result['trace']}: "
          f"{result['iterations']} iterations")
    for key, (value, unit) in result["named"].items():
        print(f"{name}  {key:<28} {value:14.6g} {unit}")
    print(f"{name}  checks: {'PASS' if result['correct'] else 'FAIL'}"
          f" ({result['failed']} of {result['attempted']} commands failed)")
    for problem in result["problems"]:
        print(f"{name}  problem: {problem}")
    for binding in result["absent_bindings"]:
        print(f"{name}  not traced, absent from the package: {binding}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in result["metrics"].items()},
    }


def self_test(clock: SpeedScale) -> int:
    """Every workload at tiny sizes, both modes; a failing command is counted, not raised."""
    from workloads import WORKLOADS, Command

    doc = benchmark_doc()
    wanted = {0: {m["name"] for m in doc["end_to_end"]}, 1: {m["name"] for m in doc["per_layer"]}}
    errors = []
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            result = run_workload(name, 1, 0.0, bool(trace), clock, tiny=True)
            differ = wanted[trace] ^ set(result["metrics"])
            if differ:
                errors.append(f"{name} trace {trace}: metric set differs: {sorted(differ)}")
            if not result["correct"]:
                errors.append(f"{name} trace {trace}: checks failed: {result['problems']}")
            named = {"setup_s", "peak_rss_mb", "ops_failed_frac", cls.named_metric,
                     "heldout_nll" if name == "train" else "mean_nll"}
            if not trace and set(result["named"]) != named:
                errors.append(f"{name}: named metrics {sorted(result['named'])}")
    root = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        workload, _, _ = setup_workload(WORKLOADS["simulate"], root, 1, True, 1, clock)
        loop = Loop(workload, clock)
        loop.commands = [Command("evaluate", ["evaluate", "--data", str(root / "none.csv"),
                                              "--model", str(root / "none.json"),
                                              "--out", str(root / "out")], root / "out", True)]
        loop.run(0.0, 1)
        if (loop.attempted, loop.failed, loop.problems) != (1, 1, []):
            errors.append(f"failing command recorded as {loop.attempted=} {loop.failed=} "
                          f"{loop.problems=}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for error in errors:
        print(f"self-test: {error}")
    print(f"self-test: {'PASS' if not errors else 'FAIL'}")
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "tramsurv" / "__init__.py").is_file():
        print(f"bench: no tramsurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tramsurv.cli  # noqa: F401

    if not Path(tramsurv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported tramsurv from {tramsurv.__file__}", file=sys.stderr)
        return 2
    clock = SpeedScale()
    if args.self_test:
        return self_test(clock)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), clock)
    result["machine"] = machine_block()
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    line = report(result, benchmark_doc())
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (out / f"{args.workload}{suffix}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
