"""Spans and counts at tramsurv's layer boundaries, installed from outside.

The benchmark wraps public functions of each package module on the name the
calling module looks up (modules import functions by name, so
``tramsurv.fit.eval_transform`` and ``tramsurv.transform.eval_transform`` are
separate bindings of one function).  Nothing under ``src/`` changes.

Each wrapped call records one span: name, start, end, parent span and run id
(one run id per CLI command).  Spans are kept in flat arrays in memory and
written out when the run ends.  A layer's self time is the summed duration of
its spans minus the time covered by their direct child spans, so time in
unwrapped helpers (``target``, ``numerics``) counts toward the caller.

Wrappers record nothing in processes other than the one that installed them:
ensemble workers forked by ``fit_ensemble`` inherit the wrappers, and their
cost shows in the parent-side ``fit_ensemble`` span instead.
"""

import array
from collections import Counter
import importlib
import os
import time

import numpy as np

LAYERS = ("cli", "core", "fit", "feature", "transform", "basis", "quadrature", "metrics", "sample")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.pid = os.getpid()
        self.enabled = False
        self.run_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_run = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.epoch_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        # Bindings a later version of the package no longer has; their
        # metrics read 0 instead of the traced run failing.
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def recording(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    # -- installing and removing wrappers -------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, prepare=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``prepare(args, kwargs)`` may return replacement arguments before the
        call; ``count(args, kwargs, result)`` runs after a successful call.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name if owner is None else f"{owner.__name__}.{attr}")
            return
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return original(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original binding back; returns the bindings that did not take."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        broken = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]
        self._saved.clear()
        return broken

    # -- results ---------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds and call count per span name, self seconds per layer."""
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        per_name_self = np.bincount(name, weights=self_time, minlength=k)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, n in enumerate(self.names):
            layer_self[n.split(".", 1)[0]] += float(per_name_self[i])
        return (
            {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            layer_self,
        )

    def save(self, path):
        """Write the spans as arrays plus the name table (``numpy.load`` reads it)."""
        name, parent, start, end = self.arrays()
        origin = float(start.min()) if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=start - origin,
            end=end - origin,
        )


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    # The package re-exports the function ``fit`` over the submodule name, so
    # modules are taken from the import system, not package attributes.
    cli, feature, fit, metrics, quadrature, sample, transform = (
        importlib.import_module(f"tramsurv.{m}")
        for m in ("cli", "feature", "fit", "metrics", "quadrature", "sample", "transform")
    )

    counts, maxima = tracer.counts, tracer.maxima

    def arg(args, kwargs, position, name):
        return args[position] if len(args) > position else kwargs[name]

    def rows_of(key, position, name):
        def count(args, kwargs, result):
            counts[key] += np.size(arg(args, kwargs, position, name))
        return count

    def forward_rows(args, kwargs, result):
        x = np.asarray(arg(args, kwargs, 2, "x"))
        counts["feature.rows"] += 1 if x.ndim == 1 else x.shape[0]

    def simpson_nodes(args, kwargs, result):
        panels = arg(args, kwargs, 3, "panels")
        counts["quadrature.nodes_evaluated"] += panels + 1
        maxima["quadrature.max_panels"] = max(maxima["quadrature.max_panels"], panels)

    def grid_rows(args, kwargs, result):
        counts["cli.cdf_grid_rows"] += arg(args, kwargs, 1, "dataset").n * cli.CDF_GRID_POINTS

    def draws(args, kwargs, result):
        counts["sample.draws"] += result.n

    fit_marks = {}

    def fit_prepare(args, kwargs):
        # Time each epoch through the public callback hook, chaining the CLI's own.
        user_callback = kwargs.get("callback")
        fit_marks["last"] = time.perf_counter()
        fit_marks["basis_rows"] = counts["basis.rows"]
        fit_marks["epochs"] = 0

        def callback(stats):
            now = time.perf_counter()
            tracer.epoch_s.append(now - fit_marks["last"])
            fit_marks["last"] = now
            fit_marks["epochs"] += 1
            counts["fit.clipped_steps"] += stats.clipped
            if user_callback is not None:
                user_callback(stats)

        return args, {**kwargs, "callback": callback}

    def fit_done(args, kwargs, result):
        n = arg(args, kwargs, 0, "dataset").n
        config = arg(args, kwargs, 2, "config")
        n_val = min(max(int(round(config.validation_fraction * n)), 1), n - 1)
        counts["fit.epochs_run"] += fit_marks["epochs"]
        counts["fit.train_row_epochs"] += (n - n_val) * fit_marks["epochs"]
        counts["basis.rows_in_fit"] += counts["basis.rows"] - fit_marks["basis_rows"]

    def next_run(args, kwargs):
        tracer.run_id += 1
        return args, kwargs

    def crps_ok(args, kwargs, result):
        counts["metrics.crps_ok"] += 1

    tracer.wrap(cli, "main", "cli.main", prepare=next_run)
    tracer.wrap(cli, "parse_dataset_csv", "cli.parse_dataset_csv")
    tracer.wrap(cli, "write_cdf_grid", "cli.write_cdf_grid", count=grid_rows)
    tracer.wrap(cli, "write_dataset_csv", "cli.write_dataset_csv")
    for module in (cli, fit, metrics, sample):
        tracer.wrap(module, "validate_dataset", "core.validate_dataset")
    tracer.wrap(cli, "serialize_model", "core.serialize_model")
    tracer.wrap(cli, "deserialize_model", "core.deserialize_model")
    tracer.wrap(cli, "fit", "fit.fit", count=fit_done, prepare=fit_prepare)
    tracer.wrap(cli, "fit_ensemble", "fit.fit_ensemble")
    tracer.wrap(fit, "fit_scaler", "basis.fit_scaler")
    tracer.wrap(feature, "forward", "feature.forward", count=forward_rows)
    tracer.wrap(feature, "backward", "feature.backward")
    for module in (fit, transform):
        tracer.wrap(module, "eval_transform", "transform.eval_transform",
                    count=rows_of("transform.rows", 3, "t"))
        tracer.wrap(module, "transform_at_log_time", "transform.transform_at_log_time",
                    count=rows_of("transform.bisect_rows", 3, "u"))
    tracer.wrap(fit, "grad_transform", "transform.grad_transform",
                count=rows_of("transform.rows", 3, "t"))
    tracer.wrap(transform, "bernstein_vectors", "basis.bernstein_vectors",
                count=rows_of("basis.rows", 1, "u"))
    tracer.wrap(getattr(transform, "ConditionalDistribution", None), "quantile",
                "transform.quantile")
    tracer.wrap(getattr(fit, "EnsembleDistribution", None), "quantile", "transform.quantile")
    for module in (cli, fit, metrics, sample):
        tracer.wrap(module, "conditional_distribution", "transform.conditional_distribution")
    tracer.wrap(cli, "evaluate", "metrics.evaluate")
    tracer.wrap(metrics, "log_score", "metrics.log_score")
    tracer.wrap(metrics, "crps", "metrics.crps", count=crps_ok)
    tracer.wrap(metrics, "c_index", "metrics.c_index")
    tracer.wrap(metrics, "simpson_doubling", "quadrature.simpson_doubling")
    tracer.wrap(quadrature, "simpson", "quadrature.simpson", count=simpson_nodes)
    tracer.wrap(cli, "generate_semisynthetic", "sample.generate_semisynthetic", count=draws)
