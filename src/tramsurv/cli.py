"""Command line interface: fit, evaluate, sample, and ensemble runs.

Datasets are CSV files with reserved columns ``time``, ``time2`` (optional,
interval upper bounds), and ``status`` (one of exact/right/left/interval);
every remaining column is a numeric covariate.  Each run writes a manifest
with the fully resolved configuration and seed, so reruns reproduce outputs
bit for bit.  Failures exit nonzero and leave a machine-readable
``error.json`` with a stable error code.

The ``TRAMSURV_LOG`` environment variable sets the log level (e.g. DEBUG,
INFO, WARNING).
"""

import argparse
from array import array
import csv
import dataclasses
import functools
import json
import logging
import math
import os
from pathlib import Path
import sys

import numpy as np

from . import __version__
from .core import (
    KINDS,
    SCHEMA_VERSION,
    CensoringKind,
    ModelSpec,
    Parameterization,
    SurvivalDataset,
    deserialize_model,
    member_of,
    serialize_model,
    validate_dataset,
)
from .errors import (
    BadConfig,
    BadStatusValue,
    DataNotFound,
    MissingColumn,
    ModelNotFound,
    NonNumericCovariate,
    TramsurvError,
)
from .feature import ExtractorSpec
from .fit import TrainConfig, fit, fit_ensemble
from .metrics import evaluate
from .sample import SynthConfig, generate_semisynthetic
from .target import TargetFamily
from .transform import conditional_distribution

logger = logging.getLogger(__name__)

RESERVED_COLUMNS = ("time", "time2", "status")
_STATUS_CODE = {k.value: k.code for k in CensoringKind}
_RIGHT, _INTERVAL = CensoringKind.RIGHT.code, CensoringKind.INTERVAL.code
CDF_GRID_POINTS = 200
# numbers per repr_bytes call of the writers, which holds ~150 bytes per number; its
# fixed cost per call (~0.13 ms) outweighs the formatting below about 1300 numbers,
# and at 6400 numbers a number costs more than at 3200
WRITE_VALUES = 3200
# ",time2,status" of a dataset line by censoring-kind code; interval lines fill in time2
_MIDDLES = np.array([b",,%s" % kind.value.encode() for kind in KINDS], dtype=object)


# ---------------------------------------------------------------------------
# Dataset CSV handling


def parse_dataset_csv(path) -> SurvivalDataset:
    """Read a dataset CSV; errors carry the row and column of the first problem.

    The body goes through numpy's C reader, or the row scan where that could differ.
    """
    path = Path(path)
    if not path.is_file():
        raise DataNotFound(f"dataset file not found: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [column.strip() for column in next(reader)]
        except StopIteration:
            raise MissingColumn(f"{path}: file is empty") from None
        dataset = _dataset_from_text(path, header, handle.encoding)
        return _dataset_from_rows(path, header, reader) if dataset is None else dataset


def _columns(path, header) -> tuple[int, int, int | None, list[int]]:
    """Positions of time, status, time2 (None when absent) and the covariates."""
    for required in ("time", "status"):
        if required not in header:
            raise MissingColumn(f"{path}: required column {required!r} is missing")
    time2_col = header.index("time2") if "time2" in header else None
    feature_cols = [i for i, name in enumerate(header) if name not in RESERVED_COLUMNS]
    return header.index("time"), header.index("status"), time2_col, feature_cols


def _dataset_from_text(path, header, encoding) -> SurvivalDataset | None:
    """The dataset from one structured ``np.loadtxt`` pass; None sends it to the row scan.

    None for any file numpy could read other than ``csv`` and ``float``, or rejects.
    Statuses and interval time2 cells map through their distinct values with
    the row scan's own ``strip``, ``lower`` and ``float``.
    """
    time_col, status_col, time2_col, feature_cols = _columns(path, header)
    raw = path.read_bytes()
    # Quotes below the header (csv unquotes them), NUL (numpy drops it from strings),
    # \x1c-\x1f (numpy strips them around numbers), a bare CR, or only blank lines.
    if (raw.find(b'"', raw.find(b"\n") + 1) != -1
            or any(byte in raw for byte in b"\x00\x1c\x1d\x1e\x1f")
            or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))
            or b"\n" not in raw.rstrip(b"\r\n")):
        return None
    n = raw.count(b"\n") + (not raw.endswith(b"\n")) - 1  # numpy skips blank lines
    del raw  # not held while numpy reads the file
    # One byte wider than any status or float repr, so that a value numpy cut shows.
    floats, strings = {time_col, *feature_cols}, {status_col: "S9", time2_col: "S25"}
    dtype = [(f"c{c}", "f8" if c in floats else strings.get(c, "S1")) for c in range(len(header))]
    try:
        cells = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                           encoding=encoding, ndmin=1)
    except ValueError:
        return None
    kind = _lookup(cells[f"c{status_col}"], lambda v: _STATUS_CODE[v.strip().lower()])
    if kind is None or cells.shape != (n,):
        return None
    t_lower = cells[f"c{time_col}"].copy()
    t_upper = np.where(kind == _RIGHT, np.inf, t_lower)
    interval = np.flatnonzero(kind == _INTERVAL)
    if interval.size:
        if time2_col is None:
            return None
        t2 = _lookup(cells[f"c{time2_col}"][interval], lambda v: float(v.strip()))
        if t2 is None:
            return None
        t_upper[interval] = t2
    x = np.empty((n, len(feature_cols)))
    for j, col in enumerate(feature_cols):
        x[:, j] = cells[f"c{col}"]
    names = [header[i] for i in feature_cols]
    return SurvivalDataset(x, t_lower, t_upper, kind.astype(np.int8), names)


def _lookup(cells, convert):
    """``convert`` of each distinct value of a string column, per row; None if one fails."""
    values, inverse = np.unique(cells, return_inverse=True)
    if any(len(value) >= cells.itemsize for value in values.tolist()):
        return None  # possibly cut short
    try:
        return np.array([convert(v.decode("latin-1")) for v in values.tolist()])[inverse]
    except (KeyError, ValueError):
        return None


def _dataset_from_rows(path, header, rows) -> SurvivalDataset:
    """Fill the dataset columns in one pass over the rows after the header."""
    time_col, status_col, time2_col, feature_cols = _columns(path, header)
    feature_names = [header[i] for i in feature_cols]

    # Typed buffers hold 8 bytes per value, where lists would hold float objects.
    t_lower, t_upper, x, kind = array("d"), array("d"), array("d"), array("b")
    for r, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != len(header):
            raise MissingColumn(f"{path}: line {r}: {len(row)} cells for {len(header)} columns")
        code = _STATUS_CODE.get(row[status_col].strip().lower())
        if code is None:
            raise BadStatusValue(
                f"{path}: line {r}: status {row[status_col]!r} is not one of "
                f"{sorted(_STATUS_CODE)}"
            )
        t = _number(path, r, "time", row[time_col])
        t2 = np.inf if code == _RIGHT else t
        if code == _INTERVAL:
            raw_t2 = row[time2_col].strip() if time2_col is not None else ""
            if not raw_t2:
                raise MissingColumn(
                    f"{path}: line {r}: interval-censored row needs a time2 value"
                )
            t2 = _number(path, r, "time2", raw_t2)
        try:
            x.extend([float(row[i]) for i in feature_cols])
        except ValueError:
            for i in feature_cols:  # name the first bad cell
                _number(path, r, f"column {header[i]!r}", row[i])
        t_lower.append(t)
        t_upper.append(t2)
        kind.append(code)
    return SurvivalDataset(
        x=np.frombuffer(x, dtype=float).reshape(len(t_lower), len(feature_cols)),
        t_lower=np.frombuffer(t_lower, dtype=float),
        t_upper=np.frombuffer(t_upper, dtype=float),
        kind=np.frombuffer(kind, dtype=np.int8),
        feature_names=feature_names,
    )


def _number(path, line, name, cell) -> float:
    try:
        return float(cell)
    except ValueError:
        message = f"{path}: line {line}: {name} value {cell!r} is not numeric"
        raise NonNumericCovariate(message) from None


def _index_text(rows: slice) -> np.ndarray:
    """The decimal text of the indices ``rows`` selects, a NUL-padded uint8 row each."""
    width = len(str(rows.stop - 1))
    return np.arange(rows.start, rows.stop).astype(f"S{width}").view(np.uint8).reshape(-1, width)


def _repr_text(values: np.ndarray) -> np.ndarray:
    """:func:`repr_bytes` of ``values``, a NUL-padded text per value on a new last axis."""
    # imported here, so the commands that write no CSV do not load the kernel
    from .floatrepr import repr_bytes

    return repr_bytes(values).reshape(*values.shape, -1)


def _line_buffer():
    """A :class:`LineBuffer`, which a writer call reuses for the lines of all its blocks."""
    from .floatrepr import LineBuffer

    return LineBuffer()


def write_dataset_csv(dataset: SurvivalDataset, path):
    """Write a dataset CSV that :func:`parse_dataset_csv` reads back unchanged.

    The body holds the lines csv.writer would write (no number or status
    needs quoting), in blocks of rows that format about ``WRITE_VALUES``
    values in one :func:`repr_bytes` call: the times, the upper times of
    interval rows, and the covariates of a block's first row and of the rows
    whose bits differ from the previous row's.  Synthetic data repeats each
    subject ``replication`` times, so a repeated row takes the covariate text
    of its run, gathered through the run index.  Only one block is held at a
    time, so the writer's memory does not grow with the dataset.
    """
    x = np.ascontiguousarray(dataset.x, dtype=float)
    with open(path, "w", newline="") as text_handle:
        csv.writer(text_handle).writerow(["time", "time2", "status", *dataset.feature_names])
        text_handle.flush()  # the body goes to the byte stream below
        lines = _line_buffer()
        for rows, fresh in _dataset_blocks(dataset, x):
            _write_dataset_block(text_handle.buffer, lines, dataset, x, rows, fresh)


def _dataset_blocks(dataset: SurvivalDataset, x):
    """The blocks of :func:`write_dataset_csv`: a slice of rows and their ``fresh`` mask each.

    ``fresh`` marks a block's first row and the rows whose covariate bits
    differ from the previous row's.  Rows are compared in a window twice the
    last block's length, so each is compared about twice, and a block that
    fills its window widens the next one.
    """
    p = x.shape[1]
    bits = x.view(np.int64)
    # a block formats each row's time, so it has at most WRITE_VALUES rows
    start, window = 0, WRITE_VALUES
    while start < dataset.n:
        candidates = bits[start : start + window]
        fresh = np.ones(len(candidates), dtype=bool)
        fresh[1:] = np.any(candidates[1:] != candidates[:-1], axis=1)
        interval = dataset.kind[start : start + len(candidates)] == _INTERVAL
        values = np.cumsum(1 + interval + p * fresh)
        m = max(int(np.searchsorted(values, WRITE_VALUES, "right")), 1)
        yield slice(start, start + m), fresh[:m]
        start += m
        window = min(2 * m, WRITE_VALUES)


def _write_dataset_block(handle, lines, dataset: SurvivalDataset, x, rows, fresh):
    """Write a block's lines, each its time, ``,time2,status`` and its run's covariates."""
    p, kind = x.shape[1], dataset.kind[rows]
    m, upper = len(kind), np.flatnonzero(kind == _INTERVAL)
    covariates = x[rows][fresh]
    cells = _repr_text(np.concatenate(
        [dataset.t_lower[rows], dataset.t_upper[rows][upper], covariates.ravel()]))
    f, width = len(covariates), cells.shape[1]
    middles = _MIDDLES.take(kind)
    if upper.size:
        middles[upper] = lines.join([b",", cells[m : m + upper.size], b",interval\n"]).splitlines()
    # ",value" for each covariate of a fresh row
    commas = np.full((f, p, 1), ord(","), dtype=np.uint8)
    values = np.concatenate([commas, cells[m + upper.size :].reshape(f, p, width)], axis=2)
    runs = lines.join([values.reshape(f, p * (width + 1)), b"\r\n"]).splitlines(keepends=True)
    parts = [b""] * (3 * m)
    parts[0::3] = lines.join([cells[:m], b"\n"]).splitlines()
    parts[1::3] = middles.tolist()
    parts[2::3] = np.array(runs, dtype=object).take(np.cumsum(fresh) - 1).tolist()
    # joined a slice at a time, since a join holds an 80-byte buffer record per item
    step = WRITE_VALUES // 4
    for i in range(0, 3 * m, step):
        handle.write(b"".join(parts[i : i + step]))


# ---------------------------------------------------------------------------
# Run configuration


# The first six keys describe the model, the others (TrainConfig's fields) its training.
_SPEC_KEYS = (
    "family", "parameterization", "bernstein_order", "hidden_dims", "activation", "init_scale",
    "lr_extractor", "lr_head", "epochs", "batch_size", "early_stopping_patience",
    "validation_fraction", "seed",
)


def load_spec_config(path, overrides: dict) -> dict:
    """Flat key-value spec config from a JSON file plus CLI overrides."""
    path = Path(path)
    if not path.is_file():
        raise BadConfig(f"spec config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BadConfig(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadConfig(f"{path}: spec config must be a JSON object")
    unknown = set(doc) - set(_SPEC_KEYS)
    if unknown:
        raise BadConfig(f"{path}: unknown spec keys {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    non_finite = sorted(k for k, v in doc.items() if not _finite(v))
    if non_finite:
        raise BadConfig(f"{path}: spec keys {non_finite} have non-finite values")
    if "family" not in doc or "parameterization" not in doc:
        raise BadConfig(f"{path}: spec config needs 'family' and 'parameterization'")
    return doc


def _finite(value) -> bool:
    """Whether every float in a spec value, or in a list of values, is finite."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _integer(value) -> int:
    """An integer setting from a spec: an int, an integral float or an integer string.

    A fractional value or a bool raises ``ValueError``; none is truncated.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _widths(value) -> tuple:
    """Hidden layer widths from a spec: a list of integers."""
    if not isinstance(value, list):
        raise TypeError(value)
    return tuple(map(_integer, value))


def _spec_value(convert, config: dict, key: str, default):
    """``convert`` applied to ``config[key]``, or to ``default`` when the key is absent."""
    value = config.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise BadConfig(f"spec key {key!r} has a malformed value {value!r}") from None


def build_model_spec(config: dict, n_features: int) -> ModelSpec:
    """The model architecture a spec config's model keys describe."""
    parameterization = member_of(Parameterization, "parameterization", config["parameterization"])
    order = _spec_value(_integer, config, "bernstein_order", 6)
    extractor = None
    if parameterization != Parameterization.BASELINE:
        if parameterization == Parameterization.BERNSTEIN_FLEXIBLE:
            output_dim = order + 1
        else:
            output_dim = n_features
        extractor = ExtractorSpec(
            input_dim=n_features,
            hidden_dims=_spec_value(_widths, config, "hidden_dims", []),
            output_dim=output_dim,
            activation=config.get("activation", "tanh"),
            init_scale=config.get("init_scale", 1.0),
        )
    return ModelSpec(config["family"], parameterization, order, extractor)


# How a spec config's training keys are read; TrainConfig checks every value, so
# the learning rates pass as given.
_TRAIN_READERS = {"epochs": _integer, "batch_size": _integer, "early_stopping_patience": _integer,
                  "seed": _integer, "validation_fraction": float}


def build_train_config(config: dict, spec: ModelSpec) -> TrainConfig:
    """The training settings of a spec config, learning rates resolved for ``spec``."""
    settings = {
        field.name: _spec_value(_TRAIN_READERS.get(field.name, lambda value: value),
                                config, field.name, None)
        for field in dataclasses.fields(TrainConfig) if field.name in config
    }
    return TrainConfig(**settings).resolved(spec)


# ---------------------------------------------------------------------------
# Output artifacts


def _write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, allow_nan=False)
        handle.write("\n")


def write_manifest(out_dir: Path, command: str, resolved: dict):
    manifest = {
        "tool": "tramsurv",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": resolved,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_model(path):
    path = Path(path)
    if not path.is_file():
        raise ModelNotFound(f"model artifact not found: {path}")
    return deserialize_model(path.read_bytes())


def write_cdf_grid(dist, dataset: SurvivalDataset, path):
    """Per-subject conditional CDF on a fixed grid spanning the training range.

    ``dist`` is the batch distribution of the dataset's subjects, as scored.
    Its CDF is evaluated for blocks of subjects at the grid times, which every
    subject of a block shares (one basis per block), so that a block has
    ``WRITE_VALUES`` values and the values in memory do not grow with the
    dataset.  Each line is the one csv.writer would write (no field needs
    quoting): the subject, ``,time,`` and the CDF value, joined in one
    :class:`LineBuffer` for the whole call.
    """
    scaler = dist.scaler
    grid = np.exp(np.linspace(scaler.a_lo, scaler.b_hi, CDF_GRID_POINTS))
    lines = _line_buffer()
    times = lines.join([b",", _repr_text(grid), b",\n"]).splitlines()
    times = np.array(times).view(np.uint8).reshape(CDF_GRID_POINTS, -1)
    times.flags.writeable = False  # so that the line buffer keeps its columns from block to block
    step = WRITE_VALUES // CDF_GRID_POINTS
    with open(path, "wb") as handle:
        handle.write(b"subject,time,cdf\r\n")
        for start in range(0, dataset.n, step):
            # baseline models have one distribution for all subjects, so the
            # block's subjects come from the slice, not from the distribution
            rows = slice(start, min(start + step, dataset.n))
            handle.write(lines.join([_index_text(rows)[:, None], times,
                                     _repr_text(dist.subject(rows).cdf(grid[None])), b"\r\n"]))


def write_scores(report, path):
    """Per-subject scores, a line ``subject,nll,crps`` each, as csv.writer writes them.

    Formatted ``WRITE_VALUES`` values at a time by :func:`repr_bytes`.
    """
    step = WRITE_VALUES // 2
    lines = _line_buffer()
    with open(path, "wb") as handle:
        handle.write(b"subject,nll,crps\r\n")
        for start in range(0, len(report.nll), step):
            rows = slice(start, min(start + step, len(report.nll)))
            cells = _repr_text(np.stack([report.nll[rows], report.crps[rows]], axis=1))
            handle.write(lines.join([_index_text(rows), b",", cells[:, 0], b",", cells[:, 1],
                                     b"\r\n"]))


# ---------------------------------------------------------------------------
# Subcommands


def _fit_inputs(args):
    """Dataset, model spec, train config and manifest config of ``fit`` and ``ensemble``."""
    dataset = validate_dataset(parse_dataset_csv(args.data), for_fitting=True)
    spec_config = load_spec_config(args.spec, {k: getattr(args, k, None) for k in _SPEC_KEYS})
    spec = build_model_spec(spec_config, dataset.p)
    config = build_train_config(spec_config, spec)
    resolved = {"data": str(args.data), "spec": spec_config, "train": dataclasses.asdict(config)}
    return dataset, spec, config, resolved


def _cmd_fit(args, out_dir: Path) -> int:
    dataset, spec, config, resolved = _fit_inputs(args)
    write_manifest(out_dir, "fit", resolved)
    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_nll", "val_nll", "grad_norm", "clipped"])
        # EpochStats holds Python floats, which csv.writer writes through repr
        model = fit(dataset, spec, config,
                    callback=lambda stats: writer.writerow(dataclasses.astuple(stats)))
    (out_dir / "model.json").write_bytes(serialize_model(model))
    logger.info("fit: wrote %s", out_dir / "model.json")
    return 0


def _cmd_evaluate(args, out_dir: Path) -> int:
    dataset = parse_dataset_csv(args.data)
    model = _load_model(args.model)
    write_manifest(out_dir, "evaluate", {"data": str(args.data), "model": str(args.model)})
    dist = conditional_distribution(model, validate_dataset(dataset).x)  # data errors first
    report = evaluate(dist, dataset)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    write_scores(report, out_dir / "scores.csv")
    write_cdf_grid(dist, dataset, out_dir / "cdf_grid.csv")
    logger.info("evaluate: wrote %s", out_dir / "report.json")
    return 0


def _cmd_sample(args, out_dir: Path) -> int:
    dataset = parse_dataset_csv(args.data)
    model = _load_model(args.model)
    config = SynthConfig(replication=args.replication, seed=args.seed)
    write_manifest(out_dir, "sample", {"data": str(args.data), "model": str(args.model),
                                       "synth": dataclasses.asdict(config)})
    synthetic = generate_semisynthetic(model, dataset, config)
    write_dataset_csv(synthetic, out_dir / "synthetic.csv")
    logger.info("sample: wrote %s", out_dir / "synthetic.csv")
    return 0


def _cmd_ensemble(args, out_dir: Path) -> int:
    dataset, spec, config, resolved = _fit_inputs(args)
    write_manifest(out_dir, "ensemble",
                   {**resolved, "members": args.members, "top": args.top, "jobs": args.jobs})
    ensemble = fit_ensemble(
        dataset, spec, config, n_members=args.members, top_m=args.top, jobs=args.jobs
    )
    member_paths = []
    for rank, model in enumerate(ensemble.members):
        path = out_dir / f"member_{rank:03d}.json"
        path.write_bytes(serialize_model(model))
        member_paths.append(path.name)
    _write_json(
        out_dir / "selection.json",
        {
            "pool_validation_nlls": [float(v) for v in ensemble.pool_validation_nlls],
            "selected_indices": list(ensemble.selected_indices),
            "selected_validation_nlls": [float(v) for v in ensemble.member_validation_nlls],
            "members": member_paths,
        },
    )
    report = evaluate(ensemble, dataset)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    logger.info("ensemble: wrote %d members to %s", len(member_paths), out_dir)
    return 0


# ---------------------------------------------------------------------------
# Entry point


@functools.cache  # one tree per process: parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tramsurv",
        description="Conditional transformation models for censored time-to-event data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--spec", required=True, help="JSON spec config file")
        p.add_argument("--family", choices=[f.value for f in TargetFamily])
        p.add_argument(
            "--parameterization", choices=[p.value for p in Parameterization]
        )
        p.add_argument("--bernstein_order", type=int)
        p.add_argument("--activation", choices=["tanh", "relu"])
        p.add_argument("--init_scale", type=float)
        p.add_argument("--lr_extractor", type=float)
        p.add_argument("--lr_head", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch_size", type=int)
        p.add_argument("--early_stopping_patience", type=int)
        p.add_argument("--validation_fraction", type=float)
        p.add_argument("--seed", type=int)

    p_fit = sub.add_parser("fit", help="fit a model and write its artifact")
    p_fit.add_argument("--data", required=True)
    add_spec_flags(p_fit)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(handler=_cmd_fit)

    p_eval = sub.add_parser("evaluate", help="score a model artifact on a dataset")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_sample = sub.add_parser("sample", help="generate semi-synthetic data from a model")
    p_sample.add_argument("--data", required=True)
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--replication", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(handler=_cmd_sample)

    p_ens = sub.add_parser("ensemble", help="fit a bootstrap ensemble")
    p_ens.add_argument("--data", required=True)
    add_spec_flags(p_ens)
    p_ens.add_argument("--members", type=int, default=10)
    p_ens.add_argument("--top", type=int, default=5)
    p_ens.add_argument("--jobs", type=int, default=1,
                       help="at most this many worker processes; below the bound (members "
                            "x rows x epochs under fit.POOL_MIN_WORK) the stack runs in "
                            "this process")
    p_ens.add_argument("--out", required=True)
    p_ens.set_defaults(handler=_cmd_ensemble)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("TRAMSURV_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)  # every subcommand writes to --out
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        status = args.handler(args, out_dir)
        (out_dir / "error.json").unlink(missing_ok=True)
        return status
    except TramsurvError as exc:
        record = {"error": exc.code, "message": str(exc)}
        try:
            _write_json(out_dir / "error.json", record)
        except OSError:
            pass
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
