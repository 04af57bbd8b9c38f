"""Seeded synthetic survival fixtures for the benchmark workloads.

Every fixture is a CSV in the format ``tramsurv`` reads (``time``, ``time2``,
``status`` and numeric covariates).  Times follow a Weibull model whose scale
depends log-linearly on standard-normal covariates:

    log T = log(scale) + x . beta + log(E) / shape,   E ~ Exp(1)

A fixed share of rows is right-censored at a uniform fraction (0.2 to 1) of
their event time.  Times are in days with a Weibull scale of 100, so mean
log-scores sit well away from zero.  When a tie grid is set, times are
rounded onto it (never below one grid step) so that tied times occur.

The same ``(seed, stream, part)`` always yields the same file bytes.
Floats are written with ``repr(float(x))``; ``repr`` of a numpy scalar
prints ``np.float64(...)`` under numpy 2, which the CSV reader rejects.
"""

import math

import numpy as np

SCALE_DAYS = 100.0
CENSORED_SHARE = 0.3


def draw(seed, stream, part, n, p, shape, effect_sd, grid):
    """Covariates, times and event flags for one part of a workload's data.

    The covariate effects depend on ``stream`` only: each workload has one
    generating model, shared by all its parts (fitting rows, held-out rows),
    and the seed draws the sample.  ``effect_sd`` is the standard deviation of
    ``x . beta``.
    """
    beta = np.random.default_rng(stream).normal(size=p)
    beta *= effect_sd / np.linalg.norm(beta)
    rng = np.random.default_rng([seed, stream, part])
    x = rng.normal(size=(n, p))
    log_t = math.log(SCALE_DAYS) + x @ beta + np.log(rng.exponential(size=n)) / shape
    t = np.exp(log_t)
    censored = rng.random(n) < CENSORED_SHARE
    t = np.where(censored, t * rng.uniform(0.2, 1.0, size=n), t)
    if grid is not None:
        t = np.maximum(np.round(t / grid), 1.0) * grid
    return x, t, ~censored


def write_csv(path, x, t, event):
    """Write one dataset CSV; every float goes through ``repr(float(.))``."""
    p = x.shape[1]
    lines = [",".join(["time", "time2", "status", *(f"x{j}" for j in range(p))])]
    for row, ti, ev in zip(x.tolist(), t.tolist(), event.tolist()):
        cells = [repr(float(ti)), "", "exact" if ev else "right"]
        cells.extend(repr(float(v)) for v in row)
        lines.append(",".join(cells))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def make(path, seed, stream, part, n, p, shape, effect_sd, grid=None) -> dict:
    """Generate and write one fixture; returns its measured properties."""
    x, t, event = draw(seed, stream, part, n, p, shape, effect_sd, grid)
    write_csv(path, x, t, event)
    return {
        "n": n,
        "p": p,
        "weibull_shape": shape,
        "effect_sd": effect_sd,
        "tie_grid_days": grid,
        "censored_share": float(np.mean(~event)),
        "time_range_decades": float(np.log10(t.max() / t.min())),
        "tied_time_share": float(1.0 - np.unique(t).size / n),
    }
