"""Composite Simpson quadrature with grid-doubling convergence control."""

import numpy as np

from .errors import QuadratureNonConvergence

# Most nodes handed to one ``fn`` call by :func:`simpson_doubling`.  Between
# calls only per-row sums are kept, so memory does not grow with the rows.
MAX_NODES_PER_CALL = 2**13


def simpson(fn, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of fn over [a, b]."""
    if panels < 2 or panels % 2:
        raise ValueError("Simpson's rule needs an even number of panels")
    if b <= a:
        return 0.0
    nodes = np.linspace(a, b, panels + 1)
    values = np.asarray(fn(nodes), dtype=float)
    h = (b - a) / panels
    return (
        h
        / 3.0
        * float(
            values[0]
            + values[-1]
            + 4.0 * np.sum(values[1:-1:2])
            + 2.0 * np.sum(values[2:-1:2])
        )
    )


def _grid_values(fn, rows, a, h, offsets, b=None):
    """Yield ``(part, fn at a + h * offsets)`` for groups ``part`` of rows, last nodes on ``b``."""
    per_call = max(1, MAX_NODES_PER_CALL // offsets.size)
    for start in range(0, rows.size, per_call):
        part = rows[start : start + per_call]
        nodes = a[part, None] + h[part, None] * offsets
        if b is not None:
            nodes[:, -1] = b[part]
        yield part, np.asarray(fn(nodes, part), dtype=float)


def simpson_doubling(
    fn,
    a,
    b,
    rel_tol: float = 1e-7,
    base_panels: int = 512,
    max_panels: int = 8192,
):
    """Simpson quadrature, doubling the grid until successive estimates agree.

    Scalar limits take ``fn(nodes)`` and give a float, the one-row case of
    array limits: row r integrates over ``[a[r], b[r]]`` (0.0 if b <= a) with
    ``fn(nodes, rows)`` on a ``(k, m)`` array of nodes of the rows ``rows``.
    Each row stops at its own convergence, so its estimate does not depend
    on the rows solved with it.

    Raises :class:`QuadratureNonConvergence` if the finest grid still
    disagrees with its predecessor by more than ``rel_tol`` relatively (with a
    tiny absolute floor, so exactly-zero integrals converge immediately).
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        a_row, b_row = np.array([a], dtype=float), np.array([b], dtype=float)
        (value,) = simpson_doubling(lambda u, rows: np.broadcast_to(fn(u[0]), u.shape),
                                    a_row, b_row, rel_tol, base_panels, max_panels)
        return float(value)
    if base_panels < 2 or base_panels % 2 or max_panels > 2 * MAX_NODES_PER_CALL:
        raise ValueError(f"need an even base grid and at most {2 * MAX_NODES_PER_CALL} panels")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    width = b - a
    estimate, ends, interior, midpoints = (np.zeros(a.shape) for _ in range(4))
    rows = np.nonzero(width > 0.0)[0]
    # The grid of base_panels / 2 panels gives the end values and the
    # interior sum; each doubling adds its midpoints to the interior.
    panels = base_panels // 2
    for part, values in _grid_values(fn, rows, a, width / panels, np.arange(panels + 1.0), b):
        ends[part] = values[:, 0] + values[:, -1]
        interior[part] = np.sum(values[:, 1:-1], axis=1)
    previous = np.full(rows.size, np.nan)  # the first estimate converges nothing
    while rows.size:
        if panels >= max_panels:
            raise QuadratureNonConvergence(
                f"{rows.size} integral(s): Simpson grids of {max_panels // 2} and {max_panels} "
                f"panels still disagree beyond relative tolerance {rel_tol}")
        panels *= 2
        h = width / panels
        for part, values in _grid_values(fn, rows, a, h, np.arange(1.0, panels, 2.0)):
            midpoints[part] = np.sum(values, axis=1)
        current = h[rows] / 3.0 * (ends[rows] + 4.0 * midpoints[rows] + 2.0 * interior[rows])
        interior[rows] += midpoints[rows]
        done = np.abs(current - previous) <= np.maximum(rel_tol * np.abs(current), 1e-15)
        estimate[rows[done]] = current[done]
        rows, previous = rows[~done], current[~done]
    return estimate
