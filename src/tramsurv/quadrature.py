"""Adaptive Gauss-Kronrod (G7/K15) quadrature, one integral per row of break points."""

import numpy as np

from .errors import QuadratureNonConvergence

# QUADPACK's qk15 (Piessens et al. 1983): the Kronrod nodes in [0, 1] of the rule on
# [-1, 1], their weights, and the Gauss weights, nonzero at every other node.
_X = [0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
      0.586087235467691130, 0.405845151377397167, 0.207784955007898468, 0.0]
_WK = [0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
       0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828]
_WG = [0.0, 0.129484966168869693, 0.0, 0.279705391489276668, 0.0, 0.381830050505118945, 0.0,
       0.417959183673469388]
NODES, KRONROD, GAUSS = (np.concatenate([sign * np.array(v), v[-2::-1]])
                         for sign, v in ((-1.0, _X), (1.0, _WK), (1.0, _WG)))
MAX_PIECES, MAX_NODES = 256, 2**14  # pieces per integral, nodes per call of the integrand
assert 15 * MAX_PIECES <= MAX_NODES  # a row's widest pass fits one call


def gauss_kronrod(fn, breaks, rel_tol: float = 1e-7, *, members: int = 1):
    """Integrate row r of ``fn`` over [breaks[r, 0], breaks[r, -1]], split at its breaks.

    ``breaks`` is (n, q), sorted along each row.  ``fn(nodes, rows)`` gets a
    ``(k, m)`` array of nodes of the rows ``rows``: at most ``MAX_NODES`` over
    ``members``, the values it computes per node (a mixture's members), but
    always one row's.  A piece is bisected while its K15 and G7 estimates
    differ by more than its width's share of ``rel_tol`` times the row's
    estimate (with a tiny absolute floor).  Each row's pieces are laid out
    alone and in order, so its estimate does not depend on the rows solved
    with it.

    Returns ``(value, pieces, depth)`` per row: the integral, the pieces it
    took and its deepest bisection.  Raises :class:`QuadratureNonConvergence`
    when a row needs more than ``MAX_PIECES`` pieces.
    """
    breaks = np.asarray(breaks, dtype=float)
    n, width, lo, hi = len(breaks), breaks[:, -1] - breaks[:, 0], breaks[:, :-1], breaks[:, 1:]
    row, lo, hi = np.nonzero(hi > lo)[0], lo[hi > lo], hi[hi > lo]
    value, pieces, depth = np.zeros(n), np.bincount(row, minlength=n), np.zeros(n, dtype=int)
    while row.size:
        # one grid row per integral, its open pieces first, padded by its first piece
        start = np.flatnonzero(np.diff(row, prepend=-1))
        rows, count = row[start], np.diff(start, append=row.size)
        at = (np.repeat(np.arange(rows.size), count), np.arange(row.size) - np.repeat(start, count))
        mid = np.tile(((lo + hi) / 2.0)[start, None], count.max())
        half = np.zeros(mid.shape)
        mid[at], half[at] = (lo + hi) / 2.0, (hi - lo) / 2.0
        kronrod, gauss = np.empty(mid.shape), np.empty(mid.shape)
        per_call = max(MAX_NODES // (15 * mid.shape[1] * members), 1)
        for part in (slice(s, s + per_call) for s in range(0, rows.size, per_call)):
            nodes = mid[part, :, None] + half[part, :, None] * NODES
            f = np.asarray(fn(nodes.reshape(len(nodes), -1), rows[part]), dtype=float)
            kronrod[part], gauss[part] = (half[part] * np.vecdot(f.reshape(nodes.shape), w)
                                          for w in (KRONROD, GAUSS))
        k, error = kronrod[at], np.abs(kronrod[at] - gauss[at])
        estimate = value + np.bincount(row, k, minlength=n)
        share = np.maximum(rel_tol * np.abs(estimate[row]), 1e-15) * (hi - lo) / width[row]
        split = ~(error <= share)  # a NaN error never converges
        value += np.bincount(row[~split], k[~split], minlength=n)
        pieces += np.bincount(row[split], minlength=n)
        depth += np.bincount(row[split], minlength=n) > 0
        failing = pieces > MAX_PIECES
        if np.any(failing):
            raise QuadratureNonConvergence(
                f"{np.sum(failing)} integral(s) need more than {MAX_PIECES} pieces "
                f"at depth {depth[failing].max()}: K15 and G7 still disagree beyond relative "
                f"tolerance {rel_tol}")
        row, lo, hi = (np.repeat(v[split], 2) for v in (row, lo, hi))
        lo[1::2] = hi[::2] = (lo[::2] + hi[::2]) / 2.0
    return value, pieces, depth
