"""Least-squares parabola fits and wall-location extraction.

Steady profiles of the driven schemes are parabolic in the bulk.  The
effective wall position is wherever the fitted parabola crosses zero,
which generally is *not* at a grid node: the interesting quantity is
the offset delta_q between the outermost fluid node and the nearest
root, measured in units of the grid spacing.  Superconvergent parameter
choices put that offset exactly half a spacing outside the node.
"""

import math

import numpy as np

from .errors import FitError, LocalizationError

__all__ = [
    "ParabolaFit",
    "WallLocationResult",
    "fit_parabola",
    "wall_location",
]

# Curvatures below this fraction of the data scale cannot yield
# meaningful roots.
DEGENERACY_FLOOR = 1e-14


class ParabolaFit:
    """Least-squares parabola u(x) = a0 + a1 x + a2 x^2 through samples.

    Attributes
    ----------
    coefficients : (a0, a1, a2)
        Polynomial coefficients in the raw abscissa.
    residual : float
        Root-mean-square misfit over the samples.
    roots : (r1, r2) or None
        Real roots in increasing order, None when the discriminant is
        negative.
    """

    def __init__(self, coefficients, residual, roots):
        self.coefficients = tuple(float(c) for c in coefficients)
        self.residual = float(residual)
        self.roots = None if roots is None else tuple(float(r) for r in roots)

    def __call__(self, x):
        a0, a1, a2 = self.coefficients
        x = np.asarray(x, dtype=np.float64)
        return a0 + a1 * x + a2 * x * x

    def __repr__(self):
        return (
            f"ParabolaFit(coefficients={self.coefficients!r}, "
            f"residual={self.residual!r}, roots={self.roots!r})"
        )


class WallLocationResult:
    """Wall offset extracted from a profile fit.

    ``delta_q`` is the distance from the boundary fluid node to the
    nearest parabola root, in units of the grid spacing, measured
    positively going out of the fluid.  ``root`` keeps the raw root
    coordinate for reference.
    """

    def __init__(self, delta_q, side, root):
        self.delta_q = float(delta_q)
        self.side = side
        self.root = float(root)

    def __repr__(self):
        return (
            f"WallLocationResult(delta_q={self.delta_q!r}, side={self.side!r}, "
            f"root={self.root!r})"
        )


def fit_parabola(x, u):
    """Fit a parabola to samples by least squares.

    Parameters
    ----------
    x, u : array_like
        Sample abscissae (at least three distinct values) and values.

    Returns
    -------
    ParabolaFit

    Raises
    ------
    FitError
        For fewer than three distinct abscissae, or when the fitted
        curvature is below the degeneracy floor relative to the data
        scale (including identically-zero data), in which case no root
        could be trusted.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    if x.shape != u.shape:
        raise FitError(f"abscissae and values differ in length: {x.size} vs {u.size}")
    distinct = np.unique(x).size
    if distinct < 3:
        raise FitError(
            f"parabola fit needs at least 3 distinct abscissae, got {distinct}"
        )

    # Center and scale the abscissa before solving; the quadratic root
    # extraction happens in the same well-conditioned variable.  The
    # scalars are Python floats: the same IEEE operations in the same
    # order as on numpy scalars, without their per-operation overhead.
    n = x.size
    center = float(x.sum()) / n
    span = float(x.max()) - float(x.min())
    z = (x - center) / span
    vand = np.empty((n, 3))
    vand[:, 0] = 1.0
    vand[:, 1] = z
    vand[:, 2] = z * z
    coef_z, *_ = np.linalg.lstsq(vand, u, rcond=None)
    b0, b1, b2 = coef_z.tolist()

    misfit = vand @ coef_z - u
    residual = math.sqrt(float((misfit * misfit).sum()) / n)

    scale = float(np.abs(u).max())
    if scale == 0.0 or abs(b2) < DEGENERACY_FLOOR * scale:
        raise FitError(
            "degenerate parabola fit: no curvature "
            f"(|a2| scaled {abs(b2):.3e} vs data scale {scale:.3e})"
        )

    # Raw-abscissa coefficients, for reporting.  A span below about
    # 1.6e-162 squares to +0.0, where b2 / +0.0 is the IEEE +-inf.
    span2 = span * span
    a2 = b2 / span2 if span2 else b2 * math.inf
    a1 = b1 / span - 2.0 * a2 * center
    a0 = b0 - b1 * center / span + a2 * center * center

    disc = b1 * b1 - 4.0 * b2 * b0
    if disc < 0.0:
        roots = None
    else:
        sq = math.sqrt(disc)
        if b1 >= 0.0:
            qq = -0.5 * (b1 + sq)
        else:
            qq = -0.5 * (b1 - sq)
        if qq == 0.0:
            z1 = z2 = 0.0
        else:
            z1 = qq / b2
            z2 = b0 / qq
        r1 = center + span * z1
        r2 = center + span * z2
        roots = tuple(sorted((r1, r2)))
    return ParabolaFit((a0, a1, a2), residual, roots)


def wall_location(fit, x_b, dx, side):
    """Wall offset from a fitted profile.

    Parameters
    ----------
    fit : ParabolaFit
    x_b : float
        Coordinate of the outermost fluid node on the chosen side.
    dx : float
        Grid spacing.
    side : {"lower", "upper"}
        Which side of the profile the wall is on; "lower" means the
        wall lies at coordinates below ``x_b``.

    Returns
    -------
    WallLocationResult

    Raises
    ------
    LocalizationError
        When the fit has no real roots, or the nearest root falls
        outside the window from one spacing inside the fluid to two
        spacings beyond the node.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if fit.roots is None:
        raise LocalizationError("wall not localized: profile fit has no real roots")
    outward = -1.0 if side == "lower" else 1.0
    root = min(fit.roots, key=lambda r: abs(r - x_b))
    delta_q = outward * (root - x_b) / dx
    if not -1.0 <= delta_q <= 2.0:
        window = "x_b - 2 dx, x_b + dx" if side == "lower" else "x_b - dx, x_b + 2 dx"
        raise LocalizationError(
            f"wall not localized: nearest root {root!r} outside the window "
            f"[{window}] around node {x_b!r} (side {side!r})"
        )
    return WallLocationResult(delta_q, side, root)
