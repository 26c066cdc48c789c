"""Lattice stencils, moment bases, and the streaming step.

Two stencils are provided: a three-velocity line lattice (rest, right,
left) used for scalar diffusion, and the standard nine-velocity square
lattice used for incompressible channel flow.  Populations are stored
velocity-major: ``f[j]`` is the field of the j-th population, so a line
field has shape ``(3, n)`` and a plane field has shape ``(9, ny, nx)``.

A moment basis is an invertible matrix ``M`` mapping populations to
named moments, ``m = M f``.  Collisions act in moment space; streaming
acts in population space.  All built-in bases keep row 0 equal to the
density sum, and the plane basis keeps rows 1 and 2 equal to the two
momentum components, so conserved quantities are plain components of
``m``.

The code works in lattice units: grid spacing, time step and velocity
scale are all 1.
"""

import functools

import numpy as np

from .errors import ConfigurationError
from . import boundaries

__all__ = [
    "LatticeSpec",
    "MomentBasis",
    "D1Q3",
    "D2Q9",
    "build_d1q3_basis",
    "build_d2q9_basis",
    "to_moments",
    "from_moments",
    "stream",
    "mirror_fold",
]


class LatticeSpec:
    """Velocity stencil: names the discrete velocities and their opposites.

    Attributes
    ----------
    name : str
        "d1q3" or "d2q9".
    dim : int
        Spatial dimension (1 or 2).
    q : int
        Number of discrete velocities.
    vx, vy : int arrays of shape (q,)
        Velocity components in lattice units (``vy`` is None in 1-D).
    opposite : int array of shape (q,)
        Index of the opposite velocity, ``v[opposite[j]] = -v[j]``.
    """

    def __init__(self, name, dim, q, vx, vy, opposite):
        self.name = name
        self.dim = dim
        self.q = q
        self.vx = np.asarray(vx, dtype=np.int64)
        self.vy = None if vy is None else np.asarray(vy, dtype=np.int64)
        self.opposite = np.asarray(opposite, dtype=np.int64)

    def __repr__(self):
        return f"LatticeSpec({self.name!r})"


D1Q3 = LatticeSpec("d1q3", 1, 3, [0, 1, -1], None, [0, 2, 1])

D2Q9 = LatticeSpec(
    "d2q9",
    2,
    9,
    [0, 1, 0, -1, 0, 1, -1, -1, 1],
    [0, 0, 1, 0, -1, 1, 1, -1, -1],
    [0, 3, 4, 1, 2, 7, 8, 5, 6],
)


class MomentBasis:
    """Invertible population-to-moment map for one stencil.

    Attributes
    ----------
    name : str
        Identifies the basis ("d1q3-a", "d1q3-b", "d2q9").
    matrix : (q, q) float array
        Rows are moments, columns are populations: ``m = matrix @ f``.
    inverse : (q, q) float array
        Exact inverse of ``matrix``.
    moment_names : tuple of str
        One name per row.
    """

    def __init__(self, name, matrix, inverse, moment_names):
        self.name = name
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.inverse = np.asarray(inverse, dtype=np.float64)
        self.moment_names = tuple(moment_names)

    @property
    def q(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"MomentBasis({self.name!r})"


def build_d1q3_basis(variant):
    """Build a line-lattice moment basis.

    Two variants are supported; both share the density row (1, 1, 1) and
    the flux row (0, 1, -1) but differ in the second-order row:

    * variant "a": energy row (0, 1/2, 1/2),
    * variant "b": energy row (-2, 1, 1).

    The two give identical hydrodynamics in the bulk but different
    boundary-layer behaviour, which is the point of keeping both.
    """
    v = variant.lower()
    if v == "a":
        matrix = [
            [1.0, 1.0, 1.0],
            [0.0, 1.0, -1.0],
            [0.0, 0.5, 0.5],
        ]
        inverse = [
            [1.0, 0.0, -2.0],
            [0.0, 0.5, 1.0],
            [0.0, -0.5, 1.0],
        ]
    elif v == "b":
        matrix = [
            [1.0, 1.0, 1.0],
            [0.0, 1.0, -1.0],
            [-2.0, 1.0, 1.0],
        ]
        inverse = [
            [1.0 / 3.0, 0.0, -1.0 / 3.0],
            [1.0 / 3.0, 0.5, 1.0 / 6.0],
            [1.0 / 3.0, -0.5, 1.0 / 6.0],
        ]
    else:
        raise ValueError(f"unknown line-basis variant {variant!r}, expected 'a' or 'b'")
    return MomentBasis(f"d1q3-{v}", matrix, inverse, ("rho", "j", "e"))


# Integer moment rows for the square lattice, ordered (rho, jx, jy,
# energy, energy square, heat flux x, heat flux y, normal stress,
# shear stress).  The rows are mutually orthogonal.
_D2Q9_ROWS = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [0, 1, 0, -1, 0, 1, -1, -1, 1],
        [0, 0, 1, 0, -1, 1, 1, -1, -1],
        [-4, -1, -1, -1, -1, 2, 2, 2, 2],
        [4, -2, -2, -2, -2, 1, 1, 1, 1],
        [0, -2, 0, 2, 0, 1, -1, -1, 1],
        [0, 0, -2, 0, 2, 1, 1, -1, -1],
        [0, 1, -1, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, -1, 1, -1],
    ],
    dtype=np.float64,
)

_D2Q9_ROW_NORMS = np.array([9, 6, 6, 36, 36, 12, 12, 4, 4], dtype=np.float64)

_D2Q9_NAMES = ("rho", "jx", "jy", "e", "eps", "qx", "qy", "pxx", "pxy")


def build_d2q9_basis():
    """Build the nine-moment square-lattice basis (lattice units).

    Row orthogonality makes the inverse a rescaled transpose:
    ``inverse = matrix.T / row_norms``, which is what is stored.
    """
    inverse = _D2Q9_ROWS.T / _D2Q9_ROW_NORMS
    return MomentBasis("d2q9", _D2Q9_ROWS, inverse, _D2Q9_NAMES)


def to_moments(basis, f):
    """Map populations to moments, ``m = M f``, along the leading axis."""
    f = np.asarray(f, dtype=np.float64)
    return np.tensordot(basis.matrix, f, axes=(1, 0))


def from_moments(basis, m):
    """Map moments back to populations along the leading axis."""
    m = np.asarray(m, dtype=np.float64)
    return np.tensordot(basis.inverse, m, axes=(1, 0))


@functools.lru_cache(maxsize=16)
def mirror_fold(spec, ny):
    """Where a plane field symmetric about its mid-line keeps each value.

    Returns index arrays ``(j, y)``, each of shape ``(q, ny)``: population
    ``j0`` on row ``y0`` of such a field equals population ``j[j0, y0]`` on
    row ``y[j0, y0]``, which is one of the lower ``(ny + 1) // 2`` rows.  A
    row above the mid-line is read as its mirror image: row ``ny - 1 - y0``,
    population with ``vy`` negated.  On the middle row of an odd ``ny`` the
    populations moving down are read as those moving up.
    """
    index = {v: j for j, v in enumerate(zip(spec.vx, spec.vy))}
    mirror = np.array([index[vx, -vy] for vx, vy in zip(spec.vx, spec.vy)])
    j, y = np.indices((spec.q, ny))
    upper = (2 * y > ny - 1) | ((2 * y == ny - 1) & (spec.vy[j] < 0))
    fold = np.where(upper, mirror[j], j), np.where(upper, ny - 1 - y, y)
    for a in fold:
        a.setflags(write=False)
    return fold


def _closure_map(closures, faces):
    by_face = {}
    for c in closures:
        if c.face not in faces:
            raise ConfigurationError(
                f"closure face {c.face!r} not valid here, expected one of {faces}"
            )
        if c.face in by_face:
            raise ConfigurationError(f"face {c.face!r} has more than one closure")
        by_face[c.face] = c
    missing = [face for face in faces if face not in by_face]
    if missing:
        raise ConfigurationError(
            f"uncovered boundary links: no closure for face(s) {missing}"
        )
    return by_face


def _check_periodic_pair(lo, hi, axis):
    lo_p = lo.kind == boundaries.PERIODIC
    hi_p = hi.kind == boundaries.PERIODIC
    if lo_p != hi_p:
        raise ConfigurationError(
            f"periodic closure on axis {axis!r} must cover both opposing faces"
        )
    return lo_p


def _stream_d1q3(fstar, closures):
    by_face = _closure_map(closures, ("left", "right"))
    left, right = by_face["left"], by_face["right"]
    periodic = _check_periodic_pair(left, right, "x")
    fnew = np.empty_like(fstar)
    fnew[0] = fstar[0]
    fnew[1, 1:] = fstar[1, :-1]
    fnew[2, :-1] = fstar[2, 1:]
    if periodic:
        fnew[1, 0] = fstar[1, -1]
        fnew[2, -1] = fstar[2, 0]
        return fnew
    for closure, j, x in ((left, 1, 0), (right, 2, -1)):
        if closure.kind != boundaries.ANTI_BOUNCE_BACK:
            raise ConfigurationError(
                f"line lattice face {closure.face!r} supports periodic or "
                f"anti-bounce-back closures, got {closure.kind!r}"
            )
        opp = 2 if j == 1 else 1
        fnew[j, x] = boundaries.anti_bounce_back_1d(fstar[opp, x])
    return fnew


def _stream_d2q9(fstar, closures, alpha, beta):
    spec = D2Q9
    by_face = _closure_map(closures, ("west", "east", "south", "north"))
    x_periodic = _check_periodic_pair(by_face["west"], by_face["east"], "x")
    y_periodic = _check_periodic_pair(by_face["south"], by_face["north"], "y")

    fnew = np.empty_like(fstar)
    for j in range(spec.q):
        fnew[j] = np.roll(fstar[j], (spec.vy[j], spec.vx[j]), axis=(0, 1))

    if not y_periodic:
        for face, row in (("south", 0), ("north", -1)):
            closure = by_face[face]
            if closure.kind != boundaries.BOUNCE_BACK:
                raise ConfigurationError(
                    f"plane lattice face {face!r} supports periodic or "
                    f"bounce-back closures, got {closure.kind!r}"
                )
            inward = 1 if face == "south" else -1
            for j in range(spec.q):
                if spec.vy[j] == inward:
                    # Rolled values in this row came through the wall; replace
                    # with the same-node reflection.  Covers the two corner
                    # diagonals as well when x is not periodic.
                    fnew[j][row, :] = fstar[spec.opposite[j]][row, :]

    if not x_periodic:
        ny = fstar.shape[1]
        for face, col in (("west", 0), ("east", -1)):
            closure = by_face[face]
            if closure.kind != boundaries.PRESSURE_ABB:
                raise ConfigurationError(
                    f"plane lattice face {face!r} supports periodic or "
                    f"pressure anti-bounce-back closures, got {closure.kind!r}"
                )
            if alpha is None or beta is None:
                raise ConfigurationError(
                    "pressure anti-bounce-back closure needs equilibrium "
                    "parameters alpha and beta"
                )
            inward = 1 if face == "west" else -1
            for j in range(spec.q):
                if spec.vx[j] != inward:
                    continue
                vy = spec.vy[j]
                if y_periodic or vy == 0:
                    rows = slice(None)
                elif vy == 1:
                    # Source node sits one row below; skip the bottom row,
                    # whose link is doubly outside and already wall-filled.
                    rows = slice(1, ny)
                else:
                    rows = slice(0, ny - 1)
                fnew[j][rows, col] = boundaries.pressure_anti_bounce_back(
                    fstar[spec.opposite[j]][rows, col], closure.scalar, alpha, beta
                )
    return fnew


def stream(spec, fstar, closures, alpha=None, beta=None):
    """Advance post-collision populations one step along their velocities.

    Pull form: every population of the new field is read from the node
    one velocity upstream.  Links whose upstream node lies outside the
    domain are filled by the face closures while streaming, so each link
    is written exactly once.  Corner links whose upstream node is
    outside through two faces at once use the plain reflection rule.

    Parameters
    ----------
    spec : LatticeSpec
    fstar : array, shape (q, n) or (q, ny, nx)
        Post-collision populations.
    closures : iterable of BoundaryClosure
        One per face: left/right in 1-D, west/east/south/north in 2-D.
    alpha, beta : float, optional
        Equilibrium parameters, required by pressure closures.
    """
    fstar = np.asarray(fstar, dtype=np.float64)
    if spec.name == "d1q3":
        if fstar.ndim != 2 or fstar.shape[0] != 3:
            raise ValueError(f"expected line field of shape (3, n), got {fstar.shape}")
        return _stream_d1q3(fstar, closures)
    if spec.name == "d2q9":
        if fstar.ndim != 3 or fstar.shape[0] != 9:
            raise ValueError(
                f"expected plane field of shape (9, ny, nx), got {fstar.shape}"
            )
        return _stream_d2q9(fstar, closures, alpha, beta)
    raise ValueError(f"unknown lattice {spec.name!r}")
