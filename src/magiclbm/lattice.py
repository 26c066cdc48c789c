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

One pull stream serves both lattices, driven by a table of each field
axis's faces and closure kind (``_FACES``): every population is rolled
along its velocity, and every link that enters through a non-periodic
face is filled by the one per-link rule ``boundaries.incoming``.

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
    if variant == "a":
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
    elif variant == "b":
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
    return MomentBasis(f"d1q3-{variant}", matrix, inverse, ("rho", "j", "e"))


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
def mirror_fold(spec, n, axis):
    """Where a plane field mirrored about the middle of one axis keeps each value.

    ``axis`` ("x" or "y") has extent ``n``.  Returns ``(j, p, moved)``, each
    of shape ``(q, n)``: population ``j0`` at position ``p0`` along the axis
    is kept as population ``j[j0, p0]`` at ``p[j0, p0]``, one of the first
    ``(n + 1) // 2`` positions.  ``moved`` marks the values read from their
    mirror image (position ``n - 1 - p0``, velocity along the axis negated):
    every position past the middle and, on the middle one of an odd ``n``,
    the populations moving towards position 0.
    """
    v = getattr(spec, "v" + axis)
    sx, sy = {"x": (-1, 1), "y": (1, -1)}[axis]
    index = {u: j for j, u in enumerate(zip(spec.vx, spec.vy))}
    mirror = np.array([index[sx * vx, sy * vy] for vx, vy in zip(spec.vx, spec.vy)])
    j, p = np.indices((spec.q, n))
    moved = (2 * p > n - 1) | ((2 * p == n - 1) & (v[j] < 0))
    fold = np.where(moved, mirror[j], j), np.where(moved, n - 1 - p, p), moved
    for a in fold:
        a.setflags(write=False)
    return fold


# The faces of each lattice, one row per field axis after the population
# axis: the axis name (its velocity component is ``v<name>``), its (low,
# high) faces and the one closure kind besides periodic that they take.
_FACES = {
    "d1q3": (("x", ("left", "right"), boundaries.ANTI_BOUNCE_BACK),),
    "d2q9": (
        ("y", ("south", "north"), boundaries.BOUNCE_BACK),
        ("x", ("west", "east"), boundaries.PRESSURE_ABB),
    ),
}


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


def stream(spec, fstar, closures, alpha=None, beta=None):
    """Advance post-collision populations one step along their velocities.

    Pull form: every population of the new field is read from the node
    one velocity upstream.  Links whose upstream node lies outside the
    domain are filled by the face closures while streaming
    (``boundaries.incoming``), from the opposite population at the same
    node.  The faces are filled last axis first, so a corner link whose
    upstream node is outside through two faces at once takes the rule of
    the first axis: the walls' plain reflection in a channel.

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
    axes = _FACES[spec.name]
    if fstar.ndim != len(axes) + 1 or len(fstar) != spec.q:
        raise ValueError(
            f"expected a {spec.name} field of {spec.q} populations on "
            f"{len(axes)} axes, got shape {fstar.shape}"
        )
    faces = tuple(face for _, pair, _ in axes[::-1] for face in pair)
    by_face = _closure_map(closures, faces)
    v = [getattr(spec, "v" + name) for name, *_ in axes]
    rolls = [np.roll(f, [c[j] for c in v], range(len(v))) for j, f in enumerate(fstar)]
    fnew = np.stack(rolls)
    for axis in reversed(range(len(axes))):
        name, (lo, hi), kind = axes[axis]
        lo, hi = by_face[lo], by_face[hi]
        if (lo.kind == boundaries.PERIODIC) != (hi.kind == boundaries.PERIODIC):
            raise ConfigurationError(
                f"periodic closure on axis {name!r} must cover both opposing faces"
            )
        if lo.kind == boundaries.PERIODIC:
            continue
        for closure, inward, node in ((lo, 1, 0), (hi, -1, -1)):
            if closure.kind != kind:
                raise ConfigurationError(
                    f"{spec.name} face {closure.face!r} supports periodic or "
                    f"{kind} closures, got {closure.kind!r}"
                )
            at = (slice(None),) * axis + (node,)
            for j in np.flatnonzero(v[axis] == inward):
                fnew[j][at] = boundaries.incoming(
                    closure, fstar[spec.opposite[j]][at], alpha, beta
                )
    return fnew
