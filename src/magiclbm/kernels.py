"""Fused collide-stream time loops, derived from the reference modules.

Collision and stream (with its face closures) are affine in the
populations, so a step is ``f <- sign * (K f + c)[idx] + b``.  ``K, c``
are the reference collision (``to_moments``, the ``collision`` helpers,
``from_moments``) applied to unit vectors and to zero; ``idx, sign``
the ``lattice.stream`` of an index field with the ``boundaries``
closures of the codes; ``b`` the stream of zeros with the pressure
closures.  A step is one product of ``[K c; -K -c]`` with ``[f; 1]``
and one gather.  Operators are built on first use and kept in small
bounded caches.
"""

import functools

import numpy as np

from . import boundaries as bnd, collision as col
from .lattice import D1Q3, D2Q9, MomentBasis, build_d2q9_basis, stream
from .lattice import from_moments, to_moments

__all__ = ["d1q3_run", "d2q9_run", "BC_PERIODIC", "BC_ANTI_BOUNCE_BACK"]
__all__ += ["X_PERIODIC", "X_PRESSURE", "Y_PERIODIC", "Y_WALL"]
__all__ += ["FORCE_NONE", "FORCE_SPLIT_HALF", "FORCE_POPULATION"]

# Codes of the line ends, plane columns (x), plane rows (y) and forcing.
BC_PERIODIC, BC_ANTI_BOUNCE_BACK = 0, 1
X_PERIODIC, X_PRESSURE = 0, 1
Y_PERIODIC, Y_WALL = 0, 1
FORCE_NONE, FORCE_SPLIT_HALF, FORCE_POPULATION = 0, 1, 2

_LINE_ENDS = {BC_PERIODIC: bnd.PERIODIC, BC_ANTI_BOUNCE_BACK: bnd.ANTI_BOUNCE_BACK}
_PLANE_ENDS = {X_PERIODIC: bnd.PERIODIC, X_PRESSURE: bnd.PRESSURE_ABB}
_PLANE_ROWS = {Y_PERIODIC: bnd.PERIODIC, Y_WALL: bnd.BOUNCE_BACK}


def _closures(spec, codes, delta_rho):
    """The ``boundaries`` closures that the integer codes stand for."""
    if spec is D1Q3:
        kind = _LINE_ENDS[codes[0]]
        return [bnd.BoundaryClosure(face, kind) for face in ("left", "right")]
    ends, rows = _PLANE_ENDS[codes[0]], _PLANE_ROWS[codes[1]]
    offset = delta_rho if ends == bnd.PRESSURE_ABB else 0.0
    faces = [("west", ends, offset), ("east", ends, -offset), ("south", rows)]
    return [bnd.BoundaryClosure(*face) for face in faces + [("north", rows)]]


def _frozen(a):
    a.setflags(write=False)
    return a


def _affine(collide, q):
    """``[K c; -K -c]`` of a collision, from q unit vectors plus zero."""
    out = collide(np.eye(q, q + 1))
    kc = np.hstack([out[:, :q] - out[:, q:], out[:, q:]])
    return _frozen(np.vstack([kc, -kc]))


@functools.lru_cache(maxsize=64)
def _line_operator(name, matrix, inverse, s1, s2, c2, source):
    matrix, inverse = (np.frombuffer(a).reshape(3, 3) for a in (matrix, inverse))
    basis = MomentBasis(name, 1.0, matrix, inverse, ("rho", "j", "e"))
    variant, settings = name[-1], col.RelaxationSettings((0.0, s1, s2))
    zeta = 2.0 * c2 if variant == "a" else c2
    def collide(f):
        m = col.apply_diffusion_source(to_moments(basis, f), source, "pre")
        m = col.relax(m, col.equilibrium_d1q3(variant, m[0], zeta), settings)
        return from_moments(basis, col.apply_diffusion_source(m, source, "post"))
    return _affine(collide, 3)


@functools.lru_cache(maxsize=64)
def _plane_operator(s, alpha, beta, fx, force_code):
    basis, settings = build_d2q9_basis(), col.RelaxationSettings(s)
    def collide(f):
        m = to_moments(basis, f)
        if force_code == FORCE_SPLIT_HALF:
            m = col.apply_force_split_half(m, fx, "pre")
        m = col.relax(m, col.equilibrium_d2q9(m[0], m[1], m[2], alpha, beta), settings)
        if force_code == FORCE_SPLIT_HALF:
            m = col.apply_force_split_half(m, fx, "post")
        elif force_code == FORCE_POPULATION:
            m = col.apply_force_population(m, fx)
        return from_moments(basis, m)
    return _affine(collide, 9)


@functools.lru_cache(maxsize=16)
def _gather(spec, shape, codes):
    """Where in ``[post; -post]`` each streamed population is pulled from."""
    probe = np.arange(1.0, np.prod(shape) + 1.0).reshape(shape)
    pulled = stream(spec, probe, _closures(spec, codes, 0.0), 0.0, 0.0).ravel()
    idx = np.abs(pulled).astype(np.intp) - 1
    return _frozen(np.where(pulled < 0, idx + idx.size, idx))


@functools.lru_cache(maxsize=16)
def _pressure_offset(shape, codes, delta_rho, alpha, beta, press_coeff):
    """``b``: what the pressure closures add to a stream of zeros."""
    if press_coeff != bnd.pressure_abb_coefficient(alpha, beta):
        raise ValueError(f"press_coeff={press_coeff!r} is not the closure weight")
    closures = _closures(D2Q9, codes, delta_rho)
    return _frozen(stream(D2Q9, np.zeros(shape), closures, alpha, beta).ravel())


def _march(f, steps, kc, idx, b=None):
    f, q = np.asarray(f, dtype=np.float64), kc.shape[1] - 1
    state = np.ones((q + 1, f.size // q))
    state[:q] = f.reshape(q, -1)
    post = np.empty((2 * q, state.shape[1]))
    flat = state[:q].reshape(-1)
    for _ in range(steps):
        np.matmul(kc, state, out=post)
        np.take(post.reshape(-1), idx, out=flat, mode="clip")
        if b is not None:
            flat += b
    return state[:q].reshape(f.shape)


def d1q3_run(f, steps, basis, s1, s2, c2, source, bc_code):
    """March the line scheme ``steps`` cycles; the (3, n) ``f`` is not modified.

    ``basis`` (variant a or b) defines the moment map, ``s1, s2`` are the
    flux and energy rates, ``c2`` the energy equilibrium coefficient
    (a: zeta/2, b: zeta), ``source`` the per-step density source, added
    in two halves, and ``bc_code`` BC_PERIODIC or BC_ANTI_BOUNCE_BACK.
    """
    key = (basis.name, basis.matrix.tobytes(), basis.inverse.tobytes())
    operator = _line_operator(*key, float(s1), float(s2), float(c2), float(source))
    return _march(f, int(steps), operator, _gather(D1Q3, np.shape(f), (int(bc_code),)))


def d2q9_run(f, steps, settings, alpha, beta, fx=0.0, force_code=FORCE_NONE,
             x_code=X_PERIODIC, y_code=Y_WALL, delta_rho=0.0, press_coeff=0.0):
    """March the plane scheme ``steps`` cycles; the (9, ny, nx) ``f`` is not modified.

    ``settings`` holds the nine rates, ``alpha, beta`` the energy-row
    equilibrium coefficients; the body force ``fx`` is applied as
    ``force_code`` says.  X_PRESSURE imposes the density offset
    +delta_rho at the west column and -delta_rho at the east one, with
    the weight ``press_coeff == pressure_abb_coefficient(alpha, beta)``.
    """
    alpha, beta = float(alpha), float(beta)
    operator = _plane_operator(settings.s, alpha, beta, float(fx), int(force_code))
    shape, codes = np.shape(f), (int(x_code), int(y_code))
    pressure = x_code == X_PRESSURE and delta_rho != 0.0
    offset = (shape, codes, float(delta_rho), alpha, beta, float(press_coeff))
    b = _pressure_offset(*offset) if pressure else None
    return _march(f, int(steps), operator, _gather(D2Q9, shape, codes), b)
