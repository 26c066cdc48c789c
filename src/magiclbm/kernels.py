"""Fused collide-stream time loops, derived from the reference modules.

The kernels take what the reference step takes: the face closures as a
tuple of ``boundaries.BoundaryClosure``, the tuple of relaxation rates, the
equilibrium coefficients and the driving.  Collision and stream are
affine in the populations, so a step is ``f <- sign * (K f + c)[idx] + b``.
``K, c`` are the reference collision (``to_moments``, the ``collision``
helpers, ``from_moments``) applied to unit vectors and to zero; ``idx,
sign`` the ``lattice.stream`` of an index field through the closures
with their imposed scalars zeroed; ``b`` the stream of zeros through
the closures as given.  Each output thus reads one source, a population
row with a sign and an offset, at some node.  ``_sources`` lists a map's
distinct sources once, and the step operator has one row per source,
``sign * [K c][row] + offset * e_ones``: a step is one product of that
table with ``[f; 1]`` and one gather, with no sign or offset left to
apply.  The column of ones is kept only when ``c`` (a source or a force)
or an offset (a pressure face) is nonzero, and a negated row only where
a population is pulled negated (anti-bounce-back).  A periodic line or
plane without driving multiplies by ``K`` alone, a force channel by
``[K c]``.  Maps and operators are built on first use and kept in small
bounded caches, two lookups per call.

A field symmetric about its mid-line, as a channel between two equal
walls is, marches on its lower ``(ny + 1) // 2`` rows, and one
antisymmetric about its mid-column, as a pressure channel is, on its
west ``(nx + 1) // 2`` columns: ``_mirror_map`` cuts the full grid's
``idx`` and ``b`` to those and reads each other source from its mirror
image (``_fold``), negated across the mid-column, so the boundary
physics stays that of ``lattice.stream``.  ``unfold`` rebuilds the grid.
Every plane march goes through ``_mirror_map``: on a full field the fold
is the identity and the map is ``_stream_map``'s.

``d1q3_map`` and ``d2q9_map`` export a step as a dense affine map ``(A,
r)``, scattered from the same source table and operator, for a direct
steady solve; ``unfold_weights`` gives the mass of an unfolded field as a
weighted sum of the marched values.

Both lattices share one time loop, ``_march``, with the gather bound
once before it.  The loop gathers through its own writable copy of
``idx`` (``take`` would copy a read-only index on every step) and
multiplies through the bound ``kc.dot`` (``np.dot`` would go through
numpy's dispatcher on every step).  The loop steps through a ring of m
states: step k multiplies row k - 1 (mod m) and gathers into row k, so
the march keeps m consecutive states with no copy.  Unobserved, m is 1
and the step is in place.  Observed, the ring holds about
``_OBSERVE_BYTES``, and the observer is handed a read-only view of it
when it is full, and once more for the rest, so observing costs one call
per block, not per step.
"""

import functools
import itertools

import numpy as np

from . import collision as col
from .boundaries import PRESSURE_ABB, BoundaryClosure
from .lattice import D1Q3, D2Q9, build_d1q3_basis, build_d2q9_basis, stream
from .lattice import from_moments, mirror_fold, to_moments

__all__ = ["d1q3_map", "d1q3_run", "d2q9_map", "d2q9_run", "unfold", "unfold_weights"]

# Body-force drivings of the plane kernel, named as the experiments name them.
_FORCINGS = (None, "force-split-half", "force-population")

# Size of the block of states an observer is handed at a time (at least one
# state): small enough to stay in cache, large enough to amortise the call.
_OBSERVE_BYTES = 1 << 18


def _frozen(a):
    a.setflags(write=False)
    return a


def _affine(collide, q, sources):
    """The step operator of a collision: one row per source a gather reads.

    ``K, c`` come from q unit vectors plus zero, and the row of the source
    ``(row, sign, offset)`` is ``sign * [K c][row] + offset * e_ones``.  The
    column of ones is kept only when ``c`` or an offset is nonzero (the
    step then multiplies ``[f; 1]``).
    """
    out = collide(np.eye(q, q + 1))
    kc = np.hstack([out[:, :q] - out[:, q:], out[:, q:]])
    rows, signs, offsets = (np.array(a) for a in zip(*sources))
    kc = signs[:, None] * kc[rows]
    kc[:, q] += offsets
    return _frozen(kc if kc[:, q].any() else np.ascontiguousarray(kc[:, :q]))


@functools.lru_cache(maxsize=64)
def _line_operator(variant, zeta, rates, source, sources):
    basis = build_d1q3_basis(variant)
    def collide(f):
        m = col.apply_diffusion_source(to_moments(basis, f), source)
        m = col.relax(m, col.equilibrium_d1q3(variant, m[0], zeta), rates)
        return from_moments(basis, col.apply_diffusion_source(m, source))
    return _affine(collide, 3, sources)


@functools.lru_cache(maxsize=64)
def _plane_operator(rates, alpha, beta, driving, fx, sources):
    if driving not in _FORCINGS:
        raise ValueError(f"unknown driving {driving!r}, expected one of {_FORCINGS}")
    basis = build_d2q9_basis()
    def collide(f):
        m = to_moments(basis, f)
        if driving == "force-split-half":
            m = col.apply_force_split_half(m, fx)
        m = col.relax(m, col.equilibrium_d2q9(m[0], m[1], m[2], alpha, beta), rates)
        if driving == "force-split-half":
            m = col.apply_force_split_half(m, fx)
        elif driving == "force-population":
            m = col.apply_force_population(m, fx)
        return from_moments(basis, m)
    return _affine(collide, 9, sources)


@functools.lru_cache(maxsize=16)
def _stream_map(spec, shape, closures, alpha, beta):
    """``idx`` into ``[post; -post]`` and the offset ``b`` (None when zero).

    The index field is streamed with the imposed scalars zeroed: an
    offset added to a pulled index would be truncated to a wrong one.
    """
    probe = np.arange(1.0, np.prod(shape) + 1.0).reshape(shape)
    plain = [BoundaryClosure(c.face, c.kind) for c in closures]
    pulled = stream(spec, probe, plain, alpha, beta).ravel()
    signed = pulled < 0
    idx = np.abs(pulled).astype(np.intp) - 1
    idx = np.where(signed, idx + idx.size, idx)
    b = stream(spec, np.zeros(shape), closures, alpha, beta).ravel()
    return _frozen(idx), (_frozen(b) if b.any() else None)


@functools.lru_cache(maxsize=16)
def _fold(shape, ny, nx):
    """Flat indices into a field of ``shape`` where it keeps each value of
    the full ``(9, ny, nx)`` grid, and whether it keeps it negated: lower
    rows hold the upper ones' mirror image about the mid-line, west columns
    the east ones' negated mirror image about the mid-column.
    """
    if shape[1] not in (ny, (ny + 1) // 2) or shape[2] not in (nx, (nx + 1) // 2):
        raise ValueError(
            f"a {shape[1]}x{shape[2]} field is not the full {ny}x{nx} grid, its "
            f"lower {(ny + 1) // 2} rows or its west {(nx + 1) // 2} columns"
        )
    j, y, x = np.indices((D2Q9.q, ny, nx)).reshape(3, -1)
    negated = np.zeros(j.size, dtype=bool)
    if shape[1] < ny:
        fold_j, fold_y, _ = mirror_fold(D2Q9, ny, "y")
        j, y = fold_j[j, y], fold_y[j, y]
    if shape[2] < nx:
        fold_j, fold_x, moved = mirror_fold(D2Q9, nx, "x")
        j, x, negated = fold_j[j, x], fold_x[j, x], moved[j, x]
    return _frozen(np.ravel_multi_index((j, y, x), shape)), _frozen(negated)


@functools.lru_cache(maxsize=16)
def _mirror_map(shape, ny, nx, closures, alpha, beta):
    """``_stream_map`` of a field of ``shape`` that holds all or part of a
    ``(9, ny, nx)`` grid: the full grid's map for the outputs in the field,
    each source read where ``_fold`` keeps it, through the signed gather.
    """
    full = (D2Q9.q, ny, nx)
    fold, negated = _fold(shape, ny, nx)
    idx, b = _stream_map(D2Q9, full, closures, alpha, beta)
    part = (slice(None), slice(shape[1]), slice(shape[2]))
    idx = idx.reshape(full)[part].ravel()
    source = idx % fold.size
    signed = (idx >= fold.size) != negated[source]
    idx = fold[source] + signed * idx.size
    if b is not None:
        b = _frozen(b.reshape(full)[part].ravel())
    return _frozen(idx), b


@functools.lru_cache(maxsize=16)
def _sources(q, stream_map, *key):
    """The distinct sources the gather of ``stream_map(*key)`` reads, and
    its ``idx`` into their table.

    Each output of a step pulls ``sign * (K f + c)[row]`` at some node and
    adds the offset ``b``: its source is ``(row, sign, offset)``.  The
    sources come unsigned first, in row order, so a map that pulls every
    population plainly and adds nothing reads ``[K c]`` as it is.  The
    new ``idx`` points into the ``(sources, nodes)`` table of their values.
    """
    idx, b = stream_map(*key)
    n = idx.size // q
    rows, nodes = np.divmod(idx % idx.size, n)
    offsets = np.zeros(idx.size) if b is None else b + 0.0  # no -0.0 source
    table, which = np.unique(
        np.column_stack([idx >= idx.size, rows, offsets]), axis=0, return_inverse=True
    )
    sources = tuple(
        (int(row), -1.0 if negated else 1.0, float(offset))
        for negated, row, offset in table
    )
    return sources, _frozen(which.reshape(-1) * n + nodes)


def unfold(f, ny=None, nx=None):
    """The full ``(9, ny, nx)`` grid, a fresh array, of a field that
    ``d2q9_run`` marches with these ``ny`` and ``nx``."""
    full = (D2Q9.q, ny or f.shape[1], nx or f.shape[2])
    fold, negated = _fold(f.shape, *full[1:])
    g = f.ravel()[fold]
    return np.negative(g, out=g, where=negated).reshape(full)


def _line(shape, closures, rates, variant, zeta, source):
    """The step operator and gather index of ``d1q3_run`` on a ``shape`` field."""
    shape = tuple(shape)
    sources, idx = _sources(D1Q3.q, _stream_map, D1Q3, shape, closures, None, None)
    return _line_operator(variant, float(zeta), rates, float(source), sources), idx


def _plane(shape, closures, rates, alpha, beta, driving, fx, ny, nx):
    """The step operator and gather index of ``d2q9_run`` on a ``shape`` field."""
    alpha, beta = float(alpha), float(beta)
    shape = tuple(shape)
    ny, nx = int(ny or shape[1]), int(nx or shape[2])
    if shape[2] < nx:
        faces = {c.face: (c.kind, c.scalar) for c in closures}
        kind, scalar = faces.get("west", (None, 0.0))
        opposite = kind == PRESSURE_ABB and faces.get("east") == (kind, -scalar)
        if driving is not None or not opposite:
            raise ValueError(
                "a field of west columns needs pressure-abb x faces with opposite "
                "scalars and no body force"
            )
    sources, idx = _sources(D2Q9.q, _mirror_map, shape, ny, nx, closures, alpha, beta)
    return _plane_operator(rates, alpha, beta, driving, float(fx), sources), idx


def _dense(shape, operator, idx):
    """``(A, r)`` of the step that gathers ``operator @ [f; 1]`` through
    ``idx``: output i reads source s at node n, ``s, n = divmod(idx[i], N)``,
    so ``A[i, j*N + n] = operator[s, j]`` and ``r[i] = operator[s, q]``."""
    q, size = shape[0], int(np.prod(shape))
    n = size // q
    s, node = np.divmod(idx, n)
    a = np.zeros((size, size))
    a[np.arange(size)[:, None], np.arange(q) * n + node[:, None]] = operator[s, :q]
    r = operator[s, q] if operator.shape[1] > q else np.zeros(size)
    return a, r


def unfold_weights(shape, ny=None, nx=None):
    """The weights w with ``unfold(f, ny, nx).sum() == w @ f.ravel()`` in
    exact arithmetic: how often, and with which sign, ``unfold`` reads each
    value of a ``shape`` field."""
    fold, negated = _fold(tuple(shape), ny or shape[1], nx or shape[2])
    signs = np.where(negated, -1.0, 1.0)
    return np.bincount(fold, signs, minlength=int(np.prod(shape)))


def _step_count(steps):
    """``steps`` as an int, refused unless it is a whole number >= 0."""
    try:
        count = int(steps)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != steps or count < 0:
        raise ValueError(f"steps must be a whole number >= 0, got {steps!r}")
    return count


def _march(f, steps, kc, idx, observe):
    steps = _step_count(steps)
    f = np.asarray(f, dtype=np.float64)
    q = len(f)
    m = 1 if observe is None else max(1, min(steps, _OBSERVE_BYTES // f.nbytes))
    ring = np.ones((m, kc.shape[1], f.size // q))
    states = ring[:, :q].reshape((m,) + f.shape)
    states[-1] = f
    post = np.empty((len(kc), ring.shape[2]))
    # take would copy the caches' shared read-only idx on every step, and
    # np.dot would dispatch on every step: one writable copy, and kc.dot.
    dot, take, idx = kc.dot, post.reshape(-1).take, idx.copy()
    writes = states.reshape(m, -1)
    rows = [(ring[k - 1], writes[k]) for k in range(m)]
    last = rows[-1][1] if observe is not None else None
    for src, dst in itertools.islice(itertools.cycle(rows), steps):
        dot(src, post)
        take(idx, out=dst, mode="clip")
        if dst is last:
            observe(_frozen(states.view()))
    if observe is not None and steps % m:
        observe(_frozen(states[: steps % m]))
    return states[(steps - 1) % m]


def d1q3_run(f, steps, closures, rates, variant, zeta, source=0.0, *, observe=None):
    """March the line scheme ``steps`` cycles; the (3, n) ``f`` is not modified.

    ``steps`` is a whole number >= 0 (of any numeric type); anything else
    is refused with ``ValueError``.  ``closures`` is the tuple of left and right ``BoundaryClosure``
    (periodic or anti-bounce-back), ``rates`` the line's rate tuple,
    ``variant`` the moment basis ("a" or "b") and ``zeta`` its energy
    equilibrium coefficient.  ``source`` is the per-step density source,
    added in two halves.  ``observe``, when given, is called with the
    states after the steps in order, as ``(m, 3, n)`` blocks of m >= 1
    consecutive steps (all ``steps`` states over its calls, none when
    ``steps`` is 0).  The block is a read-only view of the march's own
    states, valid only during the call: the observer must neither keep
    nor modify it.
    """
    operator, idx = _line(np.shape(f), closures, rates, variant, zeta, source)
    return _march(f, steps, operator, idx, observe)


def d2q9_run(
    f, steps, closures, rates, alpha, beta, driving=None, fx=0.0, *, ny=None,
    nx=None, observe=None,
):
    """March the plane scheme ``steps`` cycles, leaving the (9, rows, cols) ``f`` as is.

    ``closures`` is the tuple of west, east, south and north
    ``BoundaryClosure``; pressure-abb faces impose their ``scalar`` as a
    density offset.  ``rates`` is the tuple of nine rates, ``alpha, beta``
    the energy-row equilibrium coefficients.  ``driving`` says how the
    body force ``fx`` enters: "force-split-half", "force-population",
    or None for no force.  ``ny`` is the grid's full height, when ``f``
    holds only its lower ``(ny + 1) // 2`` rows: the field is then taken
    as mirror-symmetric about the mid-line, which holds for a symmetric
    start when the closures and the driving are symmetric too, as in a
    channel.  ``nx`` is the full width, when ``f`` holds only its west
    ``(nx + 1) // 2`` columns: the field is then taken as antisymmetric
    about the mid-column, which holds for an antisymmetric start, and is
    refused unless the x faces are pressure-abb with opposite scalars and
    there is no body force.  ``steps`` is checked and ``observe`` is
    called as in ``d1q3_run``, with ``(m, 9, rows, cols)`` blocks.
    """
    operator, idx = _plane(
        np.shape(f), closures, rates, alpha, beta, driving, fx, ny, nx
    )
    return _march(f, steps, operator, idx, observe)


def d1q3_map(shape, closures, rates, variant, zeta, source=0.0):
    """``(A, r)``, dense, with one ``d1q3_run`` step of a ``shape`` field
    equal to ``A @ f.ravel() + r``; the arguments are ``d1q3_run``'s."""
    return _dense(shape, *_line(shape, closures, rates, variant, zeta, source))


def d2q9_map(
    shape, closures, rates, alpha, beta, driving=None, fx=0.0, *, ny=None, nx=None
):
    """``(A, r)``, dense, with one ``d2q9_run`` step of a ``shape`` field
    equal to ``A @ f.ravel() + r``; the arguments are ``d2q9_run``'s."""
    return _dense(
        shape, *_plane(shape, closures, rates, alpha, beta, driving, fx, ny, nx)
    )
