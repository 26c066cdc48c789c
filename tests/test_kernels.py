"""Tests of the fused time loops against the compositional building blocks.

The marching kernels run every step as one affine operator derived from
the moment maps, relax, forcing and stream.  Here the fused march is
checked against the same update assembled from those separately tested
pieces, one step and many steps, across every closure and driving
combination and across changes of shape, closures and parameters
within one process (a stale operator cache would show there).
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from magiclbm.boundaries import (
    BoundaryClosure,
    diffusion_closures,
    force_channel_closures,
    periodic_line_closures,
    periodic_plane_closures,
    pressure_channel_closures,
)
from magiclbm.collision import (
    apply_diffusion_source,
    apply_force_population,
    apply_force_split_half,
    equilibrium_d1q3,
    equilibrium_d2q9,
    relax,
    relaxation_d1q3,
    relaxation_d2q9,
)
from magiclbm import kernels
from magiclbm.kernels import d1q3_run, d2q9_run
from magiclbm.lattice import (
    D1Q3,
    D2Q9,
    build_d1q3_basis,
    build_d2q9_basis,
    from_moments,
    stream,
    to_moments,
)

ZETA = {"a": 1.0 / 3.0, "b": 1.0}

# ---------------------------------------------------------------------------
# Reference compositions of one full step
# ---------------------------------------------------------------------------


def _reference_line_collision(variant, sigma1, sigma2, zeta, source):
    basis = build_d1q3_basis(variant)
    settings = relaxation_d1q3(sigma1, sigma2)

    def collide(f):
        m = to_moments(basis, f)
        m = apply_diffusion_source(m, source)
        meq = equilibrium_d1q3(variant, m[0], zeta)
        m = relax(m, meq, settings)
        m = apply_diffusion_source(m, source)
        return from_moments(basis, m)

    return collide


def _reference_line_step(f, variant, sigma1, sigma2, zeta, source, closures):
    fstar = _reference_line_collision(variant, sigma1, sigma2, zeta, source)(f)
    return stream(D1Q3, fstar, closures)


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "walls"])
def test_line_kernel_matches_composed_step(variant, periodic):
    rng = np.random.default_rng(21)
    f = rng.normal(size=(3, 9))
    closures = periodic_line_closures() if periodic else diffusion_closures()
    zeta = ZETA[variant]
    expect = _reference_line_step(f, variant, 0.9, 0.2, zeta, 1e-6, closures)
    got = d1q3_run(f, 1, closures, relaxation_d1q3(0.9, 0.2), variant, zeta, 1e-6)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def _reference_plane_collision(sigma5, sigma8, alpha, beta, fx, driving):
    basis = build_d2q9_basis()
    settings = relaxation_d2q9(sigma5, sigma8)

    def collide(f):
        m = to_moments(basis, f)
        if driving == "force-split-half":
            m = apply_force_split_half(m, fx)
        meq = equilibrium_d2q9(m[0], m[1], m[2], alpha, beta)
        m = relax(m, meq, settings)
        if driving == "force-split-half":
            m = apply_force_split_half(m, fx)
        elif driving == "force-population":
            m = apply_force_population(m, fx)
        return from_moments(basis, m)

    return collide


def _reference_plane_step(f, sigma5, sigma8, alpha, beta, fx, driving, closures):
    fstar = _reference_plane_collision(sigma5, sigma8, alpha, beta, fx, driving)(f)
    return stream(D2Q9, fstar, closures, alpha=alpha, beta=beta)


@pytest.mark.parametrize(
    "driving", [None, "force-split-half", "force-population"],
    ids=["unforced", "split-half", "population"],
)
def test_plane_kernel_matches_composed_step_in_channel(driving):
    rng = np.random.default_rng(33)
    f = rng.normal(size=(9, 6, 5))
    fx = 2e-6 if driving is not None else 0.0
    closures = force_channel_closures()
    expect = _reference_plane_step(f, 0.3, 1.1, -2.0, 1.0, fx, driving, closures)
    got = d2q9_run(f, 1, closures, relaxation_d2q9(0.3, 1.1), -2.0, 1.0, driving, fx)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_plane_kernel_matches_composed_step_pressure():
    # Both criterion-5 pairs: closure weights 2/9 and 1/12.
    rng = np.random.default_rng(37)
    f = rng.normal(size=(9, 5, 6))
    closures = pressure_channel_closures(3e-6)
    for alpha, beta in ((-2.0, 1.0), (-2.5, 2.5)):
        expect = _reference_plane_step(
            f, 0.25, 0.75, alpha, beta, 0.0, None, closures
        )
        got = d2q9_run(f, 1, closures, relaxation_d2q9(0.25, 0.75), alpha, beta)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_plane_kernel_matches_composed_step_fully_periodic():
    rng = np.random.default_rng(41)
    f = rng.normal(size=(9, 4, 4))
    closures = periodic_plane_closures()
    expect = _reference_plane_step(f, 0.5, 0.9, -2.0, 1.0, 0.0, None, closures)
    got = d2q9_run(f, 1, closures, relaxation_d2q9(0.5, 0.9), -2.0, 1.0)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_unknown_driving_is_rejected():
    with pytest.raises(ValueError, match="unknown driving"):
        d2q9_run(
            np.zeros((9, 5, 6)), 1, force_channel_closures(),
            relaxation_d2q9(0.3, 1.1), -2.0, 1.0, "force-half", 1e-6,
        )


# ---------------------------------------------------------------------------
# Long marches, every closure combination, and operator caching
# ---------------------------------------------------------------------------

LINE_CASES = {
    "line-periodic": periodic_line_closures(),
    "line-anti-bounce-back": diffusion_closures(),
}

PLANE_CASES = {
    "plane-split-half": (force_channel_closures(), "force-split-half"),
    "plane-population": (force_channel_closures(), "force-population"),
    "plane-pressure": (pressure_channel_closures(3e-6), None),
    "plane-periodic": (periodic_plane_closures(), None),
}

# Round-off of one step is a few ulps of the field's scale; over STEPS
# steps of a stable scheme it grows at most linearly.
STEPS = 64
MARCH_ATOL = STEPS * 16 * np.finfo(np.float64).eps


def _line_call(
    f, steps, variant, sigma1, sigma2, closures, source=1e-6, observe=None
):
    settings = relaxation_d1q3(sigma1, sigma2)
    return d1q3_run(
        f, steps, closures, settings, variant, ZETA[variant], source, observe=observe
    )


def _line_reference(f, steps, variant, sigma1, sigma2, closures, source=1e-6):
    for _ in range(steps):
        f = _reference_line_step(
            f, variant, sigma1, sigma2, ZETA[variant], source, closures
        )
    return f


def _plane_call(f, steps, sigma5, sigma8, closures, driving, observe=None):
    settings = relaxation_d2q9(sigma5, sigma8)
    return d2q9_run(
        f, steps, closures, settings, -2.0, 1.0, driving, 2e-6, observe=observe
    )


def _plane_reference(f, steps, sigma5, sigma8, closures, driving):
    fx = 0.0 if driving is None else 2e-6
    for _ in range(steps):
        f = _reference_plane_step(f, sigma5, sigma8, -2.0, 1.0, fx, driving, closures)
    return f


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("case", list(LINE_CASES))
def test_line_march_tracks_composed_steps(variant, case):
    closures = LINE_CASES[case]
    f = np.random.default_rng(70).normal(size=(3, 13))
    got = _line_call(f, STEPS, variant, 0.9, 0.2, closures)
    expect = _line_reference(f, STEPS, variant, 0.9, 0.2, closures)
    assert np.max(np.abs(got - expect)) <= MARCH_ATOL * np.max(np.abs(expect))


@pytest.mark.parametrize("case", list(PLANE_CASES))
def test_plane_march_tracks_composed_steps_on_non_square_grid(case):
    closures, driving = PLANE_CASES[case]
    f = np.random.default_rng(71).normal(size=(9, 5, 8))
    got = _plane_call(f, STEPS, 0.3, 1.1, closures, driving)
    expect = _plane_reference(f, STEPS, 0.3, 1.1, closures, driving)
    assert np.max(np.abs(got - expect)) <= MARCH_ATOL * np.max(np.abs(expect))


def test_operators_are_rebuilt_when_shape_codes_or_parameters_change():
    # Alternate every cache key in one process, twice over, so a cached
    # operator, gather or offset served to the wrong call would show.  Each
    # set of rates alternates between a signed map (anti-bounce-back,
    # pressure) and an unsigned one, and between a zero and a nonzero
    # constant column (a source or a force), which size the operator.
    rng = np.random.default_rng(72)
    for _ in range(2):
        for n, sigmas, case, source in itertools.product(
            (9, 14), ((0.9, 0.2), (0.4, 0.7)), list(LINE_CASES), (1e-6, 0.0)
        ):
            f = rng.normal(size=(3, n))
            closures = LINE_CASES[case]
            got = _line_call(f, 1, "a", *sigmas, closures, source)
            expect = _line_reference(f, 1, "a", *sigmas, closures, source)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)
        for shape, sigmas, case, delta_rho in itertools.product(
            ((9, 5, 7), (9, 6, 4)),
            ((0.3, 1.1), (0.7, 0.4)),
            ("plane-split-half", "plane-pressure", "plane-periodic"),
            (3e-6, 5e-6),
        ):
            f = rng.normal(size=shape)
            closures, driving = PLANE_CASES[case]
            if case == "plane-pressure":
                closures = pressure_channel_closures(delta_rho)
            got = _plane_call(f, 1, *sigmas, closures, driving)
            expect = _plane_reference(f, 1, *sigmas, closures, driving)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


# The step multiplies only the operator rows its gather reads.  Below it is
# checked bitwise against the stacked step it replaced: ``[K c; -K -c]``
# times ``[f; 1]``, with ``K, c`` from the reference collision.  The cases
# are the six closure families, then the benchmark's grids: the roots'
# lines and channels at their rates, transport's line and plane.
LEAN_LINE_CASES = {
    "line-periodic": (13, periodic_line_closures(), "b", (0.9, 0.2), 1e-6),
    "line-anti-bounce-back": (13, diffusion_closures(), "b", (0.9, 0.2), 1e-6),
    "line-n32-anti-bounce-back": (32, diffusion_closures(), "a", (2.0, 0.0625), 1e-6),
    "line-n64-periodic": (64, periodic_line_closures(), "a", (1.0, 0.125), 0.0),
}

LEAN_PLANE_CASES = {
    **{
        case: ((5, 8), closures, (0.3, 1.1), driving, 2e-6)
        for case, (closures, driving) in PLANE_CASES.items()
    },
    "split-half-100x7": (
        (7, 100), force_channel_closures(), (0.1875, 2.0), "force-split-half", 1e-6
    ),
    "population-20x11": (
        (11, 20), force_channel_closures(), (0.09375, 2.0), "force-population", 1e-6
    ),
    "pressure-40x9": (
        (9, 40), pressure_channel_closures(1e-6), (0.09375, 2.0), None, 0.0
    ),
    "pressure-quarter-40x9": (
        (5, 20), pressure_channel_closures(1e-6), (0.09375, 2.0), None, 0.0
    ),
    "periodic-64x4": ((4, 64), periodic_plane_closures(), (0.375, 1.0), None, 0.0),
}

# The full (ny, nx) grid of a case that marches only part of it: the
# benchmark's pressure channel marches its lower rows and west columns, so
# its offsets and negated pulls are those of the x fold.
LEAN_FULL_GRIDS = {"pressure-quarter-40x9": (9, 40)}

LEAN_STEPS = 100


def _stacked_operator(collide, q):
    """``[K c; -K -c]`` of a collision, built whole."""
    out = collide(np.eye(q, q + 1))
    kc = np.hstack([out[:, :q] - out[:, q:], out[:, q:]])
    return np.vstack([kc, -kc])


def _assert_lean_step_equals_stacked_step(f, run, collide, raw_map, monkeypatch):
    # The kernel's operator, taken from its one march.
    operands, states, march = [], [], kernels._march

    def capture(f, steps, kc, idx, observe):
        operands.append(kc)
        return march(f, steps, kc, idx, observe)

    monkeypatch.setattr(kernels, "_march", capture)
    run(f, LEAN_STEPS, observe=lambda block: states.extend(block.copy()))
    [kc] = operands
    q = len(f)
    stacked = _stacked_operator(collide, q)
    # Each row of the kernel's operator is a row of the stacked one, its
    # ones column (when kept) carrying the row's offset.
    assert all((row[:q] == stacked[:, :q]).all(axis=1).any() for row in kc)
    # The stacked step, gathered through the raw stream map, then offset.
    idx, b = raw_map
    state = np.ones((q + 1, f.size // q))
    state[:q] = f.reshape(q, -1)
    flat = state[:q].reshape(-1)
    assert len(states) == LEAN_STEPS
    for got in states:
        np.matmul(stacked, state).reshape(-1).take(idx, out=flat, mode="clip")
        if b is not None:
            flat += b
        assert np.array_equal(got, flat.reshape(f.shape))


@pytest.mark.parametrize("case", list(LEAN_LINE_CASES))
def test_lean_line_step_equals_the_stacked_step_bitwise(case, monkeypatch):
    n, closures, variant, sigmas, source = LEAN_LINE_CASES[case]
    f = np.random.default_rng(80).normal(size=(3, n))
    _assert_lean_step_equals_stacked_step(
        f,
        lambda f, steps, **kw: _line_call(
            f, steps, variant, *sigmas, closures, source, **kw
        ),
        _reference_line_collision(variant, *sigmas, ZETA[variant], source),
        kernels._stream_map(D1Q3, f.shape, closures, None, None),
        monkeypatch,
    )


@pytest.mark.parametrize("case", list(LEAN_PLANE_CASES))
def test_lean_plane_step_equals_the_stacked_step_bitwise(case, monkeypatch):
    shape, closures, sigmas, driving, fx = LEAN_PLANE_CASES[case]
    ny, nx = LEAN_FULL_GRIDS.get(case, shape)
    f = np.random.default_rng(81).normal(size=(9,) + shape)
    settings = relaxation_d2q9(*sigmas)
    _assert_lean_step_equals_stacked_step(
        f,
        lambda f, steps, **kw: d2q9_run(
            f, steps, closures, settings, -2.0, 1.0, driving, fx, ny=ny, nx=nx, **kw
        ),
        _reference_plane_collision(*sigmas, -2.0, 1.0, fx, driving),
        kernels._mirror_map(f.shape, ny, nx, closures, -2.0, 1.0),
        monkeypatch,
    )


# The dense one-step map ``A @ f.ravel() + r`` against one kernel step.
# The product sums each output's q terms (and its offset) with the zeros
# between them.  Where the BLAS's matrix-vector product keeps them in one
# partial sum, it rounds as the kernel's matrix product does: bitwise,
# on one BLAS thread or two, on every field tried.  Elsewhere both are
# dot products of q + 1 terms, each within (q + 1) eps of the row's
# absolute sum of its exact value; measured, they differ by at most 1.77
# eps of it (split-half-100x7, 12 fields).
DENSE_BITWISE = {
    "line-n32-anti-bounce-back", "line-n64-periodic", "plane-split-half",
    "plane-population", "plane-pressure", "plane-periodic", "split-half-column-7",
}

# The force columns the steady solve maps: the lower rows of one column.
DENSE_COLUMN_CASES = {
    "split-half-column-7": ((4, 1), (7, 1), (0.1875, 2.0), "force-split-half"),
    "population-column-11": ((6, 1), (11, 1), (0.09375, 2.0), "force-population"),
}


def _assert_dense_map_is_one_step(case, f, a, r, step):
    got = a @ f.ravel() + r
    if case in DENSE_BITWISE:
        assert np.array_equal(got, step.ravel())
    # |A| in place: the largest map, split-half-100x7's, takes 320 MB.
    row_sums = np.abs(a, out=a) @ np.abs(f.ravel()) + np.abs(r)
    bound = 2 * (len(f) + 1) * np.finfo(float).eps * row_sums
    assert np.all(np.abs(got - step.ravel()) <= bound)


@pytest.mark.parametrize("case", list(LEAN_LINE_CASES))
def test_dense_line_map_is_one_kernel_step(case):
    n, closures, variant, sigmas, source = LEAN_LINE_CASES[case]
    f = np.random.default_rng(82).normal(size=(3, n))
    args = (closures, relaxation_d1q3(*sigmas), variant, ZETA[variant], source)
    a, r = kernels.d1q3_map(f.shape, *args)
    _assert_dense_map_is_one_step(case, f, a, r, d1q3_run(f, 1, *args))


@pytest.mark.parametrize("case", [*LEAN_PLANE_CASES, *DENSE_COLUMN_CASES])
def test_dense_plane_map_is_one_kernel_step(case):
    if case in DENSE_COLUMN_CASES:
        shape, (ny, nx), sigmas, driving = DENSE_COLUMN_CASES[case]
        closures, fx = force_channel_closures(), 1e-6
    else:
        shape, closures, sigmas, driving, fx = LEAN_PLANE_CASES[case]
        ny, nx = LEAN_FULL_GRIDS.get(case, shape)
    f = np.random.default_rng(83).normal(size=(9,) + shape)
    args = (closures, relaxation_d2q9(*sigmas), -2.0, 1.0, driving, fx)
    a, r = kernels.d2q9_map(f.shape, *args, ny=ny, nx=nx)
    _assert_dense_map_is_one_step(case, f, a, r, d2q9_run(f, 1, *args, ny=ny, nx=nx))


@pytest.mark.parametrize("ny", [7, 8, 11])
@pytest.mark.parametrize("driving", ["force-split-half", "force-population"])
def test_unfold_weights_are_the_left_null_vector_of_a_force_column(driving, ny):
    # The step conserves the mass of the full column, the weighted sum of
    # the marched values; the mid-row of an odd channel holds values read
    # from their mirror images, which weigh nothing.
    shape = (9, (ny + 1) // 2, 1)
    args = (force_channel_closures(), relaxation_d2q9(0.3, 1.1), -2.0, 1.0, driving, 1e-6)
    a, _ = kernels.d2q9_map(shape, *args, ny=ny, nx=1)
    w = kernels.unfold_weights(shape, ny=ny, nx=1)
    assert np.max(np.abs(w @ a - w)) <= 1e-14
    f = np.random.default_rng(84).normal(size=shape)
    assert w @ f.ravel() == pytest.approx(kernels.unfold(f, ny=ny).sum(), rel=1e-12)


def test_operators_are_built_on_first_use_without_scipy():
    code = (
        "import sys, magiclbm.cli\n"
        "from magiclbm import kernels\n"
        "assert kernels._stream_map.cache_info().currsize == 0\n"
        "assert kernels._plane_operator.cache_info().currsize == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Marching invariants
# ---------------------------------------------------------------------------


def test_line_march_is_additive():
    rng = np.random.default_rng(60)
    f = rng.normal(size=(3, 12))
    args = (diffusion_closures(), (0.0, 0.8, 0.3), "b", 1.0, 1e-6)
    whole = d1q3_run(f, 10, *args)
    split = d1q3_run(d1q3_run(f, 6, *args), 4, *args)
    assert np.array_equal(whole, split)


def test_plane_march_is_additive():
    rng = np.random.default_rng(61)
    f = rng.normal(size=(9, 6, 8)) * 1e-3
    args = (
        force_channel_closures(), relaxation_d2q9(0.375, 1.0), -2.0, 1.0,
        "force-split-half", 1e-6,
    )
    whole = d2q9_run(f, 10, *args)
    split = d2q9_run(d2q9_run(f, 7, *args), 3, *args)
    assert np.array_equal(whole, split)


OBSERVED_CASES = {
    "line-anti-bounce-back": (
        (3, 10),
        lambda f, n, **kw: _line_call(f, n, "b", 0.9, 0.2, diffusion_closures(), **kw),
    ),
    "plane-split-half": (
        (9, 5, 7),
        lambda f, n, **kw: _plane_call(
            f, n, 0.3, 1.1, force_channel_closures(), "force-split-half", **kw
        ),
    ),
    "plane-pressure": (
        (9, 5, 7),
        lambda f, n, **kw: _plane_call(
            f, n, 0.3, 1.1, pressure_channel_closures(3e-6), None, **kw
        ),
    ),
}


@pytest.mark.parametrize("case", list(OBSERVED_CASES))
def test_observed_march_equals_chained_one_step_calls(case, monkeypatch):
    # The observer gets the n states in order, in blocks that fill the byte
    # budget (one state at least) and a last partial one, bitwise the states
    # the chained one-step calls reach; the march ends on the last one.
    # The budgets cover the ring's wrap edges: one full block, a budget
    # clipped to the step count, and a march that ends on the last row.
    shape, run = OBSERVED_CASES[case]
    f = np.random.default_rng(64).normal(size=shape)
    for states, n, sizes in (
        (3.5, 13, [3, 3, 3, 3, 1]),
        (0.5, 13, [1] * 13),
        (13, 13, [13]),
        (20, 13, [13]),
        (4, 12, [4, 4, 4]),
    ):
        budget = int(states * f.nbytes)
        monkeypatch.setattr(kernels, "_OBSERVE_BYTES", budget)
        blocks = []
        got = run(f, n, observe=lambda block: blocks.append(block.copy()))
        assert [len(block) for block in blocks] == sizes
        assert all(block.nbytes <= max(budget, f.nbytes) for block in blocks)
        chained = f
        for state in np.concatenate(blocks):
            chained = run(chained, 1)
            assert np.array_equal(state, chained)
        assert np.array_equal(got, chained)
        assert np.array_equal(run(f, n), got)
    calls = []
    assert np.array_equal(run(f, 0, observe=calls.append), f)
    assert calls == []



@pytest.mark.parametrize("case", list(OBSERVED_CASES))
def test_observer_block_is_read_only(case):
    # The block is a view of the march's own states, so writing into it
    # would change the march: it is refused.
    shape, run = OBSERVED_CASES[case]
    f = np.random.default_rng(65).normal(size=shape)

    def scribble(block):
        block[0] = 0.0

    with pytest.raises(ValueError, match="read-only"):
        run(f, 5, observe=scribble)


# The three march shapes of a root search: a line, a force column (lower
# rows of a 7-high channel) and the pressure quarter grid of 40x9.
GATHER_CASES = {
    "line": ((3, 32), diffusion_closures(), {}),
    "force-column": (
        (9, 4, 1), force_channel_closures(),
        {"driving": "force-split-half", "fx": 1e-6, "ny": 7},
    ),
    "pressure-quarter": (
        (9, 5, 20), pressure_channel_closures(3e-6), {"ny": 9, "nx": 40}
    ),
}


def _gather_call(f, steps, closures, kw, sigmas=(1.0, 1.0)):
    """March a ``GATHER_CASES`` field at the given rates."""
    if f.ndim == 2:
        rates = relaxation_d1q3(*sigmas)
        return d1q3_run(f, steps, closures, rates, "a", ZETA["a"], 1e-6)
    return d2q9_run(f, steps, closures, relaxation_d2q9(*sigmas), -2.0, 1.0, **kw)


@pytest.mark.parametrize("case", list(GATHER_CASES))
def test_step_gathers_through_a_writable_index_and_keeps_the_caches_read_only(
    case, monkeypatch
):
    # take copies a read-only, non-intp or non-contiguous index on every
    # call, so each step must hand it a writable C-contiguous intp one; that
    # copy is the march's own, and the cached maps and operators every later
    # call shares stay read-only.  A step is one product and one gather: no
    # ufunc (an offset added in place) touches the march's arrays.
    shape, closures, kw = GATHER_CASES[case]
    seen, ufuncs, operands, march = [], [], [], kernels._march

    class Recording(np.ndarray):
        def take(self, indices, *args, **kwargs):
            flags = indices.flags
            seen.append((indices.dtype, flags.writeable, flags.c_contiguous))
            return super().take(indices, *args, **kwargs)

        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            ufuncs.append(ufunc.__name__)
            args = [a.view(np.ndarray) if isinstance(a, Recording) else a for a in args]
            if "out" in kwargs:
                kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
            return getattr(ufunc, method)(*args, **kwargs)

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(*args, **kwargs):
            return np.empty(*args, **kwargs).view(Recording)

        @staticmethod
        def ones(*args, **kwargs):
            return np.ones(*args, **kwargs).view(Recording)

    def capture(f, steps, kc, idx, observe):
        operands.append((kc, idx))
        return march(f, steps, kc, idx, observe)

    monkeypatch.setattr(kernels, "np", RecordingNumpy())
    monkeypatch.setattr(kernels, "_march", capture)
    _gather_call(np.random.default_rng(66).normal(size=shape), 5, closures, kw)
    monkeypatch.undo()
    assert seen == [(np.dtype(np.intp), True, True)] * 5
    assert ufuncs == []
    [cached] = operands
    if len(shape) == 3:
        full = (9, kw["ny"], kw.get("nx", shape[2]))
        cached += kernels._stream_map(D2Q9, full, closures, -2.0, 1.0)
    assert not any(a.flags.writeable for a in cached if a is not None)


# The source tables of the benchmark's pressure quarter grid and n = 32
# anti-bounce-back line, and of transport's periodic 64-node row: every
# plain row, negated rows only where pulled negated, and a ones column only
# for a source or an offset.
TABLE_CASES = {
    "pressure-quarter": (*GATHER_CASES["pressure-quarter"], (15, 10)),
    "line-n32": (*GATHER_CASES["line"], (5, 4)),
    "periodic-row": ((9, 1, 64), periodic_plane_closures(), {}, (9, 9)),
}


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_source_table_holds_exactly_what_the_gather_reads(case, monkeypatch):
    # Every row of the operator is read, no two rows are equal, and the
    # table is built once for its map, not again for each new operator.
    shape, closures, kw, table = TABLE_CASES[case]
    operands, march = [], kernels._march

    def capture(f, steps, kc, idx, observe):
        operands.append((kc, idx))
        return march(f, steps, kc, idx, observe)

    monkeypatch.setattr(kernels, "_march", capture)
    kernels._sources.cache_clear()
    f = np.random.default_rng(67).normal(size=shape)
    for sigmas in ((1.0, 1.0), (0.375, 2.0), (1.0, 1.0)):
        _gather_call(f, 2, closures, kw, sigmas)
    assert kernels._sources.cache_info().misses == 1
    (kc, idx), (other, other_idx), _ = operands
    assert kc.shape == other.shape == table
    assert idx is other_idx
    assert not np.array_equal(kc, other)
    assert np.array_equal(np.unique(idx // f[0].size), np.arange(len(kc)))
    assert len(np.unique(kc, axis=0)) == len(kc)


STEP_COUNT_CASES = {
    "line": lambda f, n, **kw: _line_call(f, n, "b", 0.9, 0.2, diffusion_closures(), **kw),
    "plane": lambda f, n, **kw: _plane_call(
        f, n, 0.3, 1.1, pressure_channel_closures(3e-6), None, **kw
    ),
}


@pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
@pytest.mark.parametrize("case", list(STEP_COUNT_CASES))
def test_step_count_must_be_a_whole_number(case, observed):
    # A negative or fractional count is refused by name, where islice would
    # fail on one and int() would silently truncate the other; a whole
    # number of any type marches as its int does.
    run = STEP_COUNT_CASES[case]
    f = np.random.default_rng(68).normal(size=(3, 8) if case == "line" else (9, 5, 6))
    kw = {"observe": lambda block: None} if observed else {}
    for bad in (-3, 2.7, -1.0, float("nan"), float("inf"), "3"):
        with pytest.raises(ValueError, match=r"steps must be a whole number >= 0, got"):
            run(f, bad, **kw)
    for whole in (3.0, np.int64(3), np.float64(3.0)):
        assert np.array_equal(run(f, whole, **kw), run(f, 3))


def test_kernel_does_not_modify_input():
    # Zero steps return an independent copy; no step count writes to f.
    rng = np.random.default_rng(62)
    line, plane = rng.normal(size=(3, 8)), rng.normal(size=(9, 5, 6))
    keep_line, keep_plane = line.copy(), plane.copy()
    line_args = (
        periodic_line_closures(), (0.0, 1.0, 0.5), "a", 0.5, 1e-6
    )
    plane_args = (
        pressure_channel_closures(3e-6), relaxation_d2q9(0.3, 1.1), -2.0, 1.0
    )
    runs = (
        (line, lambda f, n: d1q3_run(f, n, *line_args)),
        (plane, lambda f, n: d2q9_run(f, n, *plane_args)),
    )
    for f, run in runs:
        same = run(f, 0)
        assert np.array_equal(same, f) and not np.shares_memory(same, f)
        same[...] = 7.0
        run(f, 5)
    assert np.array_equal(line, keep_line)
    assert np.array_equal(plane, keep_plane)


def test_force_channel_conserves_mass():
    # Bounce-back walls and periodic ends move mass around but never
    # create it; the body force only touches momentum.
    rng = np.random.default_rng(63)
    f = rng.normal(size=(9, 6, 8)) * 1e-3
    out = d2q9_run(
        f, 50, force_channel_closures(), relaxation_d2q9(0.375, 1.0), -2.0, 1.0,
        "force-split-half", 1e-6,
    )
    assert np.sum(out) == pytest.approx(np.sum(f), abs=1e-12)


def test_zero_field_is_fixed_under_pressure_closure_without_offset():
    f = np.zeros((9, 5, 6))
    out = d2q9_run(
        f, 10, pressure_channel_closures(0.0), relaxation_d2q9(0.375, 1.0), -2.0, 1.0
    )
    assert np.array_equal(out, f)


def test_uniform_rest_state_is_fixed_in_walled_channel():
    # A uniform density with no momentum is a steady state of the
    # unforced channel; fifty steps must not disturb it beyond roundoff.
    basis = build_d2q9_basis()
    meq = equilibrium_d2q9(np.ones((7, 9)), 0.0, 0.0, -2.0, 1.0)
    f = from_moments(basis, meq)
    out = d2q9_run(
        f, 50, force_channel_closures(), relaxation_d2q9(0.375, 1.0), -2.0, 1.0
    )
    assert np.max(np.abs(out - f)) < 1e-13


# ---------------------------------------------------------------------------
# Invariant directions: a state uniform along a periodic, uniformly driven
# axis stays uniform bitwise, so one column (or row) marches as the grid does
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("driving", ["force-split-half", "force-population"])
@pytest.mark.parametrize("ny, nx", [(7, 100), (21, 20)], ids=["100x7", "20x21"])
def test_force_channel_from_rest_marches_as_one_column(driving, ny, nx):
    args = (force_channel_closures(), relaxation_d2q9(0.375, 1.0), -2.0, 1.0,
            driving, 1e-6)
    grid = d2q9_run(np.zeros((9, ny, nx)), 700, *args)
    column = d2q9_run(np.zeros((9, ny, 1)), 700, *args)
    assert np.any(column != 0.0)
    assert np.array_equal(grid, np.broadcast_to(column, grid.shape))


@pytest.mark.parametrize("moment", [0, 2], ids=["density", "jy"])
@pytest.mark.parametrize("ny, nx", [(4, 64), (3, 16)], ids=["64x4", "16x3"])
def test_wave_uniform_in_y_marches_as_one_row(moment, ny, nx):
    wave = np.sin(2.0 * np.pi / nx * np.arange(nx, dtype=np.float64))
    fields = [np.zeros((ny, nx))] * 3
    fields[moment] = np.tile(wave, (ny, 1))
    f = from_moments(build_d2q9_basis(), equilibrium_d2q9(*fields, -2.0, 1.0))
    args = (periodic_plane_closures(), relaxation_d2q9(0.4, 0.9, 1.3), -2.0, 1.0)
    grid = d2q9_run(f, 300, *args)
    row = d2q9_run(f[:, :1], 300, *args)
    assert np.array_equal(grid, np.broadcast_to(row, grid.shape))


# ---------------------------------------------------------------------------
# Mirror symmetry: a channel symmetric about its mid-line stays symmetric, so
# its lower (ny + 1) // 2 rows march as the grid does
# ---------------------------------------------------------------------------

# The D2Q9 population with vy (MIRROR) or vx (XM) negated.
VELOCITIES = list(zip(D2Q9.vx, D2Q9.vy))
MIRROR, XM = (
    np.array([VELOCITIES.index((sx * vx, sy * vy)) for vx, vy in VELOCITIES])
    for sx, sy in ((1, -1), (-1, 1))
)

MIRROR_SHAPES = [(9, 5, 7), (9, 6, 7), (9, 9, 40), (9, 8, 40)]

MIRROR_CASES = {
    "split-half": (force_channel_closures(), "force-split-half"),
    "population": (force_channel_closures(), "force-population"),
    "pressure": (pressure_channel_closures(3e-6), None),
}


@pytest.mark.parametrize("case", list(MIRROR_CASES))
@pytest.mark.parametrize("shape", MIRROR_SHAPES, ids=str)
def test_full_stream_map_is_mirror_symmetric(shape, case):
    # The output mirrored about the mid-line pulls the mirrored source, with
    # the same sign, and gets the same offset.
    closures, _ = MIRROR_CASES[case]
    idx, b = kernels._stream_map(D2Q9, shape, closures, -2.0, 1.0)
    size = np.prod(shape)
    signed = (idx >= size).reshape(shape)
    j, y, x = (a.reshape(shape) for a in np.unravel_index(idx % size, shape))
    ny = shape[1]

    def mirrored(a):
        return a[MIRROR, ::-1]

    assert np.array_equal(mirrored(signed), signed)
    assert np.array_equal(mirrored(MIRROR[j]), j)
    assert np.array_equal(mirrored(ny - 1 - y), y)
    assert np.array_equal(mirrored(x), x)
    if b is not None:
        assert np.array_equal(mirrored(b.reshape(shape)), b.reshape(shape))


FULL_FIELDS = {
    "periodic-row": ((9, 1, 64), periodic_plane_closures()),
    "force-channel": ((9, 9, 7), force_channel_closures()),
    "pressure-grid": ((9, 9, 40), pressure_channel_closures(3e-6)),
}


@pytest.mark.parametrize("case", list(FULL_FIELDS))
def test_mirror_map_of_a_full_field_is_the_stream_map(case):
    # Every plane march reads its map through _mirror_map; on a full field
    # the fold is the identity, so the map must be _stream_map's, bitwise.
    shape, closures = FULL_FIELDS[case]
    idx, b = kernels._mirror_map(shape, *shape[1:], closures, -2.0, 1.0)
    plain_idx, plain_b = kernels._stream_map(D2Q9, shape, closures, -2.0, 1.0)
    assert np.array_equal(idx, plain_idx)
    assert (b is None) == (plain_b is None)
    assert b is None or np.array_equal(b, plain_b)


# Measured at most 6.6e-17 of the start's scale after STEPS steps; the
# random start decays, so its scale, not the end state's, is the rounding's.
MIRROR_RTOL = 7e-16


@pytest.mark.parametrize("case", list(MIRROR_CASES))
@pytest.mark.parametrize("shape", MIRROR_SHAPES, ids=str)
def test_lower_half_marches_as_the_symmetric_grid_does(shape, case):
    closures, driving = MIRROR_CASES[case]
    ny, h = shape[1], (shape[1] + 1) // 2
    args = (closures, relaxation_d2q9(0.3, 1.1), -2.0, 1.0, driving, 2e-6)
    g = np.random.default_rng(73).normal(size=shape)
    f = 0.5 * (g + g[MIRROR, ::-1])
    grid = d2q9_run(f, STEPS, *args)
    half = d2q9_run(f[:, :h], STEPS, *args, ny=ny)
    assert half.shape == (9, h, shape[2])
    if ny % 2:  # the middle row is its own mirror image, bitwise
        assert np.array_equal(half[MIRROR, -1], half[:, -1])
    full = np.concatenate([half, half[MIRROR, : ny // 2][:, ::-1]], axis=1)
    assert np.max(np.abs(full - grid)) <= MIRROR_RTOL * np.max(np.abs(f))


def test_a_field_of_neither_height_is_refused():
    args = (force_channel_closures(), relaxation_d2q9(0.3, 1.1), -2.0, 1.0)
    with pytest.raises(ValueError, match="lower 5 rows"):
        d2q9_run(np.zeros((9, 4, 3)), 1, *args, ny=9)


def test_a_field_of_neither_width_is_refused():
    args = (pressure_channel_closures(3e-6), relaxation_d2q9(0.3, 1.1), -2.0, 1.0)
    with pytest.raises(ValueError, match="west 4 columns"):
        d2q9_run(np.zeros((9, 5, 3)), 1, *args, nx=7)


# ---------------------------------------------------------------------------
# Anti-mirror symmetry: a pressure channel from an antisymmetric start stays
# the negated mirror image of itself about its mid-column, so its west
# (nx + 1) // 2 columns march as the grid does
# ---------------------------------------------------------------------------

ANTI_SHAPES = MIRROR_SHAPES + [(9, 9, 7)]


@pytest.mark.parametrize("shape", ANTI_SHAPES, ids=str)
def test_full_pressure_stream_map_is_x_antisymmetric(shape):
    # The output mirrored about the mid-column pulls the mirrored source, with
    # the same sign, and gets the opposite offset: an antisymmetric field
    # streams to an antisymmetric one.
    idx, b = kernels._stream_map(
        D2Q9, shape, pressure_channel_closures(3e-6), -2.0, 1.0
    )
    size = np.prod(shape)
    signed = (idx >= size).reshape(shape)
    j, y, x = (a.reshape(shape) for a in np.unravel_index(idx % size, shape))
    nx = shape[2]

    def mirrored(a):
        return a[XM, :, ::-1]

    assert np.array_equal(mirrored(signed), signed)
    assert np.array_equal(mirrored(XM[j]), j)
    assert np.array_equal(mirrored(y), y)
    assert np.array_equal(mirrored(nx - 1 - x), x)
    assert np.any(b != 0.0)
    assert np.array_equal(mirrored(b.reshape(shape)), -b.reshape(shape))


@pytest.mark.parametrize("fold", ["quarter", "west"])
@pytest.mark.parametrize("shape", ANTI_SHAPES, ids=str)
def test_west_columns_march_as_the_antisymmetric_grid_does(shape, fold):
    closures, driving = MIRROR_CASES["pressure"]
    ny, nx = shape[1:]
    h, w = ((ny + 1) // 2 if fold == "quarter" else ny), (nx + 1) // 2
    args = (closures, relaxation_d2q9(0.3, 1.1), -2.0, 1.0, driving)
    g = np.random.default_rng(74).normal(size=shape)
    f = 0.5 * (g + g[MIRROR, ::-1])
    f = 0.5 * (f - f[XM, :, ::-1])
    grid = d2q9_run(f, STEPS, *args)
    part = d2q9_run(f[:, :h, :w], STEPS, *args, ny=ny, nx=nx)
    assert part.shape == (9, h, w)
    if nx % 2:  # the middle column's moving populations are their own negated image
        moving = D2Q9.vx != 0
        assert np.array_equal(part[XM, :, -1][moving], -part[moving, :, -1])
    rows = np.concatenate([part, -part[XM, :, : nx // 2][..., ::-1]], axis=2)
    full = np.concatenate([rows, rows[MIRROR, : ny - h][:, ::-1]], axis=1)
    assert np.max(np.abs(full - grid)) <= MIRROR_RTOL * np.max(np.abs(f))
    assert np.array_equal(kernels.unfold(part, ny, nx), full)


def east_face(scalar):
    """A pressure-abb east face of ``scalar`` and the channel's two walls."""
    east = BoundaryClosure("east", "pressure-abb", scalar)
    return (east,) + force_channel_closures()[2:]


@pytest.mark.parametrize(
    "closures, driving",
    [
        (pressure_channel_closures(3e-6), "force-split-half"),
        (pressure_channel_closures(3e-6), "force-population"),
        (force_channel_closures(), None),
        (force_channel_closures(), "force-split-half"),
        (pressure_channel_closures(3e-6)[:1] + east_face(-2e-6), None),
        (pressure_channel_closures(3e-6)[:1] + east_face(3e-6), None),
    ],
    ids=["split-half", "population", "periodic", "force", "unequal", "same-sign"],
)
def test_west_columns_are_refused_unless_the_march_keeps_them_antisymmetric(
    closures, driving
):
    args = (closures, relaxation_d2q9(0.3, 1.1), -2.0, 1.0, driving, 2e-6)
    with pytest.raises(ValueError, match="opposite scalars and no body force"):
        d2q9_run(np.zeros((9, 5, 4)), 1, *args, ny=9, nx=8)
