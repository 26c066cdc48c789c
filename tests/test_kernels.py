"""Tests of the fused time loops against the compositional building blocks.

The marching kernels run every step as one affine operator derived from
the moment maps, relax, forcing and stream.  Here the fused march is
checked against the same update assembled from those separately tested
pieces, one step and many steps, across every boundary-code
combination and across changes of shape, codes and parameters within
one process (a stale operator cache would show there).
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from magiclbm.boundaries import (
    diffusion_closures,
    force_channel_closures,
    periodic_line_closures,
    periodic_plane_closures,
    pressure_abb_coefficient,
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
from magiclbm.kernels import (
    BC_ANTI_BOUNCE_BACK,
    BC_PERIODIC,
    FORCE_NONE,
    FORCE_POPULATION,
    FORCE_SPLIT_HALF,
    X_PERIODIC,
    X_PRESSURE,
    Y_PERIODIC,
    Y_WALL,
    d1q3_run,
    d2q9_run,
)
from magiclbm.lattice import (
    D1Q3,
    D2Q9,
    build_d1q3_basis,
    build_d2q9_basis,
    from_moments,
    stream,
    to_moments,
)

# ---------------------------------------------------------------------------
# Reference compositions of one full step
# ---------------------------------------------------------------------------


def _reference_line_step(f, variant, sigma1, sigma2, zeta, source, periodic):
    basis = build_d1q3_basis(variant)
    settings = relaxation_d1q3(sigma1, sigma2)
    m = to_moments(basis, f)
    m = apply_diffusion_source(m, source, "pre")
    meq = equilibrium_d1q3(variant, m[0], zeta)
    m = relax(m, meq, settings)
    m = apply_diffusion_source(m, source, "post")
    fstar = from_moments(basis, m)
    closures = periodic_line_closures() if periodic else diffusion_closures()
    return stream(D1Q3, fstar, closures)


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "walls"])
def test_line_kernel_matches_composed_step(variant, periodic):
    rng = np.random.default_rng(21)
    f = rng.normal(size=(3, 9))
    zeta = 1.0 / 3.0 if variant == "a" else 1.0
    c2 = 0.5 * zeta if variant == "a" else zeta
    expect = _reference_line_step(f, variant, 0.9, 0.2, zeta, 1e-6, periodic)
    basis = build_d1q3_basis(variant)
    settings = relaxation_d1q3(0.9, 0.2)
    got = d1q3_run(
        f,
        1,
        basis,
        settings.as_array()[1],
        settings.as_array()[2],
        c2,
        1e-6,
        BC_PERIODIC if periodic else BC_ANTI_BOUNCE_BACK,
    )
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def _reference_plane_step(f, sigma5, sigma8, alpha, beta, fx, forcing, closures):
    basis = build_d2q9_basis()
    settings = relaxation_d2q9(sigma5, sigma8)
    m = to_moments(basis, f)
    if forcing == FORCE_SPLIT_HALF:
        m = apply_force_split_half(m, fx, "pre")
    meq = equilibrium_d2q9(m[0], m[1], m[2], alpha, beta)
    m = relax(m, meq, settings)
    if forcing == FORCE_SPLIT_HALF:
        m = apply_force_split_half(m, fx, "post")
    elif forcing == FORCE_POPULATION:
        m = apply_force_population(m, fx)
    fstar = from_moments(basis, m)
    return stream(D2Q9, fstar, closures, alpha=alpha, beta=beta)


@pytest.mark.parametrize(
    "forcing", [FORCE_NONE, FORCE_SPLIT_HALF, FORCE_POPULATION],
    ids=["unforced", "split-half", "population"],
)
def test_plane_kernel_matches_composed_step_in_channel(forcing):
    rng = np.random.default_rng(33)
    f = rng.normal(size=(9, 6, 5))
    fx = 2e-6 if forcing != FORCE_NONE else 0.0
    expect = _reference_plane_step(
        f, 0.3, 1.1, -2.0, 1.0, fx, forcing, force_channel_closures()
    )
    got = d2q9_run(
        f,
        1,
        relaxation_d2q9(0.3, 1.1),
        -2.0,
        1.0,
        fx=fx,
        force_code=forcing,
        x_code=X_PERIODIC,
        y_code=Y_WALL,
    )
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_plane_kernel_matches_composed_step_pressure():
    rng = np.random.default_rng(37)
    f = rng.normal(size=(9, 5, 6))
    delta_rho = 3e-6
    expect = _reference_plane_step(
        f, 0.25, 0.75, -2.0, 1.0, 0.0, FORCE_NONE,
        pressure_channel_closures(delta_rho),
    )
    got = d2q9_run(
        f,
        1,
        relaxation_d2q9(0.25, 0.75),
        -2.0,
        1.0,
        x_code=X_PRESSURE,
        y_code=Y_WALL,
        delta_rho=delta_rho,
        press_coeff=pressure_abb_coefficient(-2.0, 1.0),
    )
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_plane_kernel_matches_composed_step_fully_periodic():
    rng = np.random.default_rng(41)
    f = rng.normal(size=(9, 4, 4))
    expect = _reference_plane_step(
        f, 0.5, 0.9, -2.0, 1.0, 0.0, FORCE_NONE, periodic_plane_closures()
    )
    got = d2q9_run(
        f,
        1,
        relaxation_d2q9(0.5, 0.9),
        -2.0,
        1.0,
        x_code=X_PERIODIC,
        y_code=Y_PERIODIC,
    )
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Long marches, every code combination, and operator caching
# ---------------------------------------------------------------------------

LINE_CASES = {"line-periodic": BC_PERIODIC, "line-anti-bounce-back": BC_ANTI_BOUNCE_BACK}

PLANE_CASES = {
    "plane-split-half": dict(
        kw=dict(fx=2e-6, force_code=FORCE_SPLIT_HALF, x_code=X_PERIODIC, y_code=Y_WALL),
        closures=force_channel_closures(),
    ),
    "plane-population": dict(
        kw=dict(fx=2e-6, force_code=FORCE_POPULATION, x_code=X_PERIODIC, y_code=Y_WALL),
        closures=force_channel_closures(),
    ),
    "plane-pressure": dict(
        kw=dict(
            x_code=X_PRESSURE,
            y_code=Y_WALL,
            delta_rho=3e-6,
            press_coeff=pressure_abb_coefficient(-2.0, 1.0),
        ),
        closures=pressure_channel_closures(3e-6),
    ),
    "plane-periodic": dict(
        kw=dict(x_code=X_PERIODIC, y_code=Y_PERIODIC),
        closures=periodic_plane_closures(),
    ),
}

# Round-off of one step is a few ulps of the field's scale; over STEPS
# steps of a stable scheme it grows at most linearly.
STEPS = 64
MARCH_ATOL = STEPS * 16 * np.finfo(np.float64).eps


def _line_call(f, steps, variant, sigma1, sigma2, bc):
    zeta = 1.0 / 3.0 if variant == "a" else 1.0
    c2 = 0.5 * zeta if variant == "a" else zeta
    s = relaxation_d1q3(sigma1, sigma2).s
    return d1q3_run(f, steps, build_d1q3_basis(variant), s[1], s[2], c2, 1e-6, bc)


def _line_reference(f, steps, variant, sigma1, sigma2, bc):
    zeta = 1.0 / 3.0 if variant == "a" else 1.0
    for _ in range(steps):
        f = _reference_line_step(
            f, variant, sigma1, sigma2, zeta, 1e-6, bc == BC_PERIODIC
        )
    return f


def _plane_reference(f, steps, sigma5, sigma8, kw, closures):
    fx = kw.get("fx", 0.0)
    forcing = kw.get("force_code", FORCE_NONE)
    for _ in range(steps):
        f = _reference_plane_step(f, sigma5, sigma8, -2.0, 1.0, fx, forcing, closures)
    return f


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("case", list(LINE_CASES))
def test_line_march_tracks_composed_steps(variant, case):
    bc = LINE_CASES[case]
    f = np.random.default_rng(70).normal(size=(3, 13))
    got = _line_call(f, STEPS, variant, 0.9, 0.2, bc)
    expect = _line_reference(f, STEPS, variant, 0.9, 0.2, bc)
    assert np.max(np.abs(got - expect)) <= MARCH_ATOL * np.max(np.abs(expect))


@pytest.mark.parametrize("case", list(PLANE_CASES))
def test_plane_march_tracks_composed_steps_on_non_square_grid(case):
    kw, closures = PLANE_CASES[case]["kw"], PLANE_CASES[case]["closures"]
    f = np.random.default_rng(71).normal(size=(9, 5, 8))
    got = d2q9_run(f, STEPS, relaxation_d2q9(0.3, 1.1), -2.0, 1.0, **kw)
    expect = _plane_reference(f, STEPS, 0.3, 1.1, kw, closures)
    assert np.max(np.abs(got - expect)) <= MARCH_ATOL * np.max(np.abs(expect))


def test_operators_are_rebuilt_when_shape_codes_or_parameters_change():
    # Alternate every cache key in one process, twice over, so a cached
    # operator or gather served to the wrong call would show.
    rng = np.random.default_rng(72)
    for _ in range(2):
        for n, case, sigmas in itertools.product(
            (9, 14), list(LINE_CASES), ((0.9, 0.2), (0.4, 0.7))
        ):
            f = rng.normal(size=(3, n))
            bc = LINE_CASES[case]
            got = _line_call(f, 1, "a", *sigmas, bc)
            expect = _line_reference(f, 1, "a", *sigmas, bc)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)
        for shape, driving, delta_rho, sigmas in itertools.product(
            ((9, 5, 7), (9, 6, 4)),
            ("plane-split-half", "plane-pressure"),
            (3e-6, 5e-6),
            ((0.3, 1.1), (0.7, 0.4)),
        ):
            f = rng.normal(size=shape)
            kw = dict(PLANE_CASES[driving]["kw"])
            closures = PLANE_CASES[driving]["closures"]
            if driving == "plane-pressure":
                kw["delta_rho"] = delta_rho
                closures = pressure_channel_closures(delta_rho)
            got = d2q9_run(f, 1, relaxation_d2q9(*sigmas), -2.0, 1.0, **kw)
            expect = _plane_reference(f, 1, *sigmas, kw, closures)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_pressure_weight_must_match_the_closure():
    with pytest.raises(ValueError, match="press_coeff"):
        d2q9_run(
            np.zeros((9, 5, 6)), 1, relaxation_d2q9(0.3, 1.1), -2.0, 1.0,
            x_code=X_PRESSURE, y_code=Y_WALL, delta_rho=1e-6, press_coeff=0.25,
        )


def test_operators_are_built_on_first_use_without_scipy():
    code = (
        "import sys, magiclbm.cli\n"
        "from magiclbm import kernels\n"
        "assert kernels._gather.cache_info().currsize == 0\n"
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
    basis = build_d1q3_basis("b")
    args = (basis, 0.8, 0.3, 1.0, 1e-6, BC_ANTI_BOUNCE_BACK)
    whole = d1q3_run(f, 10, *args)
    split = d1q3_run(d1q3_run(f, 6, *args), 4, *args)
    assert np.array_equal(whole, split)


def test_plane_march_is_additive():
    rng = np.random.default_rng(61)
    f = rng.normal(size=(9, 6, 8)) * 1e-3
    settings = relaxation_d2q9(0.375, 1.0)
    kwargs = dict(fx=1e-6, force_code=FORCE_SPLIT_HALF)
    whole = d2q9_run(f, 10, settings, -2.0, 1.0, **kwargs)
    split = d2q9_run(
        d2q9_run(f, 7, settings, -2.0, 1.0, **kwargs), 3, settings, -2.0, 1.0, **kwargs
    )
    assert np.array_equal(whole, split)


def test_kernel_does_not_modify_input():
    # Zero steps return an independent copy; no step count writes to f.
    rng = np.random.default_rng(62)
    line, plane = rng.normal(size=(3, 8)), rng.normal(size=(9, 5, 6))
    keep_line, keep_plane = line.copy(), plane.copy()
    basis, settings = build_d1q3_basis("a"), relaxation_d2q9(0.3, 1.1)
    pressure = PLANE_CASES["plane-pressure"]["kw"]
    runs = (
        (line, lambda f, n: d1q3_run(f, n, basis, 1.0, 0.5, 0.25, 1e-6, BC_PERIODIC)),
        (plane, lambda f, n: d2q9_run(f, n, settings, -2.0, 1.0, **pressure)),
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
        f,
        50,
        relaxation_d2q9(0.375, 1.0),
        -2.0,
        1.0,
        fx=1e-6,
        force_code=FORCE_SPLIT_HALF,
    )
    assert np.sum(out) == pytest.approx(np.sum(f), abs=1e-12)


def test_zero_field_is_fixed_under_pressure_closure_without_offset():
    f = np.zeros((9, 5, 6))
    out = d2q9_run(
        f,
        10,
        relaxation_d2q9(0.375, 1.0),
        -2.0,
        1.0,
        x_code=X_PRESSURE,
        y_code=Y_WALL,
        delta_rho=0.0,
        press_coeff=2.0 / 9.0,
    )
    assert np.array_equal(out, f)


def test_uniform_rest_state_is_fixed_in_walled_channel():
    # A uniform density with no momentum is a steady state of the
    # unforced channel; fifty steps must not disturb it beyond roundoff.
    basis = build_d2q9_basis()
    meq = equilibrium_d2q9(np.ones((7, 9)), 0.0, 0.0, -2.0, 1.0)
    f = from_moments(basis, meq)
    out = d2q9_run(f, 50, relaxation_d2q9(0.375, 1.0), -2.0, 1.0)
    assert np.max(np.abs(out - f)) < 1e-13
