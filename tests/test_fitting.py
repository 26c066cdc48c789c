"""Tests of parabola fitting and apparent wall localization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magiclbm.errors import FitError, LocalizationError
from magiclbm.fitting import (
    DEGENERACY_FLOOR,
    ParabolaFit,
    WallLocationResult,
    fit_parabola,
    wall_location,
)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_unit_parabola_roots():
    # u = x (1 - x) sampled strictly inside its roots must hand back the
    # roots 0 and 1 to near machine precision.
    x = np.arange(0.1, 0.95, 0.1)
    fit = fit_parabola(x, x * (1.0 - x))
    roots = np.sort(fit.roots)
    assert abs(roots[0] - 0.0) < 1e-12
    assert abs(roots[1] - 1.0) < 1e-12
    # Root-mean-square deviation of exact parabola data sits at the
    # rounding floor of the sampled values.
    assert fit.residual < 1e-15


def test_fit_evaluates_like_the_sampled_polynomial():
    x = np.linspace(-2.0, 3.0, 11)
    u = 1.5 * x * x - 2.0 * x + 0.25
    fit = fit_parabola(x, u)
    assert fit(0.0) == pytest.approx(0.25, abs=1e-12)
    assert fit(2.0) == pytest.approx(1.5 * 4 - 4 + 0.25, abs=1e-12)


@given(
    r1=st.floats(-1.0, 0.4),
    r2=st.floats(0.6, 2.0),
    curvature=st.floats(0.1, 10.0),
)
def test_fit_recovers_synthetic_roots(r1, r2, curvature):
    x = np.linspace(0.0, 1.0, 9)
    u = -curvature * (x - r1) * (x - r2)
    fit = fit_parabola(x, u)
    roots = np.sort(fit.roots)
    assert roots[0] == pytest.approx(r1, abs=1e-8)
    assert roots[1] == pytest.approx(r2, abs=1e-8)


def test_fit_reports_residual_for_noisy_data():
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 1.0, 21)
    u = x * (1.0 - x) + 1e-6 * rng.normal(size=x.size)
    fit = fit_parabola(x, u)
    assert fit.residual > 0.0
    assert isinstance(fit, ParabolaFit)


def test_fit_rejects_mismatched_lengths():
    with pytest.raises(FitError, match="differ in length"):
        fit_parabola(np.arange(4.0), np.arange(5.0))


def test_fit_rejects_too_few_distinct_points():
    x = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 1.0, 2.0])
    with pytest.raises(FitError, match="at least 3 distinct"):
        fit_parabola(x, u)


def test_fit_rejects_linear_data():
    x = np.linspace(0.0, 4.0, 9)
    with pytest.raises(FitError, match="no curvature"):
        fit_parabola(x, 2.0 * x + 1.0)


def stacked_fit(x, u):
    """The fit as first written: ``np.stack`` of the Vandermonde columns,
    the same ``lstsq``, and the residual and scale by module functions.
    Returns (coefficients, residual, roots) as ParabolaFit holds them."""
    x = np.asarray(x, dtype=np.float64).ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    center = x.mean()
    span = x.max() - x.min()
    z = (x - center) / span
    vand = np.stack([np.ones_like(z), z, z * z], axis=1)
    coef_z, *_ = np.linalg.lstsq(vand, u, rcond=None)
    b0, b1, b2 = coef_z
    residual = float(np.sqrt(np.mean((vand @ coef_z - u) ** 2)))
    a2 = b2 / (span * span)
    a1 = b1 / span - 2.0 * a2 * center
    a0 = b0 - b1 * center / span + a2 * center * center
    disc = b1 * b1 - 4.0 * b2 * b0
    roots = None
    if disc >= 0.0:
        sq = np.sqrt(disc)
        qq = -0.5 * (b1 + sq) if b1 >= 0.0 else -0.5 * (b1 - sq)
        z1, z2 = (0.0, 0.0) if qq == 0.0 else (qq / b2, b0 / qq)
        roots = tuple(float(r) for r in sorted((center + span * z1, center + span * z2)))
    return tuple(float(c) for c in (a0, a1, a2)), residual, roots


@given(
    n=st.integers(3, 40),
    start=st.floats(-50.0, 50.0),
    curvature=st.floats(0.01, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
    vertex=st.floats(-30.0, 30.0),
    level=st.floats(-5.0, 5.0),
    noise=st.sampled_from([0.0, 1e-9, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_matches_the_stacked_vandermonde_fit_bitwise(
    n, start, curvature, sign, vertex, level, noise, seed
):
    x = start + np.arange(n, dtype=np.float64)
    u = sign * curvature * (x - vertex) ** 2 + level
    u += noise * np.random.default_rng(seed).standard_normal(n)
    fit = fit_parabola(x, u)
    # repr tells -0.0 from 0.0 and prints every float exactly
    assert repr((fit.coefficients, fit.residual, fit.roots)) == repr(stacked_fit(x, u))


def pre_change_fit(x, u):
    """``fit_parabola`` as it was before its scalar arithmetic moved to
    Python floats: numpy scalars, ``mean`` and ``np.sqrt``."""
    x = np.asarray(x, dtype=np.float64).ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    if x.shape != u.shape:
        raise FitError(f"abscissae and values differ in length: {x.size} vs {u.size}")
    distinct = np.unique(x).size
    if distinct < 3:
        raise FitError(f"parabola fit needs at least 3 distinct abscissae, got {distinct}")
    center = x.mean()
    span = x.max() - x.min()
    z = (x - center) / span
    vand = np.empty((x.size, 3))
    vand[:, 0] = 1.0
    vand[:, 1] = z
    vand[:, 2] = z * z
    coef_z, *_ = np.linalg.lstsq(vand, u, rcond=None)
    b0, b1, b2 = coef_z
    residual = float(np.sqrt(((vand @ coef_z - u) ** 2).mean()))
    scale = float(np.abs(u).max())
    if scale == 0.0 or abs(b2) < DEGENERACY_FLOOR * scale:
        raise FitError(
            "degenerate parabola fit: no curvature "
            f"(|a2| scaled {abs(b2):.3e} vs data scale {scale:.3e})"
        )
    a2 = b2 / (span * span)
    a1 = b1 / span - 2.0 * a2 * center
    a0 = b0 - b1 * center / span + a2 * center * center
    disc = b1 * b1 - 4.0 * b2 * b0
    roots = None
    if disc >= 0.0:
        sq = np.sqrt(disc)
        qq = -0.5 * (b1 + sq) if b1 >= 0.0 else -0.5 * (b1 - sq)
        z1, z2 = (0.0, 0.0) if qq == 0.0 else (qq / b2, b0 / qq)
        roots = tuple(sorted((center + span * z1, center + span * z2)))
    return ParabolaFit((a0, a1, a2), residual, roots)


def fit_outcome(fit, x, u):
    """The repr of a fit (every float exactly), or the error it raised."""
    try:
        return repr(fit(x, u))
    except FitError as error:
        return f"FitError: {error}"


@given(
    gaps=st.lists(
        st.one_of(st.just(0.0), st.floats(0.05, 4.0)), min_size=2, max_size=63
    ),
    start=st.floats(-50.0, 50.0),
    curvature=st.floats(0.01, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
    vertex=st.floats(-30.0, 30.0),
    level=st.floats(-5.0, 5.0),
    noise=st.sampled_from([0.0, 1e-9, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_on_uneven_abscissae_matches_the_pre_change_fit(
    gaps, start, curvature, sign, vertex, level, noise, seed
):
    # Sorted, unevenly spaced and possibly repeated abscissae, 3 to 64 of
    # them; a level of the curvature's sign leaves the parabola no roots.
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    u = sign * curvature * (x - vertex) ** 2 + level
    u += noise * np.random.default_rng(seed).standard_normal(x.size)
    assert fit_outcome(fit_parabola, x, u) == fit_outcome(pre_change_fit, x, u)


@pytest.mark.parametrize("x, u, expected", [
    ([0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0],
     "FitError: parabola fit needs at least 3 distinct abscissae, got 2"),
    ([0.0, 1.0, 2.0, 4.0], [1.0, 3.0, 5.0, 9.0],
     "FitError: degenerate parabola fit: no curvature "
     "(|a2| scaled 2.665e-15 vs data scale 9.000e+00)"),
    ([0.0, 1.0, 2.5, 4.0], [0.0, 0.0, 0.0, 0.0],
     "FitError: degenerate parabola fit: no curvature "
     "(|a2| scaled 0.000e+00 vs data scale 0.000e+00)"),
    ([-1.0, 0.5, 2.0, 2.25], [2.0, 1.25, 5.0, 6.0625], "roots=None)"),
], ids=["two-distinct", "linear", "zero", "no-real-root"])
def test_fit_refuses_as_the_pre_change_fit_does(x, u, expected):
    outcome = fit_outcome(fit_parabola, np.array(x), np.array(u))
    assert outcome == fit_outcome(pre_change_fit, np.array(x), np.array(u))
    assert outcome.endswith(expected)


def test_fit_over_a_span_too_small_to_square_keeps_the_ieee_curvature():
    # 2e-170 squares to +0.0: the raw curvature is b2 / +0.0, inf, as the
    # numpy scalars gave it (with a warning), and the roots stay finite.
    x = np.array([0.0, 1e-170, 2e-170])
    u = np.array([-1.0, 0.0, 1.5])
    with np.errstate(all="ignore"):
        expected = repr(pre_change_fit(x, u))
    assert repr(fit_parabola(x, u)) == expected
    assert fit_parabola(x, u).coefficients[2] == np.inf


def test_degeneracy_floor_is_strict():
    assert DEGENERACY_FLOOR == 1e-14


# ---------------------------------------------------------------------------
# Wall localization
# ---------------------------------------------------------------------------


def _fit_with_roots(r_lower, r_upper):
    x = np.linspace(min(r_lower, 0.0) + 0.5, max(r_upper, 0.0) - 0.5, 9)
    u = -(x - r_lower) * (x - r_upper)
    return fit_parabola(x, u)


def test_lower_wall_offset_counts_outward():
    # A root half a spacing below the boundary node is an offset of +1/2.
    fit = _fit_with_roots(-0.5, 10.5)
    result = wall_location(fit, x_b=0.0, dx=1.0, side="lower")
    assert isinstance(result, WallLocationResult)
    assert result.delta_q == pytest.approx(0.5, abs=1e-10)
    assert result.side == "lower"
    assert result.root == pytest.approx(-0.5, abs=1e-10)


def test_upper_wall_offset_counts_outward():
    fit = _fit_with_roots(-0.5, 10.5)
    result = wall_location(fit, x_b=10.0, dx=1.0, side="upper")
    assert result.delta_q == pytest.approx(0.5, abs=1e-10)


def test_wall_offset_scales_with_spacing():
    fit = _fit_with_roots(-1.0, 21.0)
    result = wall_location(fit, x_b=0.0, dx=2.0, side="lower")
    assert result.delta_q == pytest.approx(0.5, abs=1e-10)


def test_inward_root_gives_negative_offset():
    fit = _fit_with_roots(0.25, 9.75)
    result = wall_location(fit, x_b=0.0, dx=1.0, side="lower")
    assert result.delta_q == pytest.approx(-0.25, abs=1e-10)


def test_wall_location_rejects_unknown_side():
    fit = _fit_with_roots(-0.5, 10.5)
    with pytest.raises(ValueError):
        wall_location(fit, x_b=0.0, dx=1.0, side="middle")


def test_wall_location_requires_real_roots():
    x = np.linspace(0.0, 1.0, 9)
    fit = fit_parabola(x, (x - 0.5) ** 2 + 1.0)
    with pytest.raises(LocalizationError, match="no real roots"):
        wall_location(fit, x_b=0.0, dx=1.0, side="lower")


def test_wall_location_rejects_far_roots():
    # Roots five spacings away from the boundary node are not a wall.
    fit = _fit_with_roots(5.0, 20.0)
    with pytest.raises(LocalizationError, match="outside the window"):
        wall_location(fit, x_b=0.0, dx=1.0, side="lower")


@pytest.mark.parametrize(
    "side, far, near, window",
    [
        ("lower", (-2.5, 30.0), (-1.5, 30.0), "[x_b - 2 dx, x_b + dx]"),
        ("upper", (-30.0, 2.5), (-30.0, 1.5), "[x_b - dx, x_b + 2 dx]"),
    ],
)
def test_far_root_error_states_its_sides_window(side, far, near, window):
    # The window reaches two spacings outward and one inward, so the upper
    # side's is the lower side's mirror image: a root 1.5 spacings out is
    # admitted and one 2.5 out is refused, with that side's window.
    assert wall_location(_fit_with_roots(*near), 0.0, 1.0, side).delta_q == pytest.approx(1.5)
    with pytest.raises(LocalizationError) as raised:
        wall_location(_fit_with_roots(*far), 0.0, 1.0, side)
    assert f"outside the window {window}" in str(raised.value)


def test_window_admits_offsets_between_minus_one_and_two():
    lower_edge = wall_location(
        _fit_with_roots(-1.99, 30.0), x_b=0.0, dx=1.0, side="lower"
    )
    assert lower_edge.delta_q == pytest.approx(1.99, abs=1e-8)
    inner_edge = wall_location(
        _fit_with_roots(0.99, 30.0), x_b=0.0, dx=1.0, side="lower"
    )
    assert inner_edge.delta_q == pytest.approx(-0.99, abs=1e-8)
