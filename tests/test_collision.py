"""Tests of equilibria, relaxation, forcing terms, and transport maps."""

import numpy as np
import pytest

from magiclbm.collision import (
    RelaxationSettings,
    apply_diffusion_source,
    apply_force_population,
    apply_force_split_half,
    diffusivity_from_params,
    equilibrium_d1q3,
    equilibrium_d2q9,
    population_force_increments,
    relax,
    relaxation_d1q3,
    relaxation_d2q9,
    s_to_sigma,
    sigma_to_s,
)
from magiclbm.errors import ConfigurationError
from magiclbm.lattice import build_d2q9_basis


# ---------------------------------------------------------------------------
# Rate and sigma conversions
# ---------------------------------------------------------------------------


def test_s_to_sigma_midpoint():
    assert s_to_sigma(1.0) == pytest.approx(0.5)


def test_sigma_to_s_inverts_s_to_sigma():
    for s in (0.2, 0.7, 1.0, 1.5, 1.99):
        assert sigma_to_s(s_to_sigma(s)) == pytest.approx(s, rel=1e-14)


@pytest.mark.parametrize("s", [0.0, 2.0, -0.3, 2.5])
def test_s_to_sigma_rejects_unstable_rates(s):
    with pytest.raises(ConfigurationError, match="0 < s < 2"):
        s_to_sigma(s)


def test_sigma_to_s_rejects_nonpositive_sigma():
    with pytest.raises(ConfigurationError, match="sigma must be positive"):
        sigma_to_s(-0.1)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
def test_sigma_to_s_rejects_non_finite_sigma(sigma):
    # An infinite sigma would give rate 0, which reads as a conserved row.
    with pytest.raises(ConfigurationError, match="positive and finite"):
        sigma_to_s(sigma)


def test_relaxation_settings_reject_unstable_rate():
    with pytest.raises(ConfigurationError, match="0 < s < 2"):
        RelaxationSettings((0.0, 2.5, 1.0))


def test_relaxation_layouts():
    line = relaxation_d1q3(1.0, 0.125)
    assert line.as_array()[0] == 0.0
    assert line.as_array()[1] == pytest.approx(sigma_to_s(1.0))
    assert line.as_array()[2] == pytest.approx(sigma_to_s(0.125))

    plane = relaxation_d2q9(0.375, 1.0, s_bulk=1.2)
    s = plane.as_array()
    assert np.array_equal(s[:3], [0.0, 0.0, 0.0])
    assert s[3] == s[4] == 1.2
    assert s[5] == s[6] == pytest.approx(sigma_to_s(0.375))
    assert s[7] == s[8] == pytest.approx(sigma_to_s(1.0))


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def test_line_equilibrium_variant_a_oracle():
    # rho = 2, zeta = 1: energy moment is zeta rho / 2 = 1.
    meq = equilibrium_d1q3("a", rho=2.0, zeta=1.0)
    assert np.allclose(meq.ravel(), [2.0, 0.0, 1.0], atol=1e-15)


def test_line_equilibrium_variant_b_oracle():
    meq = equilibrium_d1q3("b", rho=3.0, zeta=0.0)
    assert np.allclose(meq.ravel(), [3.0, 0.0, 0.0], atol=1e-15)


def test_line_equilibrium_rejects_bad_variant():
    with pytest.raises(ValueError):
        equilibrium_d1q3("q", rho=1.0, zeta=1.0)


def test_plane_equilibrium_energy_rows():
    meq = equilibrium_d2q9(rho=1.0, jx=0.0, jy=0.0, alpha=-2.0, beta=1.0)
    assert meq.ravel()[3] == pytest.approx(-2.0)
    assert meq.ravel()[4] == pytest.approx(1.0)


def test_plane_equilibrium_heat_flux_opposes_momentum():
    meq = equilibrium_d2q9(rho=0.0, jx=0.5, jy=-0.25, alpha=-2.0, beta=1.0)
    flat = meq.ravel()
    assert flat[1] == 0.5 and flat[5] == -0.5
    assert flat[2] == -0.25 and flat[6] == 0.25
    assert flat[7] == 0.0 and flat[8] == 0.0


# ---------------------------------------------------------------------------
# Relaxation
# ---------------------------------------------------------------------------


def test_relax_scalar_oracle():
    # m* = (1 - s) m + s meq with s = 1/2, m = 2, meq = 0 gives 1.
    out = relax(np.array([2.0]), np.array([0.0]), RelaxationSettings((0.5,)))
    assert out[0] == pytest.approx(1.0)


def test_relax_conserves_zero_rate_rows_bitwise():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 4, 5)) + 1.0
    meq = rng.normal(size=(9, 4, 5))
    out = relax(m, meq, relaxation_d2q9(0.6, 1.3))
    # Rows with rate zero pass through without any arithmetic drift.
    for row in range(3):
        assert np.array_equal(out[row], m[row])


def test_relax_rate_one_rows_return_equilibrium_bitwise():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 6)) + 2.0
    meq = rng.normal(size=(3, 6))
    settings = RelaxationSettings((0.0, 1.0, 1.0))
    out = relax(m, meq, settings)
    assert np.array_equal(out[1], meq[1])
    assert np.array_equal(out[2], meq[2])


# ---------------------------------------------------------------------------
# Sources and forces
# ---------------------------------------------------------------------------


def test_diffusion_source_splits_in_halves():
    m = np.zeros((3, 4))
    mid = apply_diffusion_source(m, 2e-6, "pre")
    full = apply_diffusion_source(mid, 2e-6, "post")
    assert np.allclose(mid[0], 1e-6)
    assert np.allclose(full[0], 2e-6)
    assert np.array_equal(full[1:], m[1:])


def test_diffusion_source_rejects_unknown_phase():
    with pytest.raises(ValueError, match="phase"):
        apply_diffusion_source(np.zeros((3, 1)), 1e-6, "mid")


def test_split_half_force_acts_on_momentum_row():
    m = np.zeros((9, 2, 2))
    mid = apply_force_split_half(m, 4e-6, "pre")
    full = apply_force_split_half(mid, 4e-6, "post")
    assert np.allclose(mid[1], 2e-6)
    assert np.allclose(full[1], 4e-6)
    assert np.array_equal(full[0], m[0])
    assert np.array_equal(full[2:], m[2:])


def test_population_force_moment_image():
    m = np.zeros((9, 2, 2))
    out = apply_force_population(m, 3e-6)
    assert np.allclose(out[1], 3e-6)
    assert np.allclose(out[5], -3e-6)
    mask = np.ones(9, bool)
    mask[[1, 5]] = False
    assert np.array_equal(out[mask], m[mask])


def test_population_force_increments_match_moment_image():
    # The fixed population increment must map to +fx on the momentum row
    # and -fx on the aligned heat-flux row, nothing else.
    fx = 0.12
    basis = build_d2q9_basis()
    image = basis.matrix @ population_force_increments(fx)
    expected = np.zeros(9)
    expected[1] = fx
    expected[5] = -fx
    assert np.allclose(image, expected, atol=1e-15)


def test_population_force_increment_table():
    inc = population_force_increments(1.0)
    expected = np.array([0, 4, 0, -4, 0, 1, -1, -1, 1]) / 12.0
    assert np.allclose(inc, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Transport coefficient maps
# ---------------------------------------------------------------------------


def test_diffusivity_formulas():
    # Variant a: kappa = sigma1 zeta.
    assert diffusivity_from_params("a", 1.0, 1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    # Variant b: kappa = sigma1 (2 + zeta) / 3.
    assert diffusivity_from_params("b", 1.0, 1.0) == pytest.approx(1.0)


def test_diffusivity_variants_agree_on_matched_zeta():
    # zeta_a = (2 + zeta_b) / 3 makes the two variants transport-equivalent.
    zeta_b = 0.7
    zeta_a = (2.0 + zeta_b) / 3.0
    ka = diffusivity_from_params("a", 0.8, zeta_a)
    kb = diffusivity_from_params("b", 0.8, zeta_b)
    assert ka == pytest.approx(kb, rel=1e-14)
