"""Acceptance gate: the headline claims at production sizes.

Each test is one claim, named by its criterion number, so the verbose
test report reads as a one-line pass/fail checklist:

1. Line variant a recovers the magic product 1/8 on 32 nodes, and the
   apparent wall sits at half a spacing there.
2. Line variant b recovers 3/8.
3. The split-half forced channel (100 x 21) recovers 3/8 inside a
   minute.
4. The population forced channel recovers 3/16.
5. Pressure driving recovers the equilibrium-dependent prediction for
   two parameter sets on 100 x 21 and six more on 40 x 9.
6. The wall offset depends on the relaxation rates only through their
   product.
7. Measured transport coefficients match their closed-form expressions.
8. The supporting property suite: exact basis round trips, conservative
   streaming and collision, fixed rest states, exact parabola roots.
"""

import time

import numpy as np
import pytest

from magiclbm.boundaries import (
    diffusion_closures,
    force_channel_closures,
    periodic_line_closures,
    periodic_plane_closures,
    pressure_channel_closures,
)
from magiclbm.collision import (
    diffusivity_from_params,
    equilibrium_d2q9,
    relax,
    relaxation_d1q3,
    relaxation_d2q9,
)
from magiclbm.experiments import (
    D1Q3Experiment,
    D2Q9Experiment,
    find_magic_root,
    measure_diffusivity,
    measure_viscosity,
    predict_magic,
    run_to_steady,
    wall_offset,
)
from magiclbm.fitting import fit_parabola
from magiclbm.kernels import d1q3_run, d2q9_run
from magiclbm.lattice import (
    D1Q3,
    D2Q9,
    build_d1q3_basis,
    build_d2q9_basis,
    from_moments,
    stream,
)

ROOT_TOL = 1e-3
PRESSURE_TOL = 2e-3
PRODUCT_ONLY_TOL = 1e-6
TIME_BUDGET_SECONDS = 60.0


def line_experiment(variant, **kwargs):
    return D1Q3Experiment(variant=variant, n=32, **kwargs)


def channel_experiment(driving, **kwargs):
    return D2Q9Experiment(driving=driving, nx=100, ny=21, **kwargs)


def offset_at(exp):
    f, _ = run_to_steady(exp)
    return wall_offset(exp, f).delta_q


# ---------------------------------------------------------------------------
# Criteria 1 and 2: line scheme roots
# ---------------------------------------------------------------------------


def test_criterion_1_line_variant_a_root_and_offset():
    start = time.perf_counter()
    sweep = find_magic_root(line_experiment("a"))
    assert sweep.root == pytest.approx(0.125, abs=ROOT_TOL)
    at_root = offset_at(line_experiment("a", sigma1=1.0, sigma2=sweep.root))
    assert abs(at_root - 0.5) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_BUDGET_SECONDS
    print(
        f"criterion 1: root={sweep.root:.6f} (target 0.125), "
        f"offset at root={at_root:.6f}, {elapsed:.1f}s"
    )


def test_criterion_2_line_variant_b_root():
    sweep = find_magic_root(line_experiment("b"))
    assert sweep.root == pytest.approx(0.375, abs=ROOT_TOL)
    print(f"criterion 2: root={sweep.root:.6f} (target 0.375)")


# ---------------------------------------------------------------------------
# Criteria 3 to 5: channel roots
# ---------------------------------------------------------------------------


def test_criterion_3_split_half_channel_root_within_a_minute():
    start = time.perf_counter()
    sweep = find_magic_root(channel_experiment("force-split-half"))
    elapsed = time.perf_counter() - start
    assert sweep.root == pytest.approx(0.375, abs=ROOT_TOL)
    assert elapsed < TIME_BUDGET_SECONDS
    print(f"criterion 3: root={sweep.root:.6f} (target 0.375), {elapsed:.1f}s")


def test_criterion_4_population_channel_root():
    sweep = find_magic_root(channel_experiment("force-population"))
    assert sweep.root == pytest.approx(0.1875, abs=ROOT_TOL)
    print(f"criterion 4: root={sweep.root:.6f} (target 0.1875)")


def test_criterion_5_pressure_roots_follow_the_predictor():
    for alpha, beta, target in ((-2.0, 1.0, 0.1875), (-2.5, 2.5, 0.375)):
        sweep = find_magic_root(channel_experiment("pressure", alpha=alpha, beta=beta))
        predicted = predict_magic("pressure", alpha, beta)
        assert predicted == pytest.approx(target, abs=1e-15)
        assert sweep.root == pytest.approx(target, abs=PRESSURE_TOL)
        assert sweep.root == pytest.approx(predicted, abs=PRESSURE_TOL)
        print(
            f"criterion 5: alpha={alpha} beta={beta} "
            f"root={sweep.root:.6f} predicted={predicted:.6f}"
        )
    # The half-spacing crossing is exact at any resolution, so a short
    # channel probes the predictor over more equilibria at small cost.
    for alpha, beta in (
        (-1.0, 1.0), (-3.0, 1.0), (-2.0, 0.0), (-2.0, 2.0), (0.0, 0.0), (-1.0, -1.0)
    ):
        exp = D2Q9Experiment(driving="pressure", nx=40, ny=9, alpha=alpha, beta=beta)
        sweep = find_magic_root(exp)
        predicted = predict_magic("pressure", alpha, beta)
        assert sweep.root == pytest.approx(predicted, abs=PRESSURE_TOL)
        print(
            f"criterion 5: alpha={alpha} beta={beta} on 40 x 9 "
            f"root={sweep.root:.6f} predicted={predicted:.6f}"
        )


# ---------------------------------------------------------------------------
# Criterion 6: the product is the only knob
# ---------------------------------------------------------------------------


def test_criterion_6_offset_depends_only_on_the_sigma_product():
    worst = 0.0
    for variant in ("a", "b"):
        product = predict_magic(f"d1q3-{variant}")
        first = offset_at(line_experiment(variant, sigma1=1.0, sigma2=product))
        second = offset_at(
            line_experiment(variant, sigma1=0.6, sigma2=product / 0.6)
        )
        spread = abs(first - second)
        worst = max(worst, spread)
        assert spread < PRODUCT_ONLY_TOL, f"d1q3-{variant}: {spread:.3e}"
    for driving in ("force-split-half", "force-population", "pressure"):
        product = (
            predict_magic("pressure", -2.0, 1.0)
            if driving == "pressure"
            else predict_magic(driving)
        )
        first = offset_at(channel_experiment(driving, sigma5=1.0, sigma8=product))
        second = offset_at(
            channel_experiment(driving, sigma5=0.6, sigma8=product / 0.6)
        )
        spread = abs(first - second)
        worst = max(worst, spread)
        assert spread < PRODUCT_ONLY_TOL, f"{driving}: {spread:.3e}"
    print(f"criterion 6: worst factorization spread {worst:.3e} dx")


# ---------------------------------------------------------------------------
# Criterion 7: transport coefficients
# ---------------------------------------------------------------------------


def test_criterion_7_transport_coefficients_match_formulas():
    kappa_a = measure_diffusivity(D1Q3Experiment(variant="a", n=64, sigma1=1.0, sigma2=0.125))
    formula_a = diffusivity_from_params("a", 1.0, 1.0 / 3.0)
    rel_a = abs(kappa_a - formula_a) / formula_a
    assert rel_a < 2e-2

    kappa_b = measure_diffusivity(D1Q3Experiment(variant="b", n=64, sigma1=1.0, sigma2=0.375))
    formula_b = diffusivity_from_params("b", 1.0, 1.0)
    rel_b = abs(kappa_b - formula_b) / formula_b
    assert rel_b < 2e-2

    nu = measure_viscosity(D2Q9Experiment(nx=64, sigma5=0.375, sigma8=1.0))
    rel_nu = abs(nu - 1.0 / 3.0) * 3.0
    assert rel_nu < 2e-2
    print(
        f"criterion 7: kappa_a rel {rel_a:.2e}, kappa_b rel {rel_b:.2e}, "
        f"nu rel {rel_nu:.2e}"
    )


# ---------------------------------------------------------------------------
# Criterion 8: supporting properties
# ---------------------------------------------------------------------------


def test_criterion_8_basis_round_trips_are_exact():
    for variant in ("a", "b"):
        basis = build_d1q3_basis(variant)
        assert np.max(np.abs(basis.inverse @ basis.matrix - np.eye(3))) < 1e-13
    basis9 = build_d2q9_basis()
    assert np.max(np.abs(basis9.inverse @ basis9.matrix - np.eye(9))) < 1e-13


def test_criterion_8_periodic_streaming_is_a_permutation():
    rng = np.random.default_rng(77)
    line = rng.normal(size=(3, 10))
    out = stream(D1Q3, line, periodic_line_closures())
    for j in range(3):
        assert np.array_equal(np.sort(out[j]), np.sort(line[j]))
    plane = rng.normal(size=(9, 6, 7))
    out9 = stream(D2Q9, plane, periodic_plane_closures())
    for j in range(9):
        assert np.array_equal(
            np.sort(out9[j], axis=None), np.sort(plane[j], axis=None)
        )


def test_criterion_8_collision_conserves_invariants_bitwise():
    rng = np.random.default_rng(78)
    m1 = rng.normal(size=(3, 12))
    out1 = relax(m1, np.zeros_like(m1), relaxation_d1q3(1.0, 0.125))
    assert np.array_equal(out1[0], m1[0])
    m9 = rng.normal(size=(9, 5, 6))
    out9 = relax(m9, np.zeros_like(m9), relaxation_d2q9(0.375, 1.0))
    for row in range(3):
        assert np.array_equal(out9[row], m9[row])


def test_criterion_8_rest_states_are_fixed_under_all_closures():
    # Zero deviation fields are exact fixed points of the wall-bounded
    # updates; a uniform density at rest survives the walled channel to
    # roundoff.
    zeros1 = np.zeros((3, 12))
    out1 = d1q3_run(
        zeros1, 10, diffusion_closures(), (0.0, 1.0, 0.8),
        "a", 1.0 / 3.0,
    )
    assert np.array_equal(out1, zeros1)

    zeros9 = np.zeros((9, 7, 9))
    out9 = d2q9_run(
        zeros9, 10, pressure_channel_closures(0.0), relaxation_d2q9(0.375, 1.0),
        -2.0, 1.0,
    )
    assert np.array_equal(out9, zeros9)

    basis = build_d2q9_basis()
    uniform = from_moments(basis, equilibrium_d2q9(np.ones((7, 9)), 0.0, 0.0, -2.0, 1.0))
    settled = d2q9_run(
        uniform, 50, force_channel_closures(), relaxation_d2q9(0.375, 1.0), -2.0, 1.0
    )
    assert np.max(np.abs(settled - uniform)) < 1e-13


def test_criterion_8_parabola_fit_roots_are_exact():
    x = np.arange(0.1, 0.95, 0.1)
    fit = fit_parabola(x, x * (1.0 - x))
    roots = np.sort(fit.roots)
    assert abs(roots[0]) < 1e-12
    assert abs(roots[1] - 1.0) < 1e-12
