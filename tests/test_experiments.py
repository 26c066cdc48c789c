"""Tests of the steady-state experiments and magic-product measurements.

Grids here are deliberately small: the half-spacing wall crossing at the
magic relaxation product is exact at any resolution, so a short channel
probes the same property the production sizes do, in a fraction of the
time.  The off-magic oracle is the closed form of the discrete steady
profile on sixteen nodes, frozen below.
"""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from magiclbm.errors import (
    ConfigurationError,
    ConvergenceError,
    LocalizationError,
    MeasurementError,
)
from magiclbm import boundaries, experiments, kernels
from magiclbm.collision import (
    diffusivity_from_params,
    equilibrium_d1q3,
    equilibrium_d2q9,
    relaxation_d1q3,
    relaxation_d2q9,
)
from magiclbm.experiments import (
    DRIVING_TAGS,
    D1Q3Experiment,
    D2Q9Experiment,
    MagicSweep,
    SteadyStateCriterion,
    density_profile,
    exact_poiseuille,
    exact_poisson_1d,
    find_magic_root,
    measure_diffusivity,
    measure_sound_speed,
    measure_viscosity,
    predict_magic,
    run_to_steady,
    sweep_product,
    velocity_profile,
    wall_offset,
)
from magiclbm.experiments import _decay_rate
from magiclbm.lattice import build_d1q3_basis, build_d2q9_basis, from_moments

# Small-grid stand-ins for the production channels.
LINE = dict(n=16)
CHANNEL = dict(nx=6, ny=11)


def line_offset(variant, sigma1, sigma2, side="lower"):
    exp = D1Q3Experiment(variant=variant, sigma1=sigma1, sigma2=sigma2, **LINE)
    f, _ = run_to_steady(exp)
    return wall_offset(exp, f, side=side).delta_q


def channel_offset(driving, sigma5, sigma8, **kwargs):
    exp = D2Q9Experiment(driving=driving, sigma5=sigma5, sigma8=sigma8,
                         **{**CHANNEL, **kwargs})
    f, _ = run_to_steady(exp)
    return wall_offset(exp, f).delta_q


# ---------------------------------------------------------------------------
# Predicted magic products
# ---------------------------------------------------------------------------


def test_predicted_products():
    assert predict_magic("d1q3-a") == pytest.approx(1.0 / 8.0)
    assert predict_magic("d1q3-b") == pytest.approx(3.0 / 8.0)
    assert predict_magic("force-split-half") == pytest.approx(3.0 / 8.0)
    assert predict_magic("force-population") == pytest.approx(3.0 / 16.0)
    assert predict_magic("pressure", -2.0, 1.0) == pytest.approx(3.0 / 16.0)
    assert predict_magic("pressure", -2.5, 2.5) == pytest.approx(3.0 / 8.0)


def test_pressure_predictor_formula():
    # -(3/8)(alpha + 4) / (alpha + 2 beta - 4) at a generic point.
    alpha, beta = -1.8, 1.4
    expected = -(3.0 / 8.0) * (alpha + 4.0) / (alpha + 2.0 * beta - 4.0)
    assert predict_magic("pressure", alpha, beta) == pytest.approx(expected)


def test_pressure_predictor_requires_parameters():
    with pytest.raises(ConfigurationError, match="alpha, beta"):
        predict_magic("pressure")


def test_pressure_predictor_rejects_singular_denominator():
    with pytest.raises(ConfigurationError, match="singular"):
        predict_magic("pressure", 0.0, 2.0)


def test_unknown_variant_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown scheme variant"):
        predict_magic("d3q19")


# ---------------------------------------------------------------------------
# Line scheme steady states
# ---------------------------------------------------------------------------


def test_line_magic_product_puts_wall_at_half_spacing():
    assert line_offset("a", 1.0, 0.125) == pytest.approx(0.5, abs=1e-10)
    assert line_offset("b", 1.0, 0.375) == pytest.approx(0.5, abs=1e-10)


def test_line_profile_is_symmetric():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    f, _ = run_to_steady(exp)
    lower = wall_offset(exp, f, side="lower").delta_q
    upper = wall_offset(exp, f, side="upper").delta_q
    assert lower == pytest.approx(upper, abs=1e-10)
    x, rho = density_profile(exp, f)
    assert np.allclose(rho, rho[::-1], atol=1e-18)


def test_line_off_magic_offset_matches_closed_form():
    # On sixteen nodes the discrete steady profile gives the apparent
    # wall at q^2 + 15 q - (15/2 + 2 P) = 0 with P the sigma product, so
    # at P = 1/4 the offset is (-15 + sqrt(257)) / 2.
    expected = (-15.0 + math.sqrt(257.0)) / 2.0
    assert line_offset("a", 1.0, 0.25) == pytest.approx(expected, abs=1e-8)


def test_line_offset_depends_only_on_the_product():
    product = 0.2
    offsets = [
        line_offset("a", sa, product / sa)
        for sa in (1.0, 0.5, 2.0, product)
    ]
    spread = max(offsets) - min(offsets)
    assert spread < 1e-9


def test_line_density_profile_matches_diffusion_solution():
    # Away from the walls the profile must follow the source-balance
    # parabola of the continuum problem with the formula diffusivity.
    exp = D1Q3Experiment(variant="a", n=24, sigma1=1.0, sigma2=0.125)
    f, _ = run_to_steady(exp)
    x, rho = density_profile(exp, f)
    kappa = diffusivity_from_params("a", exp.sigma1, exp.zeta)
    length = exp.n  # walls sit half a spacing outside the end nodes
    scaled = (x + 0.5) / length
    expected = exact_poisson_1d(exp.source * length * length, kappa, scaled)
    assert np.allclose(rho, expected, rtol=5e-3, atol=1e-12)


# ---------------------------------------------------------------------------
# Channel steady states
# ---------------------------------------------------------------------------


def test_split_half_magic_product_puts_wall_at_half_spacing():
    assert channel_offset("force-split-half", 0.375, 1.0) == pytest.approx(
        0.5, abs=1e-8
    )


def test_population_magic_product_puts_wall_at_half_spacing():
    assert channel_offset("force-population", 0.1875, 1.0) == pytest.approx(
        0.5, abs=1e-8
    )


def test_pressure_magic_product_puts_wall_at_half_spacing():
    # The inlet and outlet columns carry boundary layers that decay
    # along the channel, so the mid-channel fit needs some distance
    # from both ends; forty columns leave the crossing clean.
    offset = channel_offset("pressure", 0.1875, 1.0, nx=40)
    assert offset == pytest.approx(0.5, abs=1e-5)


def test_channel_offset_depends_only_on_the_product():
    product = 0.3
    offsets = [
        channel_offset("force-split-half", sa, product / sa)
        for sa in (0.375, 1.0, 1.5)
    ]
    assert max(offsets) - min(offsets) < 1e-9


def test_channel_profile_matches_poiseuille_solution():
    exp = D2Q9Experiment(driving="force-split-half", sigma5=0.375, sigma8=1.0,
                         nx=6, ny=17)
    f, _ = run_to_steady(exp)
    y, jx = velocity_profile(exp, f)
    nu = exp.sigma8 / 3.0
    height = exp.ny  # walls half a spacing beyond both boundary rows
    expected = exact_poiseuille(exp.fx, nu, height, y + 0.5)
    assert np.allclose(jx, expected, rtol=5e-3, atol=1e-12)


def test_pressure_offset_is_insensitive_to_drive_amplitude():
    # The imposed density offset only scales the linear solution, so the
    # crossing location cannot see it.
    small = channel_offset("pressure", 0.1875, 1.0, delta_p=1e-6)
    large = channel_offset("pressure", 0.1875, 1.0, delta_p=3e-6)
    assert small == pytest.approx(large, abs=1e-6)


def test_channel_offset_is_uniform_along_the_flow():
    exp = D2Q9Experiment(driving="force-split-half", sigma5=0.3, sigma8=1.0,
                         nx=12, ny=9)
    f, _ = run_to_steady(exp)
    left = wall_offset(exp, f, column=3).delta_q
    right = wall_offset(exp, f, column=9).delta_q
    assert left == pytest.approx(right, abs=1e-9)


def test_channel_lower_and_upper_offsets_agree():
    exp = D2Q9Experiment(driving="force-population", sigma5=0.1875, sigma8=1.0,
                         **CHANNEL)
    f, _ = run_to_steady(exp)
    lower = wall_offset(exp, f, side="lower").delta_q
    upper = wall_offset(exp, f, side="upper").delta_q
    assert lower == pytest.approx(upper, abs=1e-8)


# ---------------------------------------------------------------------------
# Convergence control
# ---------------------------------------------------------------------------


def test_starved_criterion_raises_convergence_error():
    criterion = SteadyStateCriterion(tolerance=1e-15, check_every=100, max_steps=100)
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, n=16,
                         criterion=criterion)
    with pytest.raises(ConvergenceError) as excinfo:
        run_to_steady(exp)
    assert excinfo.value.steps == 100
    assert excinfo.value.last_change > 0.0


def test_diverging_march_stops_at_the_first_non_finite_check():
    # Line variant b at zeta = 2 is linearly unstable; its field goes
    # non-finite within about a thousand steps of a 500 000-step budget.
    # The march reports that as a ConvergenceError, with no numpy
    # overflow warning on the way.
    exp = D1Q3Experiment(variant="b", n=32, zeta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="diverged") as excinfo:
            run_to_steady(exp)
    assert excinfo.value.steps <= 2000
    assert not np.isfinite(excinfo.value.last_change)


def test_quiescent_state_converges_at_first_check():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, n=16, source=0.0)
    f, steps = run_to_steady(exp)
    assert steps == exp.criterion.check_every
    assert np.all(f == 0.0)


def test_warm_start_resumes_from_steady_state():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.2, **LINE)
    f, first = run_to_steady(exp)
    g, second = run_to_steady(exp, init=f)
    assert second == exp.criterion.check_every
    assert first > second
    assert wall_offset(exp, g).delta_q == pytest.approx(
        wall_offset(exp, f).delta_q, abs=1e-12
    )


def plain_march(exp):
    """The unaccelerated window loop: whole windows from rest, no mixing.

    Calls the kernels directly with the experiment's closures and stops
    by the criterion's rule.  Returns (f, steps), or raises the
    ConvergenceError of a non-finite check as ``run_to_steady`` does.
    """
    if isinstance(exp, D1Q3Experiment):
        f = np.zeros((3, exp.n))
        closures = boundaries.diffusion_closures()
        settings = relaxation_d1q3(exp.sigma1, exp.sigma2)
        args = (closures, settings, exp.variant, exp.zeta, exp.source)
        kernel = kernels.d1q3_run
    else:
        f = np.zeros((9, exp.ny, exp.nx))
        driving = exp.driving
        closures = boundaries.force_channel_closures()
        if driving == "pressure":
            delta_rho = exp.delta_p / boundaries.sound_speed_sq(exp.alpha)
            closures = boundaries.pressure_channel_closures(delta_rho)
            driving = None
        settings = relaxation_d2q9(exp.sigma5, exp.sigma8, exp.s_bulk)
        args = (closures, settings, exp.alpha, exp.beta, driving, exp.fx)
        kernel = kernels.d2q9_run
    window = exp.criterion.check_every
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < exp.criterion.max_steps:
            f_new = kernel(f, window, *args)
            steps += window
            rel = np.max(np.abs(f_new - f)) / np.max(np.abs(f_new)) / window
            f = f_new
            if rel < exp.criterion.tolerance:
                return f, steps
            if not np.isfinite(rel):
                raise ConvergenceError("march diverged", last_change=rel, steps=steps)
    raise AssertionError("plain march did not settle")


PLAIN_MARCH_CASES = {
    "line-a": D1Q3Experiment(variant="a", n=32, sigma1=2.0, sigma2=0.05),
    "line-b": D1Q3Experiment(variant="b", n=32, zeta=0.6),
    "split-half": D2Q9Experiment(driving="force-split-half", nx=100, ny=21),
    "population": D2Q9Experiment(driving="force-population", nx=20, ny=11),
    "pressure": D2Q9Experiment(driving="pressure", nx=40, ny=9, alpha=-1.0),
}


@pytest.mark.parametrize("name", sorted(PLAIN_MARCH_CASES))
def test_accelerated_march_settles_where_the_plain_one_does(name):
    exp = PLAIN_MARCH_CASES[name]
    f, steps = run_to_steady(exp)
    g, plain_steps = plain_march(exp)
    assert steps % exp.criterion.check_every == 0
    assert steps <= plain_steps
    assert np.max(np.abs(f - g)) <= 1e-12 * np.max(np.abs(g))
    assert wall_offset(exp, f).delta_q == pytest.approx(
        wall_offset(exp, g).delta_q, abs=1e-12
    )


@pytest.mark.parametrize("zeta, plain_steps", [(1.5, 1300), (2.0, 900)])
def test_unstable_scheme_diverges_at_the_plain_march_step(zeta, plain_steps):
    # The mixing must not settle onto the fixed point of an unstable
    # scheme: it diverges at the very check the plain window loop does.
    exp = D1Q3Experiment(variant="b", n=32, zeta=zeta)
    with pytest.raises(ConvergenceError, match="diverged") as plain:
        plain_march(exp)
    assert plain.value.steps == plain_steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="diverged") as excinfo:
            run_to_steady(exp)
    assert excinfo.value.steps == plain_steps


def test_kernel_calls_go_through_the_module_with_f_and_steps_first(monkeypatch):
    # The traced benchmark swaps kernels.d1q3_run / d2q9_run by name and
    # reads the populations and the step count from args[0] and args[1].
    calls = []

    def recorder(name):
        real = getattr(kernels, name)

        def record(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        return record

    for name in ("d1q3_run", "d2q9_run"):
        monkeypatch.setattr(kernels, name, recorder(name))
    quick = SteadyStateCriterion(tolerance=1.0, check_every=10, max_steps=10)
    run_to_steady(D1Q3Experiment(n=8, criterion=quick))
    for driving in DRIVING_TAGS:
        run_to_steady(D2Q9Experiment(driving=driving, nx=6, ny=5, criterion=quick))
    measure_diffusivity("a", 1.0, 0.125, n=8, steps=20, skip=2)
    measure_viscosity(0.375, 1.0, nx=8, ny=4, steps=20, skip=2)

    names = [name for name, _ in calls]
    assert names.count("d1q3_run") == 1 + 1
    assert names.count("d2q9_run") == len(DRIVING_TAGS) + 1
    for _, args in calls:
        assert isinstance(args[0], np.ndarray)
        assert type(args[1]) is int


def test_criterion_validates_its_fields():
    with pytest.raises(ConfigurationError):
        SteadyStateCriterion(tolerance=-1.0)
    with pytest.raises(ConfigurationError):
        SteadyStateCriterion(check_every=0)
    with pytest.raises(ConfigurationError):
        SteadyStateCriterion(check_every=100, max_steps=50)


# ---------------------------------------------------------------------------
# Sweeps and root finding
# ---------------------------------------------------------------------------


def test_sweep_orders_samples_and_adds_split_pair():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    sweep = sweep_product(exp, [0.25, 0.0625, 0.125])
    assert isinstance(sweep, MagicSweep)
    assert sweep.prediction == pytest.approx(0.125)
    assert sweep.root is None
    assert len(sweep.samples) == 4  # three products plus the swapped pair
    products = [row[2] for row in sweep.samples]
    assert products == sorted(products)
    # The swapped factorization shares the median product.
    median = [row for row in sweep.samples if row[2] == pytest.approx(0.125)]
    assert len(median) == 2
    assert {row[0] for row in median} == {1.0, 0.125}


def test_sweep_brackets_the_magic_product():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    sweep = sweep_product(exp, [0.0625, 0.125, 0.25], split_check=False)
    offsets = {row[2]: row[3] for row in sweep.samples}
    assert offsets[0.0625] < 0.5 < offsets[0.25]
    # The offset grows monotonically with the product, so the crossing
    # is unique.
    values = [row[3] for row in sweep.samples]
    assert values == sorted(values)


def test_sweep_rejects_empty_product_list():
    exp = D1Q3Experiment(variant="a", **LINE)
    with pytest.raises(ConfigurationError, match="at least one product"):
        sweep_product(exp, [])


def test_root_find_recovers_line_magic_product():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    sweep = find_magic_root(exp, bracket=(0.05, 0.3))
    assert sweep.root == pytest.approx(0.125, abs=1e-3)
    assert sweep.prediction == pytest.approx(0.125)
    assert len(sweep.samples) >= 3
    # Every recorded evaluation keeps the fixed first factor.
    assert all(row[0] == 1.0 for row in sweep.samples)


def test_root_find_needs_a_sign_change():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    with pytest.raises(LocalizationError, match="no sign change"):
        find_magic_root(exp, bracket=(0.2, 0.3))


def test_root_find_rejects_bad_bracket():
    exp = D1Q3Experiment(variant="a", **LINE)
    with pytest.raises(ConfigurationError, match="bracket"):
        find_magic_root(exp, bracket=(0.3, 0.1))


def test_root_find_respects_evaluation_budget():
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    with pytest.raises(LocalizationError, match="budget"):
        find_magic_root(exp, bracket=(0.05, 0.3), product_tol=1e-9, max_evals=5)


# The benchmark's four root searches: the factor held fixed at 2, the
# default bracket (half to twice the prediction), the default tolerance.
ROOT_SEARCHES = {
    "line-a": D1Q3Experiment(variant="a", n=32, sigma1=2.0),
    "line-b": D1Q3Experiment(variant="b", n=32, sigma1=2.0),
    "split-half": D2Q9Experiment(driving="force-split-half", nx=100, ny=7, sigma8=2.0),
    "pressure": D2Q9Experiment(driving="pressure", nx=40, ny=9, sigma8=2.0),
}
PRODUCT_TOL = 1e-5


@functools.cache
def logged_root_search(name):
    """One benchmark search, with every march's experiment, state and steps."""
    marches = []

    def logged(exp, init=None):
        f, steps = run_to_steady(exp, init=init)
        marches.append((exp, f, steps))
        return f, steps

    exp = ROOT_SEARCHES[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "run_to_steady", logged)
        sweep = find_magic_root(exp, product_tol=PRODUCT_TOL)
    return exp, sweep, marches


@pytest.fixture(scope="module", params=sorted(ROOT_SEARCHES))
def root_search(request):
    exp, sweep, _ = logged_root_search(request.param)
    return exp, sweep


def test_root_searches_march_few_steps():
    # 16,300 kernel steps with the plain window loop; 5,900 accelerated.
    total = sum(
        steps for name in ROOT_SEARCHES for _, _, steps in logged_root_search(name)[2]
    )
    assert total <= 8000


@pytest.mark.parametrize("name", sorted(ROOT_SEARCHES))
def test_warm_start_from_a_settled_search_state_converges_at_once(name):
    for exp, f, _ in logged_root_search(name)[2]:
        g, steps = run_to_steady(exp, init=f)
        assert steps == exp.criterion.check_every
        assert np.max(np.abs(g - f)) <= 1e-12 * np.max(np.abs(f))


def test_root_search_takes_few_evaluations(root_search):
    _, sweep = root_search
    assert len(sweep.samples) <= 8


def test_root_search_ends_on_a_narrow_sign_change(root_search):
    _, sweep = root_search
    objective = {row[2]: row[3] - 0.5 for row in sweep.samples}
    at_root = objective[sweep.root]
    across = [
        p for p, g in objective.items()
        if g * at_root < 0.0 and abs(p - sweep.root) <= PRODUCT_TOL
    ]
    assert across


def test_root_search_samples_match_cold_starts(root_search):
    # Warm starts only save steps: each sample's offset is the one a
    # march from rest gives at the same factors.
    exp, sweep = root_search
    names = ("sigma1", "sigma2")
    if isinstance(exp, D2Q9Experiment):
        names = ("sigma5", "sigma8")
    for sigma_a, sigma_b, _, delta_q in sweep.samples:
        cold = replace(exp, **dict(zip(names, (sigma_a, sigma_b))))
        f, _ = run_to_steady(cold)
        assert wall_offset(cold, f).delta_q == pytest.approx(delta_q, abs=1e-10)


# ---------------------------------------------------------------------------
# Transport measurements
# ---------------------------------------------------------------------------


def test_measured_diffusivity_matches_formula_variant_a():
    kappa = measure_diffusivity("a", 0.8, 0.125)
    expected = diffusivity_from_params("a", 0.8, 1.0 / 3.0)
    assert kappa == pytest.approx(expected, rel=2e-2)


def test_measured_diffusivity_matches_formula_variant_b():
    kappa = measure_diffusivity("b", 0.8, 0.125)
    expected = diffusivity_from_params("b", 0.8, 1.0)
    assert kappa == pytest.approx(expected, rel=2e-2)


def test_diffusivity_ignores_the_second_relaxation_rate():
    # The decay fit carries a kinetic systematic that shrinks with the
    # wavelength; 128 nodes push it well under the half-percent claim.
    slow = measure_diffusivity("a", 0.8, 0.2, n=128, steps=4000, skip=400)
    fast = measure_diffusivity("a", 0.8, 1.2, n=128, steps=4000, skip=400)
    assert slow == pytest.approx(fast, rel=5e-3)


def test_measured_viscosity_matches_formula():
    nu = measure_viscosity(0.375, 0.6)
    assert nu == pytest.approx(0.6 / 3.0, rel=2e-2)


def test_measured_sound_speed_matches_convention():
    c = measure_sound_speed(alpha=-2.0, beta=1.0)
    assert c == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-2)


# The one-step loops the measurements ran before they became one observed
# march each: a kernel call per step, the amplitude read after every call.


def _one_step_diffusivity(variant, sigma1, sigma2, zeta, n, mode, steps, skip):
    closures = boundaries.periodic_line_closures()
    settings = relaxation_d1q3(sigma1, sigma2)
    x = np.arange(n, dtype=np.float64)
    k = 2.0 * np.pi * mode / n
    wave = np.sin(k * x)
    f = from_moments(build_d1q3_basis(variant), equilibrium_d1q3(variant, wave, zeta))
    proj = 2.0 / n * wave
    amps = np.empty(steps + 1)
    amps[0] = proj @ (f[0] + f[1] + f[2])
    for t in range(1, steps + 1):
        f = kernels.d1q3_run(f, 1, closures, settings, variant, zeta)
        amps[t] = proj @ (f[0] + f[1] + f[2])
    return _decay_rate(amps, skip) / (k * k)


def _one_step_plane_amplitudes(
    moment, amplitude, sigma5, sigma8, s_bulk, alpha, beta, nx, ny, mode, steps
):
    closures = boundaries.periodic_plane_closures()
    settings = relaxation_d2q9(sigma5, sigma8, s_bulk)
    x = np.arange(nx, dtype=np.float64)
    k = 2.0 * np.pi * mode / nx
    wave = np.sin(k * x)
    fields = [np.zeros((ny, nx))] * 3
    fields[moment] = np.tile(wave, (ny, 1))
    f = from_moments(build_d2q9_basis(), equilibrium_d2q9(*fields, alpha, beta))
    proj = 2.0 / (nx * ny) * np.tile(wave, (ny, 1))
    amps = np.empty(steps + 1)
    amps[0] = amplitude(proj, f)
    for t in range(1, steps + 1):
        f = kernels.d2q9_run(f, 1, closures, settings, alpha, beta)
        amps[t] = amplitude(proj, f)
    return k, amps


def _one_step_viscosity(sigma5, sigma8, alpha, beta, s_bulk, nx, ny, mode, steps, skip):
    def amplitude(proj, f):
        jy = (f[2] + f[5] + f[6]) - (f[4] + f[7] + f[8])
        return float(np.sum(proj * jy))

    k, amps = _one_step_plane_amplitudes(
        2, amplitude, sigma5, sigma8, s_bulk, alpha, beta, nx, ny, mode, steps
    )
    return _decay_rate(amps, skip) / (k * k)


def _one_step_sound_speed(alpha, beta, sigma5, sigma8, s_bulk, nx, ny, mode, steps):
    k, amps = _one_step_plane_amplitudes(
        0, lambda proj, f: float(np.sum(proj * (f.sum(axis=0)))),
        sigma5, sigma8, s_bulk, alpha, beta, nx, ny, mode, steps,
    )
    crossings = []
    for t in range(steps):
        a, b = amps[t], amps[t + 1]
        if a == 0.0 or a * b >= 0.0 or max(abs(a), abs(b)) < 1e-10:
            continue
        crossings.append(t + a / (a - b))
    omega = np.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    return float(omega / k)


@pytest.mark.parametrize("variant, zeta", [("a", 1.0 / 3.0), ("b", 1.0), ("b", 0.6)])
def test_diffusivity_equals_the_one_step_loop(variant, zeta):
    args = dict(n=32, mode=1, steps=300, skip=30)
    got = measure_diffusivity(variant, 0.8, 0.3, zeta=zeta, **args)
    assert got == _one_step_diffusivity(variant, 0.8, 0.3, zeta, **args)


@pytest.mark.parametrize("alpha, beta", [(-2.0, 1.0), (-2.5, 2.5)])
def test_viscosity_equals_the_one_step_loop(alpha, beta):
    args = dict(s_bulk=1.3, nx=16, ny=3, mode=1, steps=300, skip=30)
    got = measure_viscosity(0.4, 0.9, alpha=alpha, beta=beta, **args)
    assert got == _one_step_viscosity(0.4, 0.9, alpha, beta, **args)


def test_sound_speed_equals_the_one_step_loop():
    args = dict(sigma5=0.6, sigma8=0.9, s_bulk=1.2, nx=16, ny=3, mode=1, steps=400)
    got = measure_sound_speed(alpha=-1.0, beta=0.5, **args)
    assert got == _one_step_sound_speed(-1.0, 0.5, **args)


def test_exhausted_mode_raises_measurement_error():
    with pytest.raises(MeasurementError, match="mode exhausted"):
        measure_diffusivity("a", 0.8, 0.125, n=16, steps=60, skip=55)


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


def test_exact_poisson_profile_oracle():
    assert exact_poisson_1d(2.0, 1.0, 0.5) == pytest.approx(0.25)
    assert exact_poisson_1d(2.0, 1.0, 0.0) == 0.0


def test_exact_poisson_rejects_nonpositive_diffusivity():
    with pytest.raises(ValueError):
        exact_poisson_1d(1.0, 0.0, 0.5)


def test_exact_poiseuille_profile_oracle():
    assert exact_poiseuille(0.2, 0.1, 10.0, 5.0) == pytest.approx(25.0)
    assert exact_poiseuille(0.2, 0.1, 10.0, 0.0) == 0.0
    assert exact_poiseuille(0.2, 0.1, 10.0, 10.0) == pytest.approx(0.0, abs=1e-15)
