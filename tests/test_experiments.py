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
from magiclbm.lattice import D2Q9, build_d1q3_basis, build_d2q9_basis, from_moments

# The D2Q9 population with vy (MIRROR) or vx (XM) negated: a channel's
# mirror image about its mid-line is f[MIRROR, ::-1], about its mid-column
# f[XM, :, ::-1].
VELOCITIES = list(zip(D2Q9.vx, D2Q9.vy))
MIRROR, XM = (
    np.array([VELOCITIES.index((sx * vx, sy * vy)) for vx, vy in VELOCITIES])
    for sx, sy in ((1, -1), (-1, 1))
)

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


@pytest.mark.parametrize("column", [None, 3, -1])
@pytest.mark.parametrize("exp", [
    D2Q9Experiment(driving="force-split-half", nx=100, ny=7),
    D2Q9Experiment(driving="force-population", nx=6, ny=11, fx=3e-5),
    D2Q9Experiment(driving="pressure", nx=40, ny=9),
], ids=["split-half-100x7", "population-6x11", "pressure-40x9"])
def test_velocity_profile_reads_its_column_as_the_full_grid_formula(exp, column):
    f = np.random.default_rng(7).normal(size=(9, exp.ny, exp.nx))
    jx = (f[1] + f[5] + f[8]) - (f[3] + f[6] + f[7])
    want = jx[:, exp.nx // 2 if column is None else column].copy()
    if exp.driving != "pressure":
        want += 0.5 * exp.fx
    y, got = velocity_profile(exp, f, column=column)
    assert got.tobytes() == want.tobytes()
    assert y.tobytes() == np.arange(exp.ny, dtype=np.float64).tobytes()


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


def anderson_march(run_chunk, f, criterion):
    """The window loop as it was written before its bookkeeping was trimmed:
    ``np.max`` of ``np.abs``, the history as (end, residual) pairs and the
    differences by ``np.diff`` over ``zip(*history)``.  Returns (f, steps,
    clears), clears counting the windows that emptied the history."""
    steps_done, rel, history, clears = 0, None, [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while steps_done < criterion.max_steps:
            chunk = min(criterion.check_every, criterion.max_steps - steps_done)
            f_new = run_chunk(f, chunk)
            steps_done += chunk
            residual = f_new - f
            change = float(np.max(np.abs(residual)))
            scale = float(np.max(np.abs(f_new)))
            f = f_new
            if scale == 0.0:
                if change == 0.0:
                    return f, steps_done, clears
                continue
            last, rel = rel, change / scale / chunk
            if rel < criterion.tolerance:
                return f, steps_done, clears
            assert np.isfinite(rel)
            if last is not None and rel >= last:
                history = []
                clears += 1
            history = history[-experiments.ANDERSON_DEPTH:] + [
                (f_new.ravel(), residual.ravel())
            ]
            if len(history) > 1:
                d_ends, d_residuals = (np.diff(a, axis=0) for a in zip(*history))
                gamma = np.linalg.lstsq(d_residuals.T, residual.ravel(), rcond=None)[0]
                f = f_new - (gamma @ d_ends).reshape(f.shape)
    raise AssertionError("march did not settle")


# (experiment, whether a window's relative change rises so the history is
# cleared): the benchmark's line, force column and pressure quarter grid,
# and three short windows that clear it.
WINDOW_LOOP_CASES = {
    "line": (D1Q3Experiment(variant="a", n=32, sigma1=2.0), False),
    "force-column": (
        D2Q9Experiment(driving="force-split-half", nx=100, ny=7, sigma8=2.0), False),
    "pressure-quarter": (
        D2Q9Experiment(driving="pressure", nx=40, ny=9, sigma8=2.0), False),
    "line-cleared": (
        D1Q3Experiment(variant="b", n=32, criterion=SteadyStateCriterion(check_every=5)),
        True),
    "force-column-cleared": (
        D2Q9Experiment(driving="force-split-half", nx=100, ny=21,
                       criterion=SteadyStateCriterion(check_every=10)), True),
    "pressure-quarter-cleared": (
        D2Q9Experiment(driving="pressure", nx=40, ny=9, sigma8=2.0,
                       criterion=SteadyStateCriterion(check_every=5)), True),
}


@pytest.mark.parametrize("name", sorted(WINDOW_LOOP_CASES))
def test_window_loop_marches_as_the_untrimmed_loop_does_bitwise(name, monkeypatch):
    exp, cleared = WINDOW_LOOP_CASES[name]
    march = experiments._march
    calls = []

    def captured(run_chunk, f, criterion):
        calls.append((run_chunk, f, criterion))
        return march(run_chunk, f, criterion)

    monkeypatch.setattr(experiments, "_march", captured)
    run_to_steady(exp)
    (run_chunk, f0, criterion), = calls
    f, steps = march(run_chunk, f0, criterion)
    g, want_steps, clears = anderson_march(run_chunk, f0, criterion)
    assert (clears > 0) == cleared
    assert steps == want_steps
    assert f.shape == g.shape and f.tobytes() == g.tobytes()


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
    measure_diffusivity(D1Q3Experiment(n=8, sigma1=1.0, sigma2=0.125), steps=20, skip=2)
    measure_viscosity(D2Q9Experiment(nx=8, sigma5=0.375, sigma8=1.0), steps=20, skip=2)

    names = [name for name, _ in calls]
    assert names.count("d1q3_run") == 1 + 1
    assert names.count("d2q9_run") == len(DRIVING_TAGS) + 1
    for _, args in calls:
        assert isinstance(args[0], np.ndarray)
        assert type(args[1]) is int


def test_marches_run_on_the_cells_they_can_differ_on(monkeypatch):
    # Force channels and plane waves are uniform along a periodic axis, so
    # the kernel sees one column or one row; a pressure channel is not, but
    # it is antisymmetric about its mid-column, so the kernel sees its west
    # (nx + 1) // 2 columns.  Every channel is symmetric about its mid-line,
    # so the kernel sees its lower (ny + 1) // 2 rows.
    shapes = []
    real = kernels.d2q9_run

    def record(f, *args, **kwargs):
        shapes.append(f.shape)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(kernels, "d2q9_run", record)
    quick = SteadyStateCriterion(tolerance=1.0, check_every=10, max_steps=10)
    for driving in DRIVING_TAGS:
        exp = D2Q9Experiment(driving=driving, nx=6, ny=5, criterion=quick)
        f, _ = run_to_steady(exp)
        assert f.shape == (9, 5, 6)
        assert np.all(f == f[..., :1]) == (driving != "pressure")
        assert np.any(f != 0.0)
        assert np.array_equal(f, f[MIRROR, ::-1])
        if driving == "pressure":
            assert np.array_equal(f, -f[XM, :, ::-1])
    measure_viscosity(D2Q9Experiment(nx=8, sigma5=0.375, sigma8=1.0), steps=20, skip=2)
    measure_sound_speed(D2Q9Experiment(nx=8, sigma5=1.0, sigma8=1.0), steps=40)
    assert shapes == [(9, 3, 1), (9, 3, 1), (9, 3, 3), (9, 1, 8), (9, 1, 8)]


def full_grid_march(exp):
    """``run_to_steady`` without its reductions: every node of the channel
    marched from rest through the same accelerated window loop.  Only
    Anderson's least squares over the longer residual rounds differently."""
    closures, driving = experiments._channel(exp)
    settings = relaxation_d2q9(exp.sigma5, exp.sigma8, exp.s_bulk)

    def run_chunk(f, chunk):
        return kernels.d2q9_run(
            f, chunk, closures, settings, exp.alpha, exp.beta, driving, exp.fx
        )

    return experiments._march(run_chunk, np.zeros((9, exp.ny, exp.nx)), exp.criterion)


@pytest.mark.parametrize("driving", ["force-split-half", "force-population"])
def test_force_column_settles_as_the_full_grid_does(driving):
    exp = D2Q9Experiment(driving=driving, nx=100, ny=21)
    g, grid_steps = full_grid_march(exp)
    f, steps = run_to_steady(exp)
    assert f.shape == g.shape
    assert np.all(f == f[..., :1])
    assert steps == grid_steps
    assert wall_offset(exp, f).delta_q == pytest.approx(
        wall_offset(exp, g).delta_q, abs=1e-14
    )


@pytest.mark.parametrize("nx, ny", [(40, 9), (40, 8), (100, 21)], ids=str)
def test_pressure_half_settles_as_the_full_grid_does(nx, ny):
    exp = D2Q9Experiment(driving="pressure", nx=nx, ny=ny)
    g, grid_steps = full_grid_march(exp)
    f, steps = run_to_steady(exp)
    assert f.shape == g.shape
    assert np.array_equal(f, f[MIRROR, ::-1])
    assert np.array_equal(f, -f[XM, :, ::-1])
    assert steps == grid_steps
    for side in ("lower", "upper"):
        assert wall_offset(exp, f, side).delta_q == pytest.approx(
            wall_offset(exp, g, side).delta_q, abs=1e-14
        )


@pytest.mark.parametrize("driving", DRIVING_TAGS)
@pytest.mark.parametrize("ny", [7, 8])
def test_channel_refuses_a_start_that_is_not_mirror_symmetric(driving, ny):
    # Only the lower half is marched, so the upper half of such a start
    # would be dropped without a word; it is refused instead.  The mean of
    # the start and its mirror image is accepted.  A pressure channel's start
    # is made antisymmetric about the mid-column first, as it must be.
    exp = D2Q9Experiment(driving=driving, nx=6, ny=ny)
    noise = 1e-5 * np.random.default_rng(2).normal(size=(9, ny, 1))
    noise = np.broadcast_to(noise, (9, ny, 6))
    if driving == "pressure":
        noise = 0.5 * (noise - noise[XM, :, ::-1])
    with pytest.raises(ValueError, match="mirror-symmetric"):
        run_to_steady(exp, init=noise)
    run_to_steady(exp, init=0.5 * (noise + noise[MIRROR, ::-1]))


@pytest.mark.parametrize("nx", [6, 7])
def test_pressure_channel_refuses_a_start_that_is_not_antisymmetric(nx):
    # Only the west half is marched, so the east half of such a start would
    # be dropped without a word; it is refused instead.  The start's
    # antisymmetric part is accepted, and so is the state it settles to.
    exp = D2Q9Experiment(driving="pressure", nx=nx, ny=7)
    noise = 1e-5 * np.random.default_rng(3).normal(size=(9, 7, nx))
    noise = 0.5 * (noise + noise[MIRROR, ::-1])
    with pytest.raises(ValueError, match="antisymmetric"):
        run_to_steady(exp, init=noise)
    f, _ = run_to_steady(exp, init=0.5 * (noise - noise[XM, :, ::-1]))
    assert run_to_steady(exp, init=f)[1] == exp.criterion.check_every


def test_force_channel_refuses_a_start_whose_columns_differ():
    # The periodic channel keeps the x-dependence of such a start, which
    # the window check does not see, so it is refused rather than averaged.
    exp = D2Q9Experiment(driving="force-split-half", nx=8, ny=7)
    noise = 1e-5 * np.random.default_rng(1).normal(size=(9, 7, 8))
    with pytest.raises(ValueError, match="same in every column"):
        run_to_steady(exp, init=noise)


# A line, both force drivings (odd and even height) and pressure channels
# of even and odd width: every shape run_to_steady marches.
MARCHED_CASES = {
    "line": D1Q3Experiment(variant="a", **LINE),
    "split-half": D2Q9Experiment(driving="force-split-half", **CHANNEL),
    "population": D2Q9Experiment(driving="force-population", nx=6, ny=8),
    "pressure": D2Q9Experiment(driving="pressure", nx=12, ny=7),
    "pressure-odd-nx": D2Q9Experiment(driving="pressure", nx=13, ny=8),
}


def symmetric_start(exp, seed):
    """A full-shape start run_to_steady accepts, built without ``kernels``:
    noise made mirror-symmetric about the mid-line, and antisymmetric about
    the mid-column on a pressure channel or one column repeated on a force
    channel."""
    if isinstance(exp, D1Q3Experiment):
        return 1e-6 * np.random.default_rng(seed).normal(size=(3, exp.n))
    force = exp.driving != "pressure"
    rng = np.random.default_rng(seed)
    noise = 1e-6 * rng.normal(size=(9, exp.ny, 1 if force else exp.nx))
    noise = 0.5 * (noise + noise[MIRROR, ::-1])
    if force:
        return np.repeat(noise, exp.nx, axis=2)
    return 0.5 * (noise - noise[XM, :, ::-1])


def marched_part(exp):
    """Index of the part of a full-shape field that run_to_steady marches:
    the line, a force channel's lower rows of one column, or a pressure
    channel's lower rows of its west columns."""
    if isinstance(exp, D1Q3Experiment):
        return np.s_[:, :]
    width = exp.nx if exp.driving == "pressure" else 1
    return np.s_[:, : (exp.ny + 1) // 2, : (width + 1) // 2]


def assert_symmetric(exp, f):
    """f is what a channel's marched part stands for: mirror-symmetric, and
    antisymmetric about the mid-column or the same in every column."""
    if isinstance(exp, D2Q9Experiment):
        assert np.array_equal(f, f[MIRROR, ::-1])
        if exp.driving == "pressure":
            # An odd grid's mid-column is its own image; its populations
            # that stay on it are marched, not rebuilt, so they are left out.
            west = np.s_[..., : exp.nx // 2]
            assert np.array_equal(f[west], -f[XM, :, ::-1][west])
        else:
            assert np.all(f == f[..., :1])


@pytest.mark.parametrize("warm", [False, True], ids=["rest", "warm"])
@pytest.mark.parametrize("name", sorted(MARCHED_CASES))
def test_marched_run_is_the_marched_part_of_the_full_run_bitwise(name, warm):
    exp = MARCHED_CASES[name]
    start = symmetric_start(exp, seed=5) if warm else None
    full, full_steps = run_to_steady(exp, init=start)
    init = None if start is None else start[marched_part(exp)]
    f, steps = run_to_steady(exp, init=init, marched=True)
    part = full[marched_part(exp)]
    assert f.shape == part.shape
    assert steps == full_steps
    assert np.array_equal(f, part)
    assert_symmetric(exp, full)


@pytest.mark.parametrize("name", sorted(MARCHED_CASES))
def test_marched_run_refuses_a_start_of_another_shape(name):
    # The full shape where the marched one is wanted, and the other way
    # round; the line's two shapes are one, so it gets a longer line.
    exp = MARCHED_CASES[name]
    full = symmetric_start(exp, seed=6)
    part = full[marched_part(exp)]
    wrong = np.zeros((3, exp.n + 1)) if isinstance(exp, D1Q3Experiment) else full
    with pytest.raises(ValueError) as excinfo:
        run_to_steady(exp, init=wrong, marched=True)
    assert str(excinfo.value) == f"init shape {wrong.shape} does not match {part.shape}"
    if isinstance(exp, D2Q9Experiment):
        with pytest.raises(ValueError) as excinfo:
            run_to_steady(exp, init=part)
        assert str(excinfo.value) == f"init shape {part.shape} does not match {full.shape}"


def full_shape_sample(exp, product, init=None):
    """``experiments._sample`` as it was before it kept marched shapes: full
    states in and out of run_to_steady, the offset read from the full grid.
    A force channel's direct start comes in the marched shape, one column
    of the lower rows, and is unfolded to the full grid first."""
    if isinstance(exp, D2Q9Experiment) and init is not None and init.shape[2] == 1:
        init = np.repeat(kernels.unfold(init, ny=exp.ny), exp.nx, axis=2)
    f, _ = run_to_steady(exp, init=init)
    sigmas = (getattr(exp, name) for name in exp.factors)
    return f, (*sigmas, product, wall_offset(exp, f).delta_q)


@pytest.mark.parametrize("name", sorted(MARCHED_CASES))
def test_searches_on_marched_states_sample_as_on_full_ones(name, monkeypatch):
    exp = MARCHED_CASES[name]
    magic = experiments.predicted_product(exp)
    products = [0.7 * magic, magic, 1.4 * magic]
    searched = repr((find_magic_root(exp), sweep_product(exp, products)))
    monkeypatch.setattr(experiments, "_sample", full_shape_sample)
    # repr prints every float exactly, the root and every sample row
    assert searched == repr((find_magic_root(exp), sweep_product(exp, products)))


# The cases of the direct steady solve, at their closed-form products.
DIRECT_CASES = {
    "line-a": D1Q3Experiment(variant="a", n=32),
    "line-b": D1Q3Experiment(variant="b", n=32),
    "split-half": D2Q9Experiment(driving="force-split-half", nx=100, ny=7),
    "population": D2Q9Experiment(driving="force-population", nx=20, ny=11),
}

# Largest population gap between the direct state and the march from rest,
# over the field's scale: 7.8e-14 measured (line a), with a 10x margin.
DIRECT_POPULATION_GAP = 8e-13

# Largest gap of a force channel's two unfolded masses, in units of the
# rounding of the mass sum: 57 measured (population), with a 10x margin.
DIRECT_MASS_GAP = 600.0


def at_magic(exp):
    return experiments._with_product(exp, experiments.predicted_product(exp))


@pytest.mark.parametrize("name", sorted(DIRECT_CASES))
def test_direct_state_is_the_march_from_rest(name):
    exp = at_magic(DIRECT_CASES[name])
    g = experiments._steady_state(exp)
    f, _ = run_to_steady(exp, marched=True)
    assert g.shape == f.shape
    direct = experiments._offset(exp, g)
    assert abs(direct - 0.5) <= 1e-12
    assert abs(direct - experiments._offset(exp, f)) <= 1e-12
    scale = np.max(np.abs(f))
    assert np.max(np.abs(g - f)) <= DIRECT_POPULATION_GAP * scale
    if isinstance(exp, D2Q9Experiment):
        # The march from rest keeps the unfolded column's mass at zero.
        full = kernels.unfold(f, ny=exp.ny)
        mass = [kernels.unfold(h, ny=exp.ny).sum() for h in (g, f)]
        rounding = np.finfo(float).eps * np.abs(full).sum()
        assert abs(mass[0] - mass[1]) <= DIRECT_MASS_GAP * rounding


def test_direct_state_is_admitted_on_lines_and_force_channels_up_to_the_cap():
    assert experiments.DIRECT_UNKNOWNS == 99
    cap = experiments.DIRECT_UNKNOWNS
    admitted = [
        D1Q3Experiment(n=cap // 3),
        D2Q9Experiment(driving="force-population", ny=2 * (cap // 9) - 1),
    ]
    refused = [
        D1Q3Experiment(n=cap // 3 + 1),
        D2Q9Experiment(driving="force-split-half", ny=2 * (cap // 9) + 1),
        D2Q9Experiment(driving="pressure", nx=6, ny=5),
    ]
    assert all(experiments._steady_state(exp) is not None for exp in admitted)
    assert all(experiments._steady_state(exp) is None for exp in refused)


_PLANE_SCHEME = ("sigma5", "sigma8", "alpha", "beta", "s_bulk")

# The experiment each wave measurement reads its scheme from.
_MEASURED_ON = {
    measure_diffusivity: functools.partial(
        D1Q3Experiment, variant="a", sigma1=1.0, sigma2=0.125
    ),
    measure_viscosity: functools.partial(D2Q9Experiment, sigma5=0.375, sigma8=1.0),
    measure_sound_speed: functools.partial(D2Q9Experiment, sigma5=1.0, sigma8=1.0),
}


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=str)
@pytest.mark.parametrize(
    "make, name",
    [(D1Q3Experiment, name) for name in ("sigma1", "sigma2", "zeta", "source")]
    + [(D2Q9Experiment, name) for name in (*_PLANE_SCHEME, "fx", "delta_p")]
    + [(measure_diffusivity, name) for name in ("sigma1", "sigma2", "zeta")]
    + [(measure_viscosity, name) for name in _PLANE_SCHEME]
    + [(measure_sound_speed, name) for name in _PLANE_SCHEME],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_experiments_refuse_non_finite_parameters(make, name, value):
    # A march would otherwise diverge, a NaN pressure offset break the
    # channel's antisymmetry, or a wave measurement run out of signal, long
    # after the bad value went in.  A measurement takes its scheme from an
    # experiment, so the value is refused before the wave is built.  The
    # refusal comes before any arithmetic on the value, so no RuntimeWarning,
    # which this suite makes an error.
    with pytest.raises(ConfigurationError, match=f"{name}={value}") as excinfo:
        if make in _MEASURED_ON:
            make(_MEASURED_ON[make](**{name: value}))
        else:
            make(**{name: value})
    assert len(excinfo.value.violations) == 1  # held to no other rule


@pytest.mark.parametrize("alpha", [-4.0, -5.0])
def test_pressure_channel_refuses_a_non_positive_sound_speed(alpha):
    # (4 + alpha)/6 turns the pressure offset into a density offset; the
    # force drivings do not use it.
    with pytest.raises(ConfigurationError) as excinfo:
        D2Q9Experiment(driving="pressure", alpha=alpha)
    (violation,) = excinfo.value.violations
    assert violation.startswith("alpha must give a positive squared sound speed")
    D2Q9Experiment(driving="force-split-half", alpha=alpha)


def test_pressure_channel_refuses_a_singular_predictor():
    # alpha + 2 beta - 4 = 0 leaves the magic product undefined; the force
    # drivings do not use it.
    with pytest.raises(ConfigurationError) as excinfo:
        D2Q9Experiment(driving="pressure", alpha=-2, beta=3)
    (violation,) = excinfo.value.violations
    assert violation.startswith("beta must not give alpha + 2 beta - 4 = 0")
    D2Q9Experiment(driving="force-split-half", alpha=-2, beta=3)


def test_experiments_list_every_violation():
    with pytest.raises(ConfigurationError) as excinfo:
        D1Q3Experiment(n=2, sigma1=-1.0, zeta=0.0)
    assert excinfo.value.violations == [
        "n must be >= 5, got 2",
        "sigma1 must be positive, got -1.0",
        "zeta must be positive, got 0.0",
    ]


@pytest.mark.parametrize(
    "make, name, value",
    [(D1Q3Experiment, k, v) for k in ("sigma1", "sigma2", "zeta") for v in (0.0, -1.0)]
    + [(D2Q9Experiment, k, v) for k in ("sigma5", "sigma8") for v in (0.0, -1.0)]
    + [(D2Q9Experiment, "s_bulk", v) for v in (0.0, -0.5, 2.0, 2.5)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_experiments_refuse_unstable_parameters_at_construction(make, name, value):
    # The march would diverge or never settle: a zeta of -1 used to be
    # found only when a line march ran out of steps.
    grid = dict(n=8) if make is D1Q3Experiment else dict(nx=8, ny=7)
    with pytest.raises(ConfigurationError) as excinfo:
        make(**grid, **{name: value})
    (violation,) = excinfo.value.violations
    assert violation.startswith(f"{name} must ")


def test_criterion_validates_its_fields():
    with pytest.raises(ConfigurationError):
        SteadyStateCriterion(tolerance=-1.0)
    # An infinite tolerance would settle a march after its first window.
    with pytest.raises(ConfigurationError, match="tolerance=inf is not finite"):
        SteadyStateCriterion(tolerance=np.inf)
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


@pytest.mark.parametrize("kwargs, match", [
    (dict(product_tol=math.nan), "product_tol must be finite and > 0, got nan"),
    (dict(product_tol=math.inf), "product_tol must be finite and > 0, got inf"),
    (dict(product_tol=-1e-5), "product_tol must be finite and > 0, got -1e-05"),
    (dict(product_tol=0.0), "product_tol must be finite and > 0, got 0.0"),
    (dict(max_evals=0), "max_evals must be >= 2, got 0"),
    (dict(max_evals=1), "max_evals must be >= 2, got 1"),
    (dict(bracket=(0.05, math.inf)), r"bracket ends must be finite, got \(0.05, inf\)"),
    (dict(bracket=(math.nan, 0.3)), r"bracket ends must be finite, got \(nan, 0.3\)"),
], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "evals-0", "evals-1",
        "bracket-inf", "bracket-nan"])
def test_root_find_refuses_its_arguments_before_marching(kwargs, match, monkeypatch):
    def no_march(*args, **kw):
        raise AssertionError("marched before refusing")

    monkeypatch.setattr(experiments, "run_to_steady", no_march)
    exp = D1Q3Experiment(variant="a", **LINE)
    with pytest.raises(ConfigurationError, match=match):
        find_magic_root(exp, **{"bracket": (0.05, 0.3), **kwargs})


def test_root_find_lists_every_refusal():
    exp = D1Q3Experiment(variant="a", **LINE)
    with pytest.raises(ConfigurationError) as excinfo:
        find_magic_root(exp, bracket=(0.3, 0.1), product_tol=0.0, max_evals=1)
    assert [v.split()[0] for v in excinfo.value.violations] == [
        "product_tol", "max_evals", "bracket",
    ]


def test_root_find_respects_evaluation_budget():
    # With exact starts the search lands on delta_q - 1/2 = 0 at its fifth
    # evaluation (it took six when its first two marched from rest and
    # from the nearest state), so a budget of four runs out first.
    exp = D1Q3Experiment(variant="a", sigma1=1.0, sigma2=0.125, **LINE)
    with pytest.raises(LocalizationError, match="budget"):
        find_magic_root(exp, bracket=(0.05, 0.3), product_tol=1e-9, max_evals=4)


# The benchmark's four root searches: the factor held fixed at 2, the
# default bracket (half to twice the prediction), the default tolerance.
ROOT_SEARCHES = {
    "line-a": D1Q3Experiment(variant="a", n=32, sigma1=2.0),
    "line-b": D1Q3Experiment(variant="b", n=32, sigma1=2.0),
    "split-half": D2Q9Experiment(driving="force-split-half", nx=100, ny=7, sigma8=2.0),
    "pressure": D2Q9Experiment(driving="pressure", nx=40, ny=9, sigma8=2.0),
}
PRODUCT_TOL = 1e-5


def kernel_marches(patch):
    """Record the operator shape, the steps and the node count of every
    kernel march."""
    marches, march = [], kernels._march

    def recorded(f, steps, kc, *args):
        marches.append((kc.shape, steps, f[0].size))
        return march(f, steps, kc, *args)

    patch.setattr(kernels, "_march", recorded)
    return marches


@functools.cache
def logged_root_search(name):
    """One benchmark search, with every march's experiment, state, steps and
    keywords, the set of operator shapes its kernel marches used, their
    total of node updates (steps times marched nodes) and the steps of each
    kernel march (one per check window)."""
    marches = []

    def logged(exp, init=None, **kwargs):
        f, steps = run_to_steady(exp, init=init, **kwargs)
        marches.append((exp, f, steps, kwargs))
        return f, steps

    exp = ROOT_SEARCHES[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "run_to_steady", logged)
        kernel = kernel_marches(patch)
        sweep = find_magic_root(exp, product_tol=PRODUCT_TOL)
    shapes = {shape for shape, _, _ in kernel}
    updates = sum(steps * nodes for _, steps, nodes in kernel)
    return exp, sweep, marches, shapes, updates, [steps for _, steps, _ in kernel]


@pytest.fixture(scope="module", params=sorted(ROOT_SEARCHES))
def root_search(request):
    exp, sweep = logged_root_search(request.param)[:2]
    return exp, sweep


def test_root_searches_march_few_steps():
    # 16,300 kernel steps with the plain window loop; 5,900 accelerated;
    # 4,000 with the line and force searches started at their steady states.
    total = sum(
        steps
        for name in ROOT_SEARCHES
        for _, _, steps, _ in logged_root_search(name)[2]
    )
    assert total <= 8000


def test_line_and_force_evaluations_march_one_window_each():
    # The first two evaluations start at the directly solved steady state,
    # the others at the interpolation of two settled states, which is exact
    # to rounding there: each settles in its first window.  The pressure
    # channel is never solved directly and marches 25 windows in all.
    for name in ROOT_SEARCHES:
        exp, sweep, _, _, _, windows = logged_root_search(name)
        window = exp.criterion.check_every
        if name == "pressure":
            assert windows == [window] * 25
        else:
            assert windows == [window] * len(sweep.samples)


def test_pressure_search_is_never_solved_directly(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a pressure channel was solved directly")

    monkeypatch.setattr(kernels, "d2q9_map", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    exp = ROOT_SEARCHES["pressure"]
    assert repr(find_magic_root(exp)) == repr(logged_root_search("pressure")[1])


@pytest.mark.parametrize("name", ["line-a", "split-half", "pressure"])
def test_sweep_starts_each_line_and_force_sample_at_its_steady_state(name, monkeypatch):
    # One settled state at a time: a line or force sample, the swapped
    # pair included, starts at its directly solved steady state and
    # settles in one window; a pressure sample starts at the previous one.
    exp = ROOT_SEARCHES[name]
    magic = experiments.predicted_product(exp)
    windows = kernel_marches(monkeypatch)
    sweep = sweep_product(exp, [0.5 * magic, magic, 2.0 * magic])
    assert len(sweep.samples) == 4
    if name == "pressure":
        assert len(windows) > len(sweep.samples)
    else:
        assert [steps for _, steps, _ in windows] == [exp.criterion.check_every] * 4


def test_root_searches_update_few_nodes():
    # Kernel steps times the nodes each one updates: 986k when the pressure
    # channel marched its whole 40x9 grid, 584k on its lower five rows,
    # 334k on the west 20 columns of those.
    total = sum(logged_root_search(name)[4] for name in ROOT_SEARCHES)
    assert total <= 340_000


def test_root_searches_multiply_only_the_operator_rows_they_read():
    # Anti-bounce-back lines read two negated rows and add the source;
    # split-half walls are unsigned but forced; the pressure faces read six
    # negated rows, three of them with the face's offset in the ones column.
    shapes = {name: logged_root_search(name)[3] for name in ROOT_SEARCHES}
    assert shapes == {
        "line-a": {(5, 4)},
        "line-b": {(5, 4)},
        "split-half": {(9, 10)},
        "pressure": {(15, 10)},
    }


@pytest.mark.parametrize("name", sorted(ROOT_SEARCHES))
def test_warm_start_from_a_settled_search_state_converges_at_once(name):
    for exp, f, _, kwargs in logged_root_search(name)[2]:
        g, steps = run_to_steady(exp, init=f, **kwargs)
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


def test_pressure_root_error_falls_with_channel_length():
    # wall_offset reads the middle column; a short channel's end layers
    # reach it and shift the root.  Measured: 1.4e-2, 9.9e-7, 1.0e-11.
    errors = [
        abs(find_magic_root(
            D2Q9Experiment(driving="pressure", nx=nx, ny=ny, sigma8=2.0),
            product_tol=1e-8,
        ).root - predict_magic("pressure", -2.0, 1.0))
        for nx, ny in [(20, 11), (40, 9), (80, 9)]
    ]
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# Transport measurements
# ---------------------------------------------------------------------------


def test_measured_diffusivity_matches_formula_variant_a():
    kappa = measure_diffusivity(D1Q3Experiment(variant="a", n=64, sigma1=0.8, sigma2=0.125))
    expected = diffusivity_from_params("a", 0.8, 1.0 / 3.0)
    assert kappa == pytest.approx(expected, rel=2e-2)


def test_measured_diffusivity_matches_formula_variant_b():
    kappa = measure_diffusivity(D1Q3Experiment(variant="b", n=64, sigma1=0.8, sigma2=0.125))
    expected = diffusivity_from_params("b", 0.8, 1.0)
    assert kappa == pytest.approx(expected, rel=2e-2)


def test_diffusivity_ignores_the_second_relaxation_rate():
    # The decay fit carries a kinetic systematic that shrinks with the
    # wavelength; 128 nodes push it well under the half-percent claim.
    slow, fast = (
        measure_diffusivity(D1Q3Experiment(n=128, sigma1=0.8, sigma2=sigma2),
                            steps=4000, skip=400)
        for sigma2 in (0.2, 1.2)
    )
    assert slow == pytest.approx(fast, rel=5e-3)


def test_measured_viscosity_matches_formula():
    nu = measure_viscosity(D2Q9Experiment(nx=64, sigma5=0.375, sigma8=0.6))
    assert nu == pytest.approx(0.6 / 3.0, rel=2e-2)


def test_measured_sound_speed_matches_convention():
    c = measure_sound_speed(
        D2Q9Experiment(nx=64, sigma5=1.0, sigma8=1.0, alpha=-2.0, beta=1.0)
    )
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


# The 64-node line and the 64x4 plane are the benchmark's grids (the line
# at its rates): the observed blocks end in the middle of the 300 steps,
# and a gemv per block would round the line's amplitudes differently
# from the per-step product, which the vecdot per block does not.
@pytest.mark.parametrize(
    "variant, zeta, n, sigma1, sigma2",
    [("a", 1.0 / 3.0, 32, 0.8, 0.3), ("b", 1.0, 32, 0.8, 0.3), ("b", 0.6, 32, 0.8, 0.3),
     ("a", 1.0 / 3.0, 64, 1.0, 0.125), ("b", 1.0, 64, 1.0, 0.375)],
    ids=["a-0.3333333333333333", "b-1.0", "b-0.6", "a-n64", "b-n64"],
)
def test_diffusivity_equals_the_one_step_loop(variant, zeta, n, sigma1, sigma2):
    exp = D1Q3Experiment(variant=variant, n=n, sigma1=sigma1, sigma2=sigma2, zeta=zeta)
    got = measure_diffusivity(exp, mode=1, steps=300, skip=30)
    assert got == _one_step_diffusivity(
        variant, sigma1, sigma2, zeta, n=n, mode=1, steps=300, skip=30
    )


@pytest.mark.parametrize(
    "alpha, beta, nx, ny",
    [(-2.0, 1.0, 16, 3), (-2.5, 2.5, 16, 3), (-2.0, 1.0, 64, 4)],
    ids=["-2.0-1.0", "-2.5-2.5", "-2.0-1.0-64x4"],
)
def test_viscosity_equals_the_one_step_loop(alpha, beta, nx, ny):
    # The oracle marches every row of an ny-row plane; the measurement one.
    exp = D2Q9Experiment(nx=nx, sigma5=0.4, sigma8=0.9, alpha=alpha, beta=beta, s_bulk=1.3)
    got = measure_viscosity(exp, mode=1, steps=300, skip=30)
    args = dict(s_bulk=1.3, nx=nx, ny=ny, mode=1, steps=300, skip=30)
    assert got == _one_step_viscosity(0.4, 0.9, alpha, beta, **args)


def test_sound_speed_equals_the_one_step_loop():
    exp = D2Q9Experiment(nx=16, sigma5=0.6, sigma8=0.9, alpha=-1.0, beta=0.5, s_bulk=1.2)
    got = measure_sound_speed(exp, mode=1, steps=400)
    args = dict(sigma5=0.6, sigma8=0.9, s_bulk=1.2, nx=16, ny=3, mode=1, steps=400)
    assert got == _one_step_sound_speed(-1.0, 0.5, **args)


@pytest.mark.parametrize("n", [16, 32, 64, 100, 128])
def test_vecdot_rounds_like_the_one_dimensional_product(n):
    # measure_diffusivity reads a block's line amplitudes with one vecdot;
    # it must give each row the bits of the per-step ``proj @ rho``.
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(300, n))
    for proj in (2.0 / n * np.sin(2.0 * np.pi * np.arange(n) / n), rng.normal(size=n)):
        expect = np.array([proj @ rho for rho in rows])
        assert np.array_equal(np.vecdot(rows, proj), expect)


def measure_benchmark_transport():
    """The benchmark's transport round: the diffusivity of lines a and b on
    64 nodes and the viscosity on a 64-node row, 2,000 steps each."""
    args = dict(mode=1, steps=2000, skip=200)
    for variant, sigma2 in (("a", 0.125), ("b", 0.375)):
        exp = D1Q3Experiment(variant=variant, n=64, sigma1=1.0, sigma2=sigma2)
        measure_diffusivity(exp, **args)
    measure_viscosity(D2Q9Experiment(nx=64, sigma5=0.375, sigma8=1.0), **args)


def test_transport_measurements_multiply_only_the_operator_rows_they_read(
    monkeypatch,
):
    # Periodic lines and planes without a source or force: the plain K.
    marches = kernel_marches(monkeypatch)
    measure_benchmark_transport()
    assert [shape for shape, _, _ in marches] == [(3, 3), (3, 3), (9, 9)]


def test_transport_measurements_observe_in_few_blocks(monkeypatch):
    # The benchmark's transport round: 6,000 observed steps, which a
    # per-step observer read in 6,000 calls.
    blocks = []

    def counting(name):
        real = getattr(kernels, name)

        def run(*args, observe, **kwargs):
            def counted(block):
                blocks.append(len(block))
                observe(block)

            return real(*args, observe=counted, **kwargs)

        return run

    for name in ("d1q3_run", "d2q9_run"):
        monkeypatch.setattr(kernels, name, counting(name))
    measure_benchmark_transport()
    assert sum(blocks) == 6000
    assert len(blocks) <= 200


@pytest.mark.parametrize(
    "measure, exp, wave, reason",
    [
        (measure_viscosity, D2Q9Experiment(nx=64, alpha=-3.9), dict(steps=400, skip=40),
         "wave grows"),
        (measure_diffusivity, D1Q3Experiment(variant="b", n=64, zeta=2.0), {},
         "wave diverged"),
        (measure_sound_speed, D2Q9Experiment(nx=64, alpha=-3.9), {}, "wave diverged"),
    ],
    ids=["viscosity-grows", "diffusivity-diverges", "sound-speed-diverges"],
)
def test_unstable_scheme_wave_raises_convergence_error(measure, exp, wave, reason):
    # An unstable scheme has no transport coefficient to report (linear
    # stability: Lallemand & Luo, Phys. Rev. E 61, 6546 (2000)); its fit
    # used to return a negative one, after RuntimeWarnings on overflow.
    with pytest.raises(ConvergenceError, match=reason):
        measure(exp, **wave)


@pytest.mark.parametrize(
    "measure, exp",
    [(measure_diffusivity, D1Q3Experiment(n=64)), (measure_viscosity, D2Q9Experiment(nx=64))],
    ids=["diffusivity", "viscosity"],
)
def test_negative_skip_is_refused(measure, exp):
    # A negative skip used to cut the fit window from its end.
    with pytest.raises(ConfigurationError, match="skip must be >= 0, got -1000"):
        measure(exp, skip=-1000)


def test_exhausted_mode_raises_measurement_error():
    exp = D1Q3Experiment(variant="a", n=16, sigma1=0.8, sigma2=0.125)
    with pytest.raises(MeasurementError, match="mode exhausted"):
        measure_diffusivity(exp, steps=60, skip=55)


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
