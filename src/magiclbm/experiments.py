"""Numerical experiments: steady states, wall offsets, magic products.

The central experiment is always the same shape: march a driven scheme
to steady state, fit a parabola to the settled profile, read off where
the parabola crosses zero, and express that as a wall offset delta_q in
units of the grid spacing.  Sweeping a product of two relaxation
parameters moves the offset; at a scheme-dependent magic value of the
product the offset equals exactly half a spacing.  The closed forms for
those magic values live in predict_magic, and the root finder recovers
them from simulations alone.

Observable fields: with split-half driving the physically observed
density or momentum at a node is the stored value plus half the per-step
increment (the mid-collision value); the profile accessors apply that
correction.  The pressure-driven scheme stores the observable directly.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import boundaries, kernels
from .collision import (
    equilibrium_d1q3,
    equilibrium_d2q9,
    diffusivity_from_params,
    relaxation_d1q3,
    relaxation_d2q9,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    LocalizationError,
    MeasurementError,
)
from .fitting import fit_parabola, wall_location
from .lattice import build_d1q3_basis, build_d2q9_basis, from_moments

__all__ = [
    "SteadyStateCriterion",
    "D1Q3Experiment",
    "D2Q9Experiment",
    "MagicSweep",
    "DRIVING_TAGS",
    "run_to_steady",
    "density_profile",
    "velocity_profile",
    "wall_offset",
    "sweep_product",
    "find_magic_root",
    "predict_magic",
    "predicted_product",
    "measure_diffusivity",
    "measure_viscosity",
    "measure_sound_speed",
    "exact_poisson_1d",
    "exact_poiseuille",
]

DRIVING_TAGS = ("force-split-half", "force-population", "pressure")

# Window-residual differences a march mixes into its next start (see _march).
ANDERSON_DEPTH = 2


@dataclass(frozen=True)
class SteadyStateCriterion:
    """When to declare a march converged.

    ``tolerance`` is the admissible relative change per step, measured
    as the max-norm change of the population field across a window of
    ``check_every`` steps divided by the field scale and the window
    length.  The march is Anderson-accelerated, so a window may start
    from a mix of earlier window ends rather than from the last one; the
    change is still measured from the window's own start to its end, and
    a march stops, and returns, only at the end of a real window.
    ``max_steps`` bounds the total of kernel steps marched.  Construction
    refuses, listing every violation at once: a ``tolerance`` that is not
    finite or not positive, ``check_every`` < 1 and ``max_steps`` <
    ``check_every``.
    """

    tolerance: float = 1e-15
    check_every: int = 100
    max_steps: int = 500_000

    def __post_init__(self):
        _refuse_violations(self, [
            ("check_every", self.check_every >= 1, "must be >= 1"),
            ("max_steps", self.max_steps >= self.check_every,
             f"must be >= check_every ({self.check_every})"),
        ], positive=("tolerance",))


def _refuse_violations(exp, rules, positive):
    """Raise one ConfigurationError listing every rule ``exp`` breaks.

    Every float must be finite, each field in ``positive`` above zero, and
    each (field, holds, requirement) of ``rules`` must hold; a field that
    is not finite meets no other rule.  Each violation opens with its field.
    """
    values = {f.name: getattr(exp, f.name) for f in fields(exp)}
    bad = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    rules = [*rules, *((k, values[k] > 0.0, "must be positive") for k in positive)]
    problems = [f"{k}={values[k]} is not finite" for k in bad] + [
        f"{k} {requirement}, got {values[k]}"
        for k, holds, requirement in rules if not (holds or k in bad)
    ]
    if problems:
        raise ConfigurationError(f"invalid {type(exp).__name__}", problems)


def _singular_predictor(alpha, beta):
    """Whether the pressure predictor's denominator alpha + 2 beta - 4 vanishes."""
    return abs(alpha + 2.0 * beta - 4.0) < 1e-12


def _default_zeta(variant):
    """The line's second-moment equilibrium coefficient when none is given.

    1/3 for basis variant "a" (kappa = sigma1 / 3), 1 for "b" (kappa = sigma1).
    """
    return 1.0 / 3.0 if variant == "a" else 1.0


@dataclass(frozen=True)
class D1Q3Experiment:
    """Source-driven diffusion on a line with both ends pinned to zero.

    ``zeta`` is the second-moment equilibrium coefficient; when None it
    takes the variant's default (``_default_zeta``).  Construction
    refuses, listing every violation at once: a ``variant`` other than
    "a" or "b", ``n`` < 5, a float that is not finite, and ``sigma1``,
    ``sigma2`` or ``zeta`` <= 0.
    """

    variant: str = "a"
    n: int = 32
    sigma1: float = 1.0
    sigma2: float = 0.125
    zeta: float = None
    source: float = 1e-6
    criterion: SteadyStateCriterion = field(default_factory=SteadyStateCriterion)

    # The relaxation parameters whose product is swept, in sample-row order.
    factors = ("sigma1", "sigma2")

    def __post_init__(self):
        if self.zeta is None:
            object.__setattr__(self, "zeta", _default_zeta(self.variant))
        _refuse_violations(self, [
            ("variant", self.variant in ("a", "b"), "must be 'a' or 'b'"),
            ("n", self.n >= 5, "must be >= 5"),
        ], positive=(*self.factors, "zeta"))

    @property
    def diffusivity(self):
        return diffusivity_from_params(self.variant, self.sigma1, self.zeta)

    @property
    def product(self):
        return self.sigma1 * self.sigma2

    @property
    def tag(self):
        return f"d1q3-{self.variant}"


@dataclass(frozen=True)
class D2Q9Experiment:
    """Driven channel flow between two solid walls.

    ``driving`` selects how momentum is injected: a split-half body
    force, a population-form body force (both with periodic ends), or a
    pressure offset imposed at the end columns.  The channel is
    symmetric about its mid-line, so ``run_to_steady`` marches its lower
    ``(ny + 1) // 2`` rows.  A force-driven flow also depends on y alone,
    so it is marched as one column of those rows and ``nx`` does not
    change its result.  A pressure-driven one is antisymmetric about its
    mid-column, so it is marched on the west ``(nx + 1) // 2`` columns of
    those rows.  Construction refuses, listing every violation at once:
    a ``driving`` not in ``DRIVING_TAGS``, ``nx`` or ``ny`` < 5, a float
    that is not finite, ``sigma5`` or ``sigma8`` <= 0, ``s_bulk`` outside
    (0, 2), and, under pressure driving, a squared sound speed
    (4 + alpha)/6 <= 0 or a singular predictor, alpha + 2 beta - 4 = 0.
    """

    driving: str = "force-split-half"
    nx: int = 100
    ny: int = 21
    sigma5: float = 0.375
    sigma8: float = 1.0
    alpha: float = -2.0
    beta: float = 1.0
    s_bulk: float = 1.2
    fx: float = 1e-6
    delta_p: float = 1e-6
    criterion: SteadyStateCriterion = field(default_factory=SteadyStateCriterion)

    factors = ("sigma5", "sigma8")

    def __post_init__(self):
        pressure = self.driving == "pressure"
        _refuse_violations(self, [
            ("driving", self.driving in DRIVING_TAGS, f"must be one of {DRIVING_TAGS}"),
            ("nx", self.nx >= 5, "must be >= 5"),
            ("ny", self.ny >= 5, "must be >= 5"),
            ("s_bulk", 0.0 < self.s_bulk < 2.0,
             "must lie in the stability interval 0 < s < 2"),
            ("alpha", not pressure or boundaries.sound_speed_sq(self.alpha) > 0.0,
             "must give a positive squared sound speed (4 + alpha)/6 under pressure"),
            ("beta", not (pressure and _singular_predictor(self.alpha, self.beta)),
             "must not give alpha + 2 beta - 4 = 0 under pressure, where the "
             "predictor is singular"),
        ], positive=self.factors)

    @property
    def product(self):
        return self.sigma5 * self.sigma8

    @property
    def tag(self):
        return self.driving


@dataclass(frozen=True)
class MagicSweep:
    """Samples of delta_q against the sigma product, with the predictor.

    ``samples`` rows are (sigma_a, sigma_b, product, delta_q); sigma_a
    is sigma1 or sigma5, sigma_b is sigma2 or sigma8.  ``root`` is the
    refined crossing product when one was computed, else None.
    """

    samples: tuple
    root: float
    prediction: float
    variant: str


def _channel(exp):
    """Closures and body-force driving of a channel experiment."""
    if exp.driving == "pressure":
        delta_rho = exp.delta_p / boundaries.sound_speed_sq(exp.alpha)
        return boundaries.pressure_channel_closures(delta_rho), None
    return boundaries.force_channel_closures(), exp.driving


def _march(run_chunk, f, criterion):
    """Anderson-accelerated windows of ``run_chunk`` until the criterion holds.

    Each check window maps its start f to G(f) = ``run_chunk(f,
    check_every)``, an affine map whose fixed point is the steady state.
    After a full window that has not converged, the next start is G(f)
    minus the mix of the recent window-end differences that best cancels
    the latest residual G(f) - f, by least squares on the differences of
    the last ``ANDERSON_DEPTH + 1`` residuals (D. G. Anderson, J. ACM 12,
    547 (1965)).  A window whose relative change did not fall from the
    previous one clears that history and the plain step G(f) follows.
    """
    tolerance, check_every, max_steps = (
        criterion.tolerance, criterion.check_every, criterion.max_steps
    )
    steps_done = 0
    rel = None
    ends, residuals = [], []  # raveled, of the last full windows
    # A diverging field overflows inside the chunk before the check
    # below sees it; the ConvergenceError reports that, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        while steps_done < max_steps:
            chunk = min(check_every, max_steps - steps_done)
            f_new = run_chunk(f, chunk)
            steps_done += chunk
            residual = f_new - f
            change = float(np.abs(residual).max())
            scale = float(np.abs(f_new).max())
            f = f_new
            if scale == 0.0:
                if change == 0.0:
                    return f, steps_done
                continue
            last, rel = rel, change / scale / chunk
            if rel < tolerance:
                return f, steps_done
            if not math.isfinite(rel):
                raise ConvergenceError(
                    f"march diverged: relative change per step {rel} after "
                    f"{steps_done} steps",
                    last_change=rel,
                    steps=steps_done,
                )
            if last is not None and rel >= last:
                ends, residuals = [], []
            r = residual.ravel()
            ends = ends[-ANDERSON_DEPTH:] + [f_new.ravel()]
            residuals = residuals[-ANDERSON_DEPTH:] + [r]
            if len(ends) > 1:
                e, res = np.array(ends), np.array(residuals)  # a row per window
                gamma = np.linalg.lstsq((res[1:] - res[:-1]).T, r, rcond=None)[0]
                f = f_new - (gamma @ (e[1:] - e[:-1])).reshape(f.shape)
    raise ConvergenceError(
        f"no steady state within {max_steps} steps "
        f"(last relative change per step {rel})",
        last_change=rel,
        steps=steps_done,
    )


def run_to_steady(exp, init=None, *, marched=False):
    """March an experiment to steady state from rest (or a warm start).

    A channel lies between two equal walls and is driven uniformly
    across, so a start symmetric about the mid-line stays symmetric: only
    its lower ``h = (ny + 1) // 2`` rows are marched (``kernels.d2q9_run``
    with ``ny``), and the upper rows are their mirror image.  A force
    channel is also periodic along x and driven uniformly along it, so a
    start uniform along x stays uniform bitwise: every node runs the same
    operator column and the stream moves identical values onto identical
    values.  A pressure channel's scheme is linear and its end offsets
    opposite, so a start antisymmetric about the mid-column stays so.  A
    pressure channel therefore marches ``(9, h, (nx + 1) // 2)``, a force
    channel one ``(9, h, 1)`` column, and ``nx`` does not change a force
    channel's result.  Either is returned rebuilt (``kernels.unfold``),
    and broadcast along x, to ``(9, ny, nx)``, unless ``marched`` is set.
    Lines march their whole grid.

    Parameters
    ----------
    exp : D1Q3Experiment or D2Q9Experiment
    init : array, optional
        Starting populations; zeros when omitted.  On a channel it must
        be mirror-symmetric about the mid-line, bitwise, since its upper
        half is not marched, and on a pressure channel antisymmetric about
        the mid-column, bitwise, since its east half is not; the linear
        interpolation of settled states is.  On a force channel every
        column must be the same too: the periodic channel keeps
        x-dependent invariants of its start that the steady-state check
        cannot see, so a start whose columns differ is refused, not
        reduced to its x-mean.
    marched : bool, keyword-only
        When set, ``init`` and the returned f are in the marched shape:
        ``(3, n)`` on a line, ``(9, h, 1)`` on a force channel and
        ``(9, h, (nx + 1) // 2)`` on a pressure channel.  Nothing is
        unfolded or broadcast, and ``init`` is not checked for symmetry,
        since a marched field has no redundant part.

    Returns
    -------
    (f, steps) : settled populations, a fresh array of the full shape
        (the marched shape with ``marched``), and the number of kernel
        steps marched.  The windows are Anderson-accelerated
        (``_march``); f is the end of the last window, the one whose
        relative change per step fell below the criterion's tolerance.

    Raises
    ------
    ValueError
        When ``init`` has another shape, or, without ``marched``, is not
        mirror-symmetric on a channel, its columns differ on a force
        channel, or it is not antisymmetric on a pressure channel.
    ConvergenceError
        When the criterion's step budget runs out first, or as soon as
        the relative change of a check is not finite (the march diverged).
    """
    if isinstance(exp, D1Q3Experiment):
        shape = part_shape = (3, exp.n)
        closures = boundaries.diffusion_closures()
        rates = relaxation_d1q3(exp.sigma1, exp.sigma2)

        def run_chunk(f, chunk):
            return kernels.d1q3_run(
                f, chunk, closures, rates, exp.variant, exp.zeta, exp.source
            )

    elif isinstance(exp, D2Q9Experiment):
        shape = (9, exp.ny, exp.nx)
        closures, driving = _channel(exp)
        width = exp.nx if driving is None else 1  # one column stands for all
        across = "antisymmetric about the mid-column" if driving is None else (
            "the same in every column: the periodic channel keeps the "
            "x-dependence of its start, which the steady-state check does not see"
        )
        part_shape = (9, (exp.ny + 1) // 2, (width + 1) // 2)
        rates = relaxation_d2q9(exp.sigma5, exp.sigma8, exp.s_bulk)

        def run_chunk(f, chunk):
            return kernels.d2q9_run(
                f, chunk, closures, rates, exp.alpha, exp.beta, driving, exp.fx,
                ny=exp.ny, nx=width,
            )

    else:
        raise TypeError(f"unsupported experiment type {type(exp).__name__}")

    if marched:
        shape = part_shape  # nothing to check for symmetry or to rebuild
    if init is None:
        f = np.zeros(part_shape)
    else:
        f = np.asarray(init, dtype=np.float64)
        if f.shape != shape:
            raise ValueError(f"init shape {f.shape} does not match {shape}")
        part = f[tuple(slice(n) for n in part_shape)]
        if part_shape != shape and np.any(f != kernels.unfold(part, ny=exp.ny, nx=width)):
            raise ValueError(
                f"init of a {exp.driving} channel must be mirror-symmetric about the "
                f"mid-line and {across}: only {part_shape[1]} rows of {part_shape[2]} "
                "columns are marched"
            )
        f = part.copy()
    f, steps = _march(run_chunk, f, exp.criterion)
    if marched:
        return f, steps
    if part_shape != shape:
        f = kernels.unfold(f, ny=exp.ny, nx=width)
    return np.broadcast_to(f, shape).copy(), steps


def density_profile(exp, f):
    """Observable density along the line: stored density plus half the source."""
    x = np.arange(exp.n, dtype=np.float64)
    rho = f[0] + f[1] + f[2] + 0.5 * exp.source
    return x, rho


def velocity_profile(exp, f, column=None):
    """Observable streamwise momentum across the channel at one column.

    Defaults to the mid-channel column.  Split-half and population-form
    force runs observe the mid-collision momentum (stored plus half the
    force); pressure-driven runs observe the stored momentum.
    """
    if column is None:
        column = exp.nx // 2
    g = f[:, :, column]
    profile = (g[1] + g[5] + g[8]) - (g[3] + g[6] + g[7])
    if exp.driving in ("force-split-half", "force-population"):
        profile += 0.5 * exp.fx
    y = np.arange(exp.ny, dtype=np.float64)
    return y, profile


def wall_offset(exp, f, side="lower", column=None):
    """Wall offset of a settled run, from a parabola fit of the profile.

    The fit uses every node of the line (1-D) or the full transverse
    profile at one column (2-D, mid-channel by default); the wall node
    is the profile's first (lower) or last (upper) abscissa.
    """
    if isinstance(exp, D1Q3Experiment):
        x, vals = density_profile(exp, f)
    else:
        x, vals = velocity_profile(exp, f, column=column)
    fit = fit_parabola(x, vals)
    return wall_location(fit, float(x[0] if side == "lower" else x[-1]), 1.0, side)


def _with_product(exp, product):
    """Copy of the experiment realizing a given sigma product.

    The line keeps sigma1 and the channel sigma8; the other factor takes
    product / kept.
    """
    if isinstance(exp, D1Q3Experiment):
        return replace(exp, sigma2=product / exp.sigma1)
    return replace(exp, sigma5=product / exp.sigma8)


def _sample(exp, product, init=None):
    """March ``exp``, already at ``product``, and read its wall offset.

    Returns the settled populations and the sample row (sigma_a,
    sigma_b, product, delta_q).  The row keeps the requested product,
    which the two factors may miss in the last ulp.  ``init`` and the
    returned populations are in the marched shape (``run_to_steady``
    with ``marched``); a channel's are unfolded only to read the offset,
    a pressure channel's to the full grid and a force channel's to one
    full-height column, which stands for every column.
    """
    f, _ = run_to_steady(exp, init=init, marched=True)
    g, column = f, None
    if isinstance(exp, D2Q9Experiment):
        width = exp.nx if exp.driving == "pressure" else 1
        g, column = kernels.unfold(f, ny=exp.ny, nx=width), width // 2
    sigmas = (getattr(exp, name) for name in exp.factors)
    return f, (*sigmas, product, wall_offset(exp, g, column=column).delta_q)


def predict_magic(variant, alpha=None, beta=None):
    """Closed-form magic product for a scheme variant.

    Variants: "d1q3-a" (1/8), "d1q3-b" (3/8), "force-split-half" (3/8),
    "force-population" (3/16), and "pressure", whose product
    -(3/8)(alpha + 4)/(alpha + 2 beta - 4) needs the equilibrium
    parameters and a nonzero denominator.
    """
    if variant == "d1q3-a":
        return 0.125
    if variant == "d1q3-b":
        return 0.375
    if variant == "force-split-half":
        return 0.375
    if variant == "force-population":
        return 0.1875
    if variant == "pressure":
        if alpha is None or beta is None:
            raise ConfigurationError(
                "pressure-driven predictor needs equilibrium parameters alpha, beta"
            )
        if _singular_predictor(alpha, beta):
            raise ConfigurationError(
                "pressure-driven predictor is singular: alpha + 2 beta - 4 = 0 "
                f"(alpha={alpha}, beta={beta})"
            )
        return -0.375 * (alpha + 4.0) / (alpha + 2.0 * beta - 4.0)
    raise ConfigurationError(f"unknown scheme variant {variant!r} for predict_magic")


def predicted_product(exp):
    """Closed-form magic product of an experiment's scheme.

    A line's depends on its basis variant; a channel's on its driving,
    and under pressure driving also on ``alpha`` and ``beta``.
    """
    if isinstance(exp, D1Q3Experiment):
        return predict_magic(exp.tag)
    return predict_magic(exp.driving, exp.alpha, exp.beta)


def sweep_product(exp, products, split_check=True):
    """Measure delta_q over a list of sigma products.

    One converged run per sample, warm-starting each run from the
    previous settled state (the steady state is unique, so this only
    saves steps).  With ``split_check`` the median product is re-run
    with its two sigma factors swapped, so the returned samples carry at
    least two distinct factorizations of one product.
    """
    products = sorted(float(p) for p in products)
    if not products:
        raise ConfigurationError("sweep needs at least one product")
    samples = []
    warm = None
    for p in products:
        warm, row = _sample(_with_product(exp, p), p, init=warm)
        samples.append(row)

    if split_check:
        median = _with_product(exp, products[len(products) // 2])
        a, b = median.factors
        swapped = replace(median, **{a: getattr(median, b), b: getattr(median, a)})
        samples.append(_sample(swapped, swapped.product, init=warm)[1])

    samples.sort(key=lambda row: (row[2], row[0]))
    return MagicSweep(
        samples=tuple(samples),
        root=None,
        prediction=predicted_product(exp),
        variant=exp.tag,
    )


def _interpolated_start(settled, p):
    """Starting populations for a march at product p.

    The linear interpolation in the product of the settled states at the
    two products in ``settled`` nearest p (an extrapolation when both lie
    on one side of it).  The steady state is smooth in the product, so
    for a product step h the start is off by O(h^2), against O(h) for
    the nearest state alone.  None, a start from rest, while nothing has
    settled.
    """
    nearest = sorted(settled, key=lambda q: abs(q - p))[:2]
    if not nearest:
        return None
    if len(nearest) == 1:
        return settled[nearest[0]]
    p0, p1 = nearest
    f0 = settled[p0]
    return f0 + (p - p0) / (p1 - p0) * (settled[p1] - f0)


def find_magic_root(exp, bracket=None, product_tol=1e-5, max_evals=40):
    """Brent search on the sigma product for delta_q crossing half a spacing.

    The objective is delta_q(product) - 1/2; the bracket must straddle
    its sign change.  The search is Brent-Dekker's: inverse quadratic
    and secant steps inside the sign-change bracket, with a bisection
    step whenever they would not shrink it fast enough (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).  Each
    evaluation is a full march to steady state, warm-started from the
    linear interpolation of the settled states at the two retained
    products nearest it.  The search stops once the two products on
    either side of the sign change are at most ``product_tol`` apart,
    the guarantee bisection gives, and returns a MagicSweep whose
    ``root`` is the one of the two with the smaller |delta_q - 1/2| and
    whose samples record every evaluation.

    Raises
    ------
    ConfigurationError
        Up front, listing every violation: ``product_tol`` not finite or
        not > 0, ``max_evals`` < 2, a bracket end that is not finite, or
        a bracket that is not 0 < lo < hi.
    LocalizationError
        When the bracket shows no sign change, or the evaluation budget
        runs out before the bracket narrows to ``product_tol``.
    """
    prediction = predicted_product(exp)
    if bracket is None:
        bracket = (0.5 * prediction, 2.0 * prediction)
    lo, hi = float(bracket[0]), float(bracket[1])
    problems = []
    if not (math.isfinite(product_tol) and product_tol > 0.0):
        problems.append(f"product_tol must be finite and > 0, got {product_tol}")
    if not max_evals >= 2:
        problems.append(f"max_evals must be >= 2, got {max_evals}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        problems.append(f"bracket ends must be finite, got ({lo}, {hi})")
    elif not 0.0 < lo < hi:
        problems.append(f"bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if problems:
        raise ConfigurationError("invalid root search", problems)

    samples = []
    settled = {}

    def objective(p):
        exp_p = _with_product(exp, p)
        settled[p], row = _sample(exp_p, p, init=_interpolated_start(settled, p))
        samples.append(row)
        return row[3] - 0.5

    # b is the best estimate, c the product across the sign change from
    # b, a the previous b; d is the last step and e the one before it.
    a, b = lo, hi
    fa, fb = objective(a), objective(b)
    if fa * fb > 0.0:
        raise LocalizationError(
            f"no sign change of delta_q - 1/2 across bracket ({lo}, {hi}): "
            f"endpoint objectives {fa:.3e} and {fb:.3e}"
        )
    c, fc = a, fa
    d = e = b - a
    least = 0.5 * product_tol  # the smallest step taken
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0 or abs(c - b) <= product_tol:
            break
        if len(samples) >= max_evals:
            raise LocalizationError(
                f"bracket still {abs(c - b):.3e} wide after {len(samples)} "
                f"evaluations (budget {max_evals}, tolerance {product_tol})"
            )
        m = 0.5 * (c - b)
        if abs(e) < least or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(least * q), abs(e * q)):
                e, d = d, p / q
            else:  # the interpolation step is too long or shrinks too slowly
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > least else (least if m > 0.0 else -least)
        fb = objective(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        for product in [q for q in settled if q not in (a, b, c)]:
            del settled[product]

    samples.sort(key=lambda row: (row[2], row[0]))
    return MagicSweep(
        samples=tuple(samples),
        root=float(b),
        prediction=prediction,
        variant=exp.tag,
    )


def _decay_rate(amplitudes, skip, floor=1e-12, min_samples=10):
    """Slope of log-amplitude decay from per-step samples.

    The first ``skip`` samples are left out; a negative ``skip`` raises
    ConfigurationError.  Raises ConvergenceError when the fitted slope is
    not negative: a wave that grows has no decay rate to report.
    """
    if skip < 0:
        raise ConfigurationError(f"skip must be >= 0, got {skip}")
    amps = np.asarray(amplitudes, dtype=np.float64)
    t = np.arange(amps.size, dtype=np.float64)
    usable = np.abs(amps) >= floor
    usable[:skip] = False
    if int(usable.sum()) < min_samples:
        raise MeasurementError(
            f"mode exhausted: only {int(usable.sum())} usable samples above "
            f"amplitude floor {floor} after skipping {skip}"
        )
    tt = t[usable]
    ll = np.log(np.abs(amps[usable]))
    slope, _ = np.polyfit(tt, ll, 1)
    if not slope < 0.0:
        raise ConvergenceError(f"wave grows: log-amplitude slope {slope} per step")
    return -float(slope)


def _wave_amplitudes(kernel, args, start, n, mode, steps, amplitude):
    """Projection amplitudes of a periodic wave over one observed march.

    The wave sin(k x), k = 2 pi mode / n, is a line of n values;
    ``start(wave)`` gives its equilibrium populations, which for a plane
    wave are one row of it (the wave is uniform across, so one row
    marches as every row would).  One ``kernel(f, steps, *args)`` call
    marches them, and ``amplitude(proj, states)``, with the projection
    ``proj = 2 wave / n``, reads one amplitude per state of a stack (the
    step on the leading axis): the initial state, then each block the
    kernel observes.  Returns k and the ``steps + 1`` amplitudes, or
    raises ConvergenceError when one is not finite (the wave diverged).
    """
    k = 2.0 * np.pi * mode / n
    wave = np.sin(k * np.arange(n, dtype=np.float64))
    proj = 2.0 / n * wave
    f = start(wave)
    amps = [amplitude(proj, f[None])]
    with np.errstate(over="ignore", invalid="ignore"):
        kernel(f, steps, *args, observe=lambda block: amps.append(amplitude(proj, block)))
    amps = np.concatenate(amps)
    if not np.all(np.isfinite(amps)):
        raise ConvergenceError(f"wave diverged within {steps} steps", steps=steps)
    return k, amps


def _plane_wave_amplitudes(moment, amplitude, exp, mode, steps):
    """``_wave_amplitudes`` on one row of the fully periodic plane.

    The wave runs along x and is uniform in y, so a ``(1, exp.nx)`` row
    with periodic faces marches it exactly as a taller plane would, with
    the scheme parameters of the D2Q9Experiment ``exp``.  It is in the
    density (``moment`` 0) or in the transverse momentum jy (``moment`` 2).
    """
    basis = build_d2q9_basis()

    def start(wave):
        rho_jx_jy = [np.zeros((1, exp.nx))] * 3
        rho_jx_jy[moment] = wave[None]
        return from_moments(basis, equilibrium_d2q9(*rho_jx_jy, exp.alpha, exp.beta))

    closures = boundaries.periodic_plane_closures()
    rates = relaxation_d2q9(exp.sigma5, exp.sigma8, exp.s_bulk)
    return _wave_amplitudes(
        kernels.d2q9_run, (closures, rates, exp.alpha, exp.beta), start, exp.nx,
        mode, steps, amplitude,
    )


def measure_diffusivity(exp, mode=1, steps=2000, skip=200):
    """Bulk diffusivity of the D1Q3Experiment ``exp``'s scheme, from the
    decay of a periodic density wave.

    A sinusoidal density of wavenumber k = 2 pi mode / ``exp.n`` is
    initialized at equilibrium and marched with no source; its projection
    amplitude decays like exp(-kappa k^2 t).  The returned kappa comes
    from a log-linear fit, skipping the first ``skip`` steps of kinetic
    transient (a negative ``skip`` raises ConfigurationError).  A wave
    that grows or diverges raises ConvergenceError.
    The wave runs on a periodic line with no source, so only the scheme
    and ``n`` of ``exp`` are read: its source and criterion are not used.
    """
    basis = build_d1q3_basis(exp.variant)
    closures = boundaries.periodic_line_closures()
    rates = relaxation_d1q3(exp.sigma1, exp.sigma2)
    k, amps = _wave_amplitudes(
        kernels.d1q3_run, (closures, rates, exp.variant, exp.zeta),
        lambda wave: from_moments(basis, equilibrium_d1q3(exp.variant, wave, exp.zeta)),
        exp.n, mode, steps,
        # vecdot runs the 1-D dot of ``proj @ rho`` on each row, so every
        # amplitude keeps its bits; a gemv of the block rounds differently.
        lambda proj, f: np.vecdot(f[:, 0] + f[:, 1] + f[:, 2], proj),
    )
    return _decay_rate(amps, skip) / (k * k)


def measure_viscosity(exp, mode=1, steps=2000, skip=200):
    """Shear viscosity of the D2Q9Experiment ``exp``'s scheme, from the
    decay of a periodic transverse shear wave.

    Transverse momentum jy = sin(k x), k = 2 pi mode / ``exp.nx``, on a
    fully periodic plane decays like exp(-nu k^2 t); nu comes from a
    log-linear fit of the projection amplitude, skipping the first
    ``skip`` steps as in ``measure_diffusivity``.  The wave is uniform in
    y, so one row of the plane is marched.  A wave that grows or diverges
    raises ConvergenceError.  The plane is periodic and undriven, so only
    the scheme and ``nx`` of ``exp`` are read: its driving, ``fx``,
    ``delta_p``, ``ny`` and criterion are not used.
    """

    def amplitude(proj, f):
        jy = (f[:, 2] + f[:, 5] + f[:, 6]) - (f[:, 4] + f[:, 7] + f[:, 8])
        return np.sum(proj * jy, axis=(1, 2))

    k, amps = _plane_wave_amplitudes(2, amplitude, exp, mode, steps)
    return _decay_rate(amps, skip) / (k * k)


def measure_sound_speed(exp, mode=1, steps=4096):
    """Sound speed of the D2Q9Experiment ``exp``'s scheme, from the
    oscillation of a periodic density wave.

    A standing density wave of wavenumber k = 2 pi mode / ``exp.nx``
    oscillates at angular frequency c k while decaying; the frequency is
    read off from the zero crossings of the projection amplitude
    (linearly interpolated), and c = omega / k is returned.  Validates the
    squared-sound-speed convention (4 + alpha) / 6 used to convert
    pressure drops to density offsets.  As in ``measure_viscosity``, one
    row of the plane is marched, only the scheme and ``nx`` of ``exp`` are
    read, and a wave that diverges raises ConvergenceError.
    """
    k, amps = _plane_wave_amplitudes(
        0, lambda proj, f: np.sum(proj * f.sum(axis=1), axis=(1, 2)), exp, mode, steps
    )

    a, b = amps[:-1], amps[1:]
    t = np.flatnonzero((a * b < 0.0) & (np.maximum(np.abs(a), np.abs(b)) >= 1e-10))
    crossings = t + a[t] / (a[t] - b[t])
    if len(crossings) < 4:
        raise MeasurementError(
            f"mode exhausted: only {len(crossings)} usable zero crossings"
        )
    omega = np.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    return float(omega / k)


def exact_poisson_1d(c, big_k, x):
    """Closed-form steady profile c x (1 - x) / (2 K) on the unit interval."""
    if not big_k > 0.0:
        raise ValueError(f"diffusivity K must be positive, got {big_k}")
    x = np.asarray(x, dtype=np.float64)
    return c * x * (1.0 - x) / (2.0 * big_k)


def exact_poiseuille(fx, nu, height, y):
    """Closed-form channel profile F_x y (H - y) / (2 nu)."""
    if not nu > 0.0:
        raise ValueError(f"viscosity nu must be positive, got {nu}")
    y = np.asarray(y, dtype=np.float64)
    return fx * y * (height - y) / (2.0 * nu)
