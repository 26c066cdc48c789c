"""Tests of configuration parsing, validation, rendering, and hashing."""

import inspect

import pytest

from magiclbm import config
from magiclbm.config import (
    RunConfig,
    build_experiment,
    config_hash,
    parse_config,
    render_config,
)
from magiclbm.errors import ConfigurationError
from magiclbm.experiments import (
    DRIVING_TAGS,
    D1Q3Experiment,
    D2Q9Experiment,
    SteadyStateCriterion,
    find_magic_root,
    measure_diffusivity,
    measure_viscosity,
    predicted_product,
)

MINIMAL_LINE = "[scheme]\nmodel = d1q3\n"
MINIMAL_PLANE = "[scheme]\nmodel = d2q9\n"


def violations_of(text, overrides=()):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(text, overrides=overrides)
    return excinfo.value.violations


# ---------------------------------------------------------------------------
# Happy paths and defaults
# ---------------------------------------------------------------------------


def test_minimal_line_config_defaults():
    cfg = parse_config(MINIMAL_LINE)
    assert isinstance(cfg, RunConfig)
    exp = cfg.experiment
    assert isinstance(exp, D1Q3Experiment)
    assert exp.variant == "a"
    assert exp.n == 32
    assert exp.sigma1 == 1.0
    assert exp.sigma2 == 0.125
    assert exp.zeta == pytest.approx(1.0 / 3.0)
    assert exp.source == 1e-6
    assert exp.criterion.tolerance == 1e-15
    assert exp.criterion.check_every == 100


def test_minimal_plane_config_defaults():
    exp = parse_config(MINIMAL_PLANE).experiment
    assert isinstance(exp, D2Q9Experiment)
    assert exp.driving == "force-split-half"
    assert (exp.nx, exp.ny) == (100, 21)
    assert (exp.sigma5, exp.sigma8) == (0.375, 1.0)
    assert (exp.alpha, exp.beta) == (-2.0, 1.0)
    assert exp.s_bulk == 1.2
    assert exp.fx == 1e-6


def test_default_sweep_spans_the_predictor():
    cfg = parse_config(MINIMAL_LINE)
    assert predicted_product(cfg.experiment) == pytest.approx(0.125)
    # Seven default factors of the predicted product, sorted ascending.
    expected = tuple(sorted(0.125 * f for f in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)))
    assert cfg.products == pytest.approx(expected)
    assert (cfg.bracket_lo, cfg.bracket_hi) == (pytest.approx(0.0625), pytest.approx(0.25))


@pytest.mark.parametrize(
    "text, library",
    [(MINIMAL_LINE, D1Q3Experiment())] + [
        (MINIMAL_PLANE + f"driving = {tag}\n", D2Q9Experiment(driving=tag))
        for tag in DRIVING_TAGS
    ],
    ids=["line", *DRIVING_TAGS],
)
def test_defaults_are_the_library_defaults(text, library):
    # Every scheme and criterion default is the dataclasses' own, and the
    # command parameters default to the library signatures'.
    cfg = parse_config(text)
    assert cfg.experiment == library
    assert cfg.experiment.criterion == SteadyStateCriterion()
    root = inspect.signature(find_magic_root).parameters
    assert cfg.product_tol == root["product_tol"].default
    assert cfg.max_evals == root["max_evals"].default
    for measure in (measure_diffusivity, measure_viscosity):
        wave = inspect.signature(measure).parameters
        assert (cfg.mode, cfg.steps, cfg.skip) == tuple(
            wave[name].default for name in ("mode", "steps", "skip")
        )
    prediction = predicted_product(library)
    assert (cfg.bracket_lo, cfg.bracket_hi) == (0.5 * prediction, 2.0 * prediction)


def test_explicit_products_are_sorted():
    cfg = parse_config(MINIMAL_LINE + "\n[sweep]\nproducts = 0.25, 0.0625, 0.125\n")
    assert cfg.products == (0.0625, 0.125, 0.25)


def test_rate_form_is_accepted_for_relaxation():
    # s1 = 2/3 is sigma1 = 1/s - 1/2 = 1.
    cfg = parse_config(MINIMAL_LINE + "\n[relaxation]\ns1 = 0.6666666666666666\n")
    assert cfg.experiment.sigma1 == pytest.approx(1.0, rel=1e-12)


def test_boolean_words_parse():
    cfg = parse_config(MINIMAL_LINE + "\n[sweep]\nsplit_check = off\n")
    assert cfg.split_check is False


# ---------------------------------------------------------------------------
# Round trip, hashing, overrides
# ---------------------------------------------------------------------------


# The default scheme of each line variant and channel driving, with the
# hash its canonical rendering has had since the [units] section went.
DEFAULT_SCHEME_HASHES = (
    (MINIMAL_LINE, "401e40d7837e"),
    (MINIMAL_LINE + "variant = b\n", "e7410dfeea63"),
    (MINIMAL_PLANE, "553b1bda4fe1"),
    (MINIMAL_PLANE + "driving = force-population\n", "982749b3687f"),
    (MINIMAL_PLANE + "driving = pressure\n", "cd2d2be37b4b"),
)


# Criterion and command keys shared by the non-default documents below.
_CRITERION_AND_COMMANDS = (
    "\n[criterion]\ntolerance = 1e-12\ncheck_every = 50\nmax_steps = 20000\n"
    "\n[sweep]\nproducts = 0.1, 0.2, 0.3\nsplit_check = no\n"
    "\n[root]\nbracket_lo = 0.05\nbracket_hi = 0.8\nproduct_tol = 1e-6\nmax_evals = 30\n"
)


def _channel_document(driving, amplitude):
    return (
        f"[scheme]\nmodel = d2q9\ndriving = {driving}\nalpha = -2.5\nbeta = 2.5\n"
        "\n[grid]\nnx = 40\nny = 11\n"
        "\n[relaxation]\ns5 = 1.25\nsigma8 = 0.75\ns_bulk = 1.1\n"
        f"\n[driving]\n{amplitude}\n" + _CRITERION_AND_COMMANDS
        + "\n[measure]\nnx = 32\nny = 3\nmode = 2\nsteps = 800\nskip = 80\n"
    )


# One non-default document per line variant and per channel driving: each
# sets every key meaningful for its scheme, the rates in their s spelling.
# The hashes were computed while RunConfig still held each scheme value as
# a field of its own, so they pin the rendering across that change.
SCHEME_HASHES = (
    (
        "[scheme]\nmodel = d1q3\nvariant = a\nzeta = 0.5\n\n[grid]\nn = 24\n"
        "\n[relaxation]\ns1 = 0.8\nsigma2 = 0.2\n\n[driving]\nsource = 2e-6\n"
        + _CRITERION_AND_COMMANDS
        + "\n[measure]\nn = 48\nmode = 2\nsteps = 900\nskip = 90\n",
        "30d0721ac659",
    ),
    (
        "[scheme]\nmodel = d1q3\nvariant = b\nzeta = 0.75\n\n[grid]\nn = 20\n"
        "\n[relaxation]\ns1 = 1.25\nsigma2 = 0.3\n\n[driving]\nsource = 3e-6\n"
        + _CRITERION_AND_COMMANDS
        + "\n[measure]\nn = 40\nmode = 1\nsteps = 1200\nskip = 100\n",
        "251368115b51",
    ),
    (_channel_document("force-split-half", "force_x = 2e-6"), "22711ad152ec"),
    (_channel_document("force-population", "force_x = 3e-6"), "8806280ca211"),
    (_channel_document("pressure", "delta_p = 4e-6"), "0c6f3c95ea5f"),
)


def test_render_parse_round_trip():
    cfg = parse_config(
        "[scheme]\nmodel = d2q9\ndriving = pressure\n"
        "alpha = -2.5\nbeta = 2.5\n"
        "\n[grid]\nnx = 40\nny = 11\n"
    )
    again = parse_config(render_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    for text, digest in DEFAULT_SCHEME_HASHES + SCHEME_HASHES:
        cfg = parse_config(text)
        again = parse_config(render_config(cfg))
        assert again == cfg
        assert config_hash(cfg) == config_hash(again) == digest, text


def test_config_hash_is_short_hex_and_sensitive():
    cfg = parse_config(MINIMAL_LINE)
    digest = config_hash(cfg)
    assert len(digest) == 12
    assert all(ch in "0123456789abcdef" for ch in digest)
    other = parse_config(MINIMAL_LINE, overrides=("grid.n=64",))
    assert config_hash(other) != digest


def test_output_directory_does_not_change_identity():
    plain = parse_config(MINIMAL_LINE)
    routed = parse_config(MINIMAL_LINE + "\n[output]\ndirectory = /tmp/elsewhere\n")
    assert routed.out_dir == "/tmp/elsewhere"
    assert routed == plain
    assert config_hash(routed) == config_hash(plain)


def test_overrides_apply_and_later_wins():
    cfg = parse_config(MINIMAL_LINE, overrides=("grid.n=16", "grid.n=12"))
    assert cfg.experiment.n == 12


def test_override_requires_section_key_value():
    with pytest.raises(ConfigurationError, match="section.key=value"):
        parse_config(MINIMAL_LINE, overrides=("nodots",))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_missing_model_is_required():
    (violation,) = violations_of("[grid]\nn = 16\n")
    assert "scheme.model is required" in violation


def test_unknown_key_is_rejected_with_location():
    (violation,) = violations_of("[scheme]\nmodel = d1q3\nfoo = 1\n")
    assert violation.startswith("<config>:3:")
    assert "scheme.foo: unknown key" in violation


def test_key_with_a_colon_keeps_its_line():
    # "=" is the only delimiter, so "foo:bar" is one (unknown) key.
    (violation,) = violations_of("[scheme]\nmodel = d1q3\nfoo:bar = 1\n")
    assert violation == "<config>:3: scheme.foo:bar: unknown key"


def test_unknown_section_is_rejected():
    for section, key in (("junk", "a = 1"), ("units", "lam = 1.0")):
        (violation,) = violations_of(f"{MINIMAL_LINE}\n[{section}]\n{key}\n")
        assert f"unknown section [{section}]" in violation


def test_unstable_rate_names_the_interval():
    (violation,) = violations_of("[scheme]\nmodel = d1q3\n\n[relaxation]\ns1 = 2.5\n")
    assert "0 < s < 2" in violation
    assert "relaxation.s1" in violation


def test_sigma_and_rate_together_are_ambiguous():
    (violation,) = violations_of(
        "[scheme]\nmodel = d1q3\n\n[relaxation]\nsigma1 = 1.0\ns1 = 0.5\n"
    )
    assert "either sigma1 or s1, not both" in violation


def test_non_numeric_value_is_annotated():
    (violation,) = violations_of("[scheme]\nmodel = d1q3\n\n[grid]\nn = abc\n")
    assert violation.startswith("<config>:5:")
    assert "expected an integer" in violation


# Every key that takes a number with a fractional part, with the scheme
# it is meaningful for: "line", "channel" (force-split-half) or "pressure".
FLOAT_KEYS = [
    ("scheme", "zeta", "line"),
    ("scheme", "alpha", "channel"),
    ("scheme", "beta", "channel"),
    ("relaxation", "sigma1", "line"),
    ("relaxation", "s1", "line"),
    ("relaxation", "sigma2", "line"),
    ("relaxation", "s2", "line"),
    ("relaxation", "sigma5", "channel"),
    ("relaxation", "s5", "channel"),
    ("relaxation", "sigma8", "channel"),
    ("relaxation", "s8", "channel"),
    ("relaxation", "s_bulk", "channel"),
    ("driving", "source", "line"),
    ("driving", "force_x", "channel"),
    ("driving", "delta_p", "pressure"),
    ("criterion", "tolerance", "line"),
    ("sweep", "products", "line"),
    ("root", "bracket_lo", "line"),
    ("root", "bracket_hi", "line"),
    ("root", "product_tol", "line"),
]

_DOCUMENTS = {
    "line": MINIMAL_LINE,
    "channel": MINIMAL_PLANE,
    "pressure": MINIMAL_PLANE + "driving = pressure\n",
}


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "section, key, scheme", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k, _ in FLOAT_KEYS]
)
def test_non_finite_numbers_are_rejected_with_their_key(section, key, scheme, text):
    problems = violations_of(_DOCUMENTS[scheme], [f"{section}.{key}={text}"])
    assert any(
        f"{section}.{key}: " in p and "not a finite number" in p for p in problems
    ), problems


def test_singular_pressure_predictor_is_a_parse_error():
    (violation,) = violations_of(
        "[scheme]\nmodel = d2q9\ndriving = pressure\nalpha = 0\nbeta = 2\n"
    )
    assert "scheme.beta" in violation
    assert "alpha + 2 beta - 4 = 0" in violation


def test_singular_pressure_predictor_is_listed_with_the_other_violations():
    problems = violations_of(
        "[scheme]\nmodel = d2q9\ndriving = pressure\nalpha = -5\nbeta = 4.5\n"
    )
    assert [p.split(": ")[1] for p in problems] == ["scheme.alpha", "scheme.beta"]
    assert "alpha + 2 beta - 4 = 0" in problems[1]


def test_implied_scheme_fills_missing_keys_and_files_conflicts():
    implied = ("d2q9", "pressure")
    exp = parse_config("", source="<defaults>", implied=implied).experiment
    assert (type(exp), exp.driving) == (D2Q9Experiment, "pressure")
    assert parse_config(MINIMAL_PLANE, implied=implied).experiment.driving == "pressure"
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(MINIMAL_PLANE + "driving = force-population\n", implied=implied)
    (violation,) = excinfo.value.violations
    assert violation.startswith("<config>:3: scheme.driving:")
    assert "pressure" in violation and "force-population" in violation
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config("", overrides=("scheme.model=d1q3",), implied=implied)
    (violation,) = excinfo.value.violations
    assert violation.startswith("--override scheme.model:")


def test_criterion_violations_name_their_own_key():
    (violation,) = violations_of(MINIMAL_LINE + "\n[criterion]\ncheck_every = 0\n")
    assert violation.startswith("<config>:5: criterion.check_every:")
    (violation,) = violations_of(MINIMAL_LINE, overrides=("criterion.check_every=0",))
    assert violation.startswith("--override criterion.check_every:")
    (violation,) = violations_of(
        MINIMAL_LINE + "\n[criterion]\ntolerance = 1e-12\nmax_steps = 10\n"
    )
    assert violation.startswith("<config>:6: criterion.max_steps:")
    assert "must be >= check_every" in violation


def test_criterion_and_experiment_violations_are_filed_together():
    # The criterion and the experiment are built apart, so a bad criterion
    # does not hide the experiment's violations.
    violations = violations_of(
        MINIMAL_LINE + "zeta = -1\n\n[grid]\nn = 2\n\n[criterion]\ncheck_every = 0\n"
    )
    assert len(violations) == 3
    assert violations[0].startswith("<config>:9: criterion.check_every:")
    assert "<config>:6: grid.n: n must be >= 5, got 2" in violations
    assert "<config>:3: scheme.zeta: zeta must be positive, got -1.0" in violations


def test_experiment_violations_name_their_own_key():
    (violation,) = violations_of(MINIMAL_PLANE, overrides=("grid.ny=3",))
    assert violation.startswith("--override grid.ny: ny must be >= 5")
    (violation,) = violations_of(MINIMAL_PLANE + "\n[relaxation]\ns_bulk = 2.5\n")
    assert violation.startswith("<config>:5: relaxation.s_bulk:")
    assert "0 < s < 2" in violation
    (violation,) = violations_of(MINIMAL_PLANE + "driving = pressure\nalpha = -5\n")
    assert violation.startswith("<config>:4: scheme.alpha: alpha must give a positive")
    # A field is filed under the spelling the document used: this rate is
    # stable, but its sigma 1/s - 1/2 overflows.
    (violation,) = violations_of(MINIMAL_LINE + "\n[relaxation]\ns1 = 1e-320\n")
    assert violation == "<config>:5: relaxation.s1: sigma1=inf is not finite"


def test_a_valid_document_is_not_scanned_for_line_numbers(monkeypatch):
    # Line numbers only annotate violations, so they are read only then.
    def scan(text):
        raise AssertionError("_key_lines called")

    monkeypatch.setattr(config, "_key_lines", scan)
    parse_config(MINIMAL_PLANE + "driving = pressure\n\n[grid]\nnx = 40\nny = 9\n")
    parse_config(MINIMAL_LINE, overrides=("grid.n=20",))


def test_line_numbers_and_overrides_annotate_side_by_side():
    # An override wins over the line the document set the same key on.
    text = MINIMAL_LINE + "\n[grid]\nn = 40\nbogus = 1\n"
    assert violations_of(text, overrides=("grid.n=2",)) == [
        "<config>:6: grid.bogus: unknown key",
        "--override grid.n: n must be >= 5, got 2",
    ]


def test_half_bracket_is_rejected():
    (violation,) = violations_of("[scheme]\nmodel = d1q3\n\n[root]\nbracket_lo = 0.1\n")
    assert "must be given together" in violation


def test_nonpositive_products_are_rejected():
    (violation,) = violations_of(
        "[scheme]\nmodel = d1q3\n\n[sweep]\nproducts = 0.1, -0.2\n"
    )
    assert "products must be positive" in violation


def test_validation_is_total_not_first_error():
    violations = violations_of(
        "[scheme]\nmodel = d1q3\nfoo = 1\n\n[relaxation]\ns1 = 2.5\n\n[grid]\nn = 2\n"
    )
    assert len(violations) == 3
    text = "\n".join(violations)
    assert "scheme.foo" in text
    assert "relaxation.s1" in text
    assert "grid.n" in text


def test_error_string_carries_every_violation():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config("[scheme]\nmodel = d1q3\nfoo = 1\nbar = 2\n")
    message = str(excinfo.value)
    assert "invalid configuration" in message
    assert "scheme.foo" in message
    assert "scheme.bar" in message


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_build_line_experiment():
    cfg = parse_config(MINIMAL_LINE, overrides=("grid.n=16",))
    exp = build_experiment(cfg)
    assert isinstance(exp, D1Q3Experiment)
    assert exp.n == 16
    assert exp.product == pytest.approx(0.125)


def test_build_plane_experiment():
    cfg = parse_config(
        MINIMAL_PLANE,
        overrides=("scheme.driving=pressure", "grid.nx=12", "grid.ny=9"),
    )
    exp = build_experiment(cfg)
    assert isinstance(exp, D2Q9Experiment)
    assert exp.driving == "pressure"
    assert (exp.nx, exp.ny) == (12, 9)


def test_build_criterion_carries_tolerances():
    cfg = parse_config(
        MINIMAL_LINE
        + "\n[criterion]\ntolerance = 1e-12\ncheck_every = 50\nmax_steps = 1000\n"
    )
    criterion = build_experiment(cfg).criterion
    assert criterion.tolerance == 1e-12
    assert criterion.check_every == 50
    assert criterion.max_steps == 1000


def test_pressure_predictor_depends_on_equilibrium():
    cfg = parse_config(
        MINIMAL_PLANE,
        overrides=(
            "scheme.driving=pressure",
            "scheme.alpha=-2.5",
            "scheme.beta=2.5",
        ),
    )
    assert predicted_product(cfg.experiment) == pytest.approx(0.375)
