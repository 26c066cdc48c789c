"""Run configuration: INI parsing, total validation, canonical rendering.

A run is described by a flat INI document with a handful of sections
([scheme], [grid], [relaxation], [driving], [criterion], [sweep],
[root], [measure], [output]).  Parsing is strict and total:
unknown sections or keys are rejected, and every violation in the
document is collected and reported in a single pass, annotated with the
source file and line where the offending key appears.

The parsed RunConfig is fully resolved: every default is filled in at
parse time, so two documents that describe the same run produce equal
RunConfig values, identical canonical renderings, and therefore the
same configuration hash.  The round trip parse(render(cfg)) == cfg
holds for every valid configuration.

Relaxation parameters accept either spelling, the rate s or the shifted
inverse sigma = 1/s - 1/2; giving both for the same moment is an error.
"""

import configparser
import hashlib
import re
from dataclasses import dataclass, field, replace

from .collision import s_to_sigma, sigma_to_s
from .boundaries import sound_speed_sq
from .errors import ConfigurationError
from .experiments import (
    D1Q3Experiment,
    D2Q9Experiment,
    DRIVING_TAGS,
    SteadyStateCriterion,
    predict_magic,
)

__all__ = [
    "RunConfig",
    "parse_config",
    "render_config",
    "config_hash",
    "build_experiment",
    "build_criterion",
    "predicted_product",
]

_MODELS = ("d1q3", "d2q9")

# Every recognized key, by section.  Anything else is rejected.
_SCHEMA = {
    "scheme": ("model", "variant", "driving", "zeta", "alpha", "beta"),
    "grid": ("n", "nx", "ny"),
    "relaxation": (
        "sigma1",
        "s1",
        "sigma2",
        "s2",
        "sigma5",
        "s5",
        "sigma8",
        "s8",
        "s_bulk",
    ),
    "driving": ("source", "force_x", "delta_p"),
    "criterion": ("tolerance", "check_every", "max_steps"),
    "sweep": ("products", "split_check"),
    "root": ("bracket_lo", "bracket_hi", "product_tol", "max_evals"),
    "measure": ("n", "mode", "steps", "skip", "nx", "ny"),
    "output": ("directory",),
}

_DEFAULT_SWEEP_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
_DEFAULT_BRACKET_FACTORS = (0.5, 2.0)

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one run.

    Model-specific fields are None when they do not apply (for example
    nx is None for the line model).  ``products`` and ``bracket_lo`` /
    ``bracket_hi`` stay None when they were not given and no positive
    predicted magic product exists to derive defaults from; the sweep
    and root-finding commands then require them explicitly.

    ``out_dir`` is plumbing, not physics: it is excluded from equality,
    from the canonical rendering, and hence from the config hash.
    """

    model: str
    variant: str = None
    driving: str = None
    zeta: float = None
    alpha: float = None
    beta: float = None
    n: int = None
    nx: int = None
    ny: int = None
    sigma1: float = None
    sigma2: float = None
    sigma5: float = None
    sigma8: float = None
    s_bulk: float = None
    source: float = None
    force_x: float = None
    delta_p: float = None
    tolerance: float = 1e-15
    check_every: int = 100
    max_steps: int = 500_000
    products: tuple = None
    split_check: bool = True
    bracket_lo: float = None
    bracket_hi: float = None
    product_tol: float = 1e-5
    max_evals: int = 40
    measure_n: int = None
    measure_nx: int = None
    measure_ny: int = None
    mode: int = 1
    steps: int = 2000
    skip: int = 200
    out_dir: str = field(default=".", compare=False)


def _fmt(value):
    """Shortest decimal text that parses back to the identical float."""
    return repr(float(value))


def _key_lines(text):
    """First line number of each section key, for annotated errors."""
    lines = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            continue
        match = re.match(r"([^=:]+?)\s*[=:]", stripped)
        if match and section is not None:
            key = match.group(1).strip().lower()
            lines.setdefault((section, key), lineno)
    return lines


class _Collector:
    """Raw key-value view of the document plus accumulated violations."""

    def __init__(self, raw, where, source):
        self.raw = raw
        self.where = where
        self.source = source
        self.violations = []
        self.used = set()

    def note(self, section, key, message):
        place = self.where.get((section, key))
        if place is None:
            prefix = f"{self.source}: "
        elif place == "override":
            prefix = "--override "
        else:
            prefix = f"{self.source}:{place}: "
        self.violations.append(f"{prefix}{section}.{key}: {message}")

    def has(self, section, key):
        return key in self.raw.get(section, {})

    def take(self, section, key, convert, describe):
        """Fetch and convert one value; None when absent or malformed."""
        self.used.add((section, key))
        text = self.raw.get(section, {}).get(key)
        if text is None:
            return None
        try:
            return convert(text)
        except (ValueError, ConfigurationError) as exc:
            self.note(section, key, f"expected {describe}, got {text!r}: {exc}")
            return None

    def reject_unknown(self):
        for section, keys in self.raw.items():
            if section not in _SCHEMA:
                self.violations.append(
                    f"{self.source}: unknown section [{section}]"
                )
                continue
            for key in keys:
                if key not in _SCHEMA[section]:
                    self.note(section, key, "unknown key")

    def reject_unused(self):
        """Flag recognized keys that are meaningless for this model."""
        for section, keys in self.raw.items():
            if section not in _SCHEMA:
                continue
            for key in keys:
                if key in _SCHEMA[section] and (section, key) not in self.used:
                    self.note(
                        section, key, "not meaningful for this scheme selection"
                    )


def _parse_bool(text):
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean word: {text!r}")


def _parse_products(text):
    parts = [p.strip() for p in text.split(",")]
    values = tuple(float(p) for p in parts if p)
    if not values:
        raise ValueError("empty product list")
    return tuple(sorted(values))


def _read_document(text, source):
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=None,
        strict=True,
        default_section="__defaults__",
    )
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(f"configuration syntax: {exc}") from None
    if parser.defaults():
        raise ConfigurationError(
            f"{source}: keys before the first [section] header are not allowed"
        )
    return {
        section: dict(parser.items(section)) for section in parser.sections()
    }


def _apply_overrides(raw, where, overrides):
    problems = []
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not sep or not dot or not section or not key.strip():
            problems.append(
                f"--override {item!r}: expected section.key=value"
            )
            continue
        section = section.strip().lower()
        key = key.strip().lower()
        raw.setdefault(section, {})[key] = value.strip()
        where[(section, key)] = "override"
    return problems


def _sigma_from_pair(col, sigma_key, s_key):
    """Resolve one relaxation parameter given in either spelling."""
    sigma = col.take("relaxation", sigma_key, float, "a number")
    rate = col.take("relaxation", s_key, float, "a number")
    if col.has("relaxation", sigma_key) and col.has("relaxation", s_key):
        col.note(
            "relaxation",
            sigma_key,
            f"give either {sigma_key} or {s_key}, not both",
        )
        return None
    if rate is not None:
        try:
            return s_to_sigma(rate)
        except ConfigurationError as exc:
            col.note("relaxation", s_key, str(exc))
            return None
    if sigma is not None:
        try:
            sigma_to_s(sigma)
        except ConfigurationError as exc:
            col.note("relaxation", sigma_key, str(exc))
            return None
    return sigma


def parse_config(text, overrides=(), source="<config>"):
    """Parse and validate an INI document into a RunConfig.

    Parameters
    ----------
    text : str
        The configuration document.
    overrides : iterable of str
        "section.key=value" items applied on top of the document before
        validation; later items win.
    source : str
        Name used in error annotations (usually the file path).

    Raises
    ------
    ConfigurationError
        Carrying every violation found, not just the first.
    """
    raw = _read_document(text, source)
    where = _key_lines(text)
    col = _Collector(raw, where, source)
    col.violations.extend(_apply_overrides(raw, where, overrides))
    col.reject_unknown()

    model = col.take("scheme", "model", str.strip, "a model name")
    if model is None:
        col.violations.append(f"{col.source}: scheme.model is required")
    elif model not in _MODELS:
        col.note("scheme", "model", f"unknown model {model!r}, expected d1q3 or d2q9")
        model = None

    values = {}
    if model == "d1q3":
        _collect_d1q3(col, values)
    elif model == "d2q9":
        _collect_d2q9(col, values)
    _collect_common(col, values)

    if model is not None:
        col.reject_unused()
    if col.violations:
        raise ConfigurationError("invalid configuration", col.violations)
    return RunConfig(model=model, **values)


def _collect_d1q3(col, values):
    variant = col.take("scheme", "variant", str.strip, "a variant tag")
    if variant is None:
        variant = "a"
    elif variant not in ("a", "b"):
        col.note("scheme", "variant", f"unknown variant {variant!r}, expected a or b")
        variant = "a"
    values["variant"] = variant

    zeta = col.take("scheme", "zeta", float, "a number")
    if zeta is None:
        zeta = 1.0 / 3.0 if variant == "a" else 1.0
    elif zeta <= 0.0:
        col.note("scheme", "zeta", f"must be positive, got {zeta}")
    values["zeta"] = zeta

    n = col.take("grid", "n", int, "an integer")
    if n is None:
        n = 32
    elif n < 5:
        col.note("grid", "n", f"grid size must be >= 5, got {n}")
    values["n"] = n

    sigma1 = _sigma_from_pair(col, "sigma1", "s1")
    sigma2 = _sigma_from_pair(col, "sigma2", "s2")
    values["sigma1"] = 1.0 if sigma1 is None else sigma1
    values["sigma2"] = 0.125 if sigma2 is None else sigma2

    source = col.take("driving", "source", float, "a number")
    values["source"] = 1e-6 if source is None else source

    _collect_products(col, values, predictor=predict_magic(f"d1q3-{variant}"))

    measure_n = col.take("measure", "n", int, "an integer")
    if measure_n is None:
        measure_n = 64
    elif measure_n < 5:
        col.note("measure", "n", f"grid size must be >= 5, got {measure_n}")
    values["measure_n"] = measure_n


def _collect_d2q9(col, values):
    driving = col.take("scheme", "driving", str.strip, "a driving tag")
    if driving is None:
        driving = "force-split-half"
    elif driving not in DRIVING_TAGS:
        col.note(
            "scheme",
            "driving",
            f"unknown driving {driving!r}, expected one of {', '.join(DRIVING_TAGS)}",
        )
        driving = "force-split-half"
    values["driving"] = driving

    alpha = col.take("scheme", "alpha", float, "a number")
    beta = col.take("scheme", "beta", float, "a number")
    alpha = -2.0 if alpha is None else alpha
    beta = 1.0 if beta is None else beta
    values["alpha"] = alpha
    values["beta"] = beta

    nx = col.take("grid", "nx", int, "an integer")
    ny = col.take("grid", "ny", int, "an integer")
    nx = 100 if nx is None else nx
    ny = 21 if ny is None else ny
    if nx < 5:
        col.note("grid", "nx", f"grid extent must be >= 5, got {nx}")
    if ny < 5:
        col.note("grid", "ny", f"grid extent must be >= 5, got {ny}")
    values["nx"] = nx
    values["ny"] = ny

    sigma5 = _sigma_from_pair(col, "sigma5", "s5")
    sigma8 = _sigma_from_pair(col, "sigma8", "s8")
    values["sigma5"] = 0.375 if sigma5 is None else sigma5
    values["sigma8"] = 1.0 if sigma8 is None else sigma8

    s_bulk = col.take("relaxation", "s_bulk", float, "a number")
    if s_bulk is None:
        s_bulk = 1.2
    else:
        try:
            s_to_sigma(s_bulk)
        except ConfigurationError as exc:
            col.note("relaxation", "s_bulk", str(exc))
    values["s_bulk"] = s_bulk

    predictor = None
    if driving == "pressure":
        delta_p = col.take("driving", "delta_p", float, "a number")
        values["delta_p"] = 1e-6 if delta_p is None else delta_p
        if sound_speed_sq(alpha) <= 0.0:
            col.note(
                "scheme",
                "alpha",
                f"alpha={alpha} gives a non-positive squared sound speed "
                f"(4 + alpha)/6",
            )
        try:
            predictor = predict_magic("pressure", alpha, beta)
        except ConfigurationError as exc:
            col.note("scheme", "beta", str(exc))
    else:
        force_x = col.take("driving", "force_x", float, "a number")
        values["force_x"] = 1e-6 if force_x is None else force_x
        predictor = predict_magic(driving)

    _collect_products(col, values, predictor=predictor)

    measure_nx = col.take("measure", "nx", int, "an integer")
    measure_ny = col.take("measure", "ny", int, "an integer")
    measure_nx = 64 if measure_nx is None else measure_nx
    measure_ny = 4 if measure_ny is None else measure_ny
    if measure_nx < 5:
        col.note("measure", "nx", f"grid extent must be >= 5, got {measure_nx}")
    if measure_ny < 1:
        col.note("measure", "ny", f"grid extent must be >= 1, got {measure_ny}")
    values["measure_nx"] = measure_nx
    values["measure_ny"] = measure_ny


def _collect_products(col, values, predictor):
    """Resolve the sweep product list and root bracket, with defaults.

    Defaults scale the predicted magic product; when the predictor is
    unavailable or not positive the fields stay None and the commands
    that need them insist on explicit values.
    """
    products = col.take("sweep", "products", _parse_products, "a comma-separated list")
    if products is not None and any(p <= 0.0 for p in products):
        col.note("sweep", "products", f"products must be positive, got {products}")
        products = None
    if products is None and predictor is not None and predictor > 0.0:
        products = tuple(f * predictor for f in _DEFAULT_SWEEP_FACTORS)
    values["products"] = products

    split_check = col.take("sweep", "split_check", _parse_bool, "a boolean")
    values["split_check"] = True if split_check is None else split_check

    lo = col.take("root", "bracket_lo", float, "a number")
    hi = col.take("root", "bracket_hi", float, "a number")
    if (lo is None) != (hi is None):
        key = "bracket_lo" if lo is None else "bracket_hi"
        col.note("root", key, "bracket_lo and bracket_hi must be given together")
        lo = hi = None
    elif lo is not None:
        if not 0.0 < lo < hi:
            col.note(
                "root",
                "bracket_lo",
                f"bracket must satisfy 0 < bracket_lo < bracket_hi, "
                f"got ({lo}, {hi})",
            )
            lo = hi = None
    if lo is None and predictor is not None and predictor > 0.0:
        lo = _DEFAULT_BRACKET_FACTORS[0] * predictor
        hi = _DEFAULT_BRACKET_FACTORS[1] * predictor
    values["bracket_lo"] = lo
    values["bracket_hi"] = hi

    product_tol = col.take("root", "product_tol", float, "a number")
    if product_tol is None:
        product_tol = 1e-5
    elif product_tol <= 0.0:
        col.note("root", "product_tol", f"must be positive, got {product_tol}")
    values["product_tol"] = product_tol

    max_evals = col.take("root", "max_evals", int, "an integer")
    if max_evals is None:
        max_evals = 40
    elif max_evals < 2:
        col.note("root", "max_evals", f"must be >= 2, got {max_evals}")
    values["max_evals"] = max_evals


def _collect_common(col, values):
    tolerance = col.take("criterion", "tolerance", float, "a number")
    check_every = col.take("criterion", "check_every", int, "an integer")
    max_steps = col.take("criterion", "max_steps", int, "an integer")
    tolerance = 1e-15 if tolerance is None else tolerance
    check_every = 100 if check_every is None else check_every
    max_steps = 500_000 if max_steps is None else max_steps
    try:
        SteadyStateCriterion(tolerance, check_every, max_steps)
    except ConfigurationError as exc:
        for problem in exc.violations:
            col.note("criterion", "tolerance", problem)
    values["tolerance"] = tolerance
    values["check_every"] = check_every
    values["max_steps"] = max_steps

    mode = col.take("measure", "mode", int, "an integer")
    steps = col.take("measure", "steps", int, "an integer")
    skip = col.take("measure", "skip", int, "an integer")
    mode = 1 if mode is None else mode
    steps = 2000 if steps is None else steps
    skip = 200 if skip is None else skip
    if mode < 1:
        col.note("measure", "mode", f"mode must be >= 1, got {mode}")
    if steps < 1:
        col.note("measure", "steps", f"steps must be >= 1, got {steps}")
    if skip < 0 or skip >= steps:
        col.note("measure", "skip", f"skip must satisfy 0 <= skip < steps, got {skip}")
    values["mode"] = mode
    values["steps"] = steps
    values["skip"] = skip

    out_dir = col.take("output", "directory", str.strip, "a path")
    values["out_dir"] = "." if out_dir is None else out_dir


def render_config(cfg):
    """Canonical INI text of a RunConfig.

    Deterministic section and key order, shortest-round-trip float
    formatting; parse_config of the result reproduces ``cfg`` exactly.
    The output directory is plumbing and is not rendered.
    """
    lines = ["[scheme]", f"model = {cfg.model}"]
    if cfg.variant is not None:
        lines.append(f"variant = {cfg.variant}")
    if cfg.driving is not None:
        lines.append(f"driving = {cfg.driving}")
    if cfg.zeta is not None:
        lines.append(f"zeta = {_fmt(cfg.zeta)}")
    if cfg.alpha is not None:
        lines.append(f"alpha = {_fmt(cfg.alpha)}")
    if cfg.beta is not None:
        lines.append(f"beta = {_fmt(cfg.beta)}")

    lines.append("")
    lines.append("[grid]")
    if cfg.n is not None:
        lines.append(f"n = {cfg.n}")
    if cfg.nx is not None:
        lines.append(f"nx = {cfg.nx}")
    if cfg.ny is not None:
        lines.append(f"ny = {cfg.ny}")

    lines.append("")
    lines.append("[relaxation]")
    if cfg.sigma1 is not None:
        lines.append(f"sigma1 = {_fmt(cfg.sigma1)}")
    if cfg.sigma2 is not None:
        lines.append(f"sigma2 = {_fmt(cfg.sigma2)}")
    if cfg.sigma5 is not None:
        lines.append(f"sigma5 = {_fmt(cfg.sigma5)}")
    if cfg.sigma8 is not None:
        lines.append(f"sigma8 = {_fmt(cfg.sigma8)}")
    if cfg.s_bulk is not None:
        lines.append(f"s_bulk = {_fmt(cfg.s_bulk)}")

    lines.append("")
    lines.append("[driving]")
    if cfg.source is not None:
        lines.append(f"source = {_fmt(cfg.source)}")
    if cfg.force_x is not None:
        lines.append(f"force_x = {_fmt(cfg.force_x)}")
    if cfg.delta_p is not None:
        lines.append(f"delta_p = {_fmt(cfg.delta_p)}")

    lines.append("")
    lines.append("[criterion]")
    lines.append(f"tolerance = {_fmt(cfg.tolerance)}")
    lines.append(f"check_every = {cfg.check_every}")
    lines.append(f"max_steps = {cfg.max_steps}")

    lines.append("")
    lines.append("[sweep]")
    if cfg.products is not None:
        lines.append(f"products = {', '.join(_fmt(p) for p in cfg.products)}")
    lines.append(f"split_check = {'true' if cfg.split_check else 'false'}")

    lines.append("")
    lines.append("[root]")
    if cfg.bracket_lo is not None:
        lines.append(f"bracket_lo = {_fmt(cfg.bracket_lo)}")
        lines.append(f"bracket_hi = {_fmt(cfg.bracket_hi)}")
    lines.append(f"product_tol = {_fmt(cfg.product_tol)}")
    lines.append(f"max_evals = {cfg.max_evals}")

    lines.append("")
    lines.append("[measure]")
    if cfg.measure_n is not None:
        lines.append(f"n = {cfg.measure_n}")
    if cfg.measure_nx is not None:
        lines.append(f"nx = {cfg.measure_nx}")
    if cfg.measure_ny is not None:
        lines.append(f"ny = {cfg.measure_ny}")
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"steps = {cfg.steps}")
    lines.append(f"skip = {cfg.skip}")

    return "\n".join(lines) + "\n"


def config_hash(cfg):
    """Short hex digest identifying the physics content of a RunConfig."""
    digest = hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
    return digest[:12]


def predicted_product(cfg):
    """Predicted magic sigma product for the configured scheme."""
    if cfg.model == "d1q3":
        return predict_magic(f"d1q3-{cfg.variant}")
    if cfg.driving == "pressure":
        return predict_magic("pressure", cfg.alpha, cfg.beta)
    return predict_magic(cfg.driving)


def build_criterion(cfg):
    return SteadyStateCriterion(
        tolerance=cfg.tolerance,
        check_every=cfg.check_every,
        max_steps=cfg.max_steps,
    )


def build_experiment(cfg):
    """Instantiate the experiment described by a RunConfig."""
    criterion = build_criterion(cfg)
    if cfg.model == "d1q3":
        return D1Q3Experiment(
            variant=cfg.variant,
            n=cfg.n,
            sigma1=cfg.sigma1,
            sigma2=cfg.sigma2,
            zeta=cfg.zeta,
            source=cfg.source,
            criterion=criterion,
        )
    return D2Q9Experiment(
        driving=cfg.driving,
        nx=cfg.nx,
        ny=cfg.ny,
        sigma5=cfg.sigma5,
        sigma8=cfg.sigma8,
        alpha=cfg.alpha,
        beta=cfg.beta,
        s_bulk=cfg.s_bulk,
        fx=0.0 if cfg.force_x is None else cfg.force_x,
        delta_p=1e-6 if cfg.delta_p is None else cfg.delta_p,
        criterion=criterion,
    )
