"""Run configuration: INI parsing, total validation, canonical rendering.

A run is described by a flat INI document with a handful of sections
([scheme], [grid], [relaxation], [driving], [criterion], [sweep],
[root], [measure], [output]).  Parsing is strict and total:
unknown sections or keys are rejected, and every violation in the
document is collected and reported in a single pass, annotated with the
source file and line where the offending key appears.

Every key is one row of ``_TABLE``; parsing, the rejection of unknown
keys and of keys not meaningful for the chosen scheme, the canonical
rendering and hence the hash all walk that table.

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
import math
import re
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

from .boundaries import sound_speed_sq
from .collision import s_to_sigma
from .errors import ConfigurationError
from .experiments import (
    D1Q3Experiment,
    D2Q9Experiment,
    DRIVING_TAGS,
    SteadyStateCriterion,
    _default_zeta,
    predicted_product,
)
from .results import format_value

__all__ = [
    "RunConfig",
    "parse_config",
    "render_config",
    "config_hash",
    "build_experiment",
    "build_criterion",
    "predicted_product",
]

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
    variant: str
    driving: str
    zeta: float
    alpha: float
    beta: float
    n: int
    nx: int
    ny: int
    sigma1: float
    sigma2: float
    sigma5: float
    sigma8: float
    s_bulk: float
    source: float
    force_x: float
    delta_p: float
    tolerance: float
    check_every: int
    max_steps: int
    products: tuple
    split_check: bool
    bracket_lo: float
    bracket_hi: float
    product_tol: float
    max_evals: int
    measure_n: int
    measure_nx: int
    measure_ny: int
    mode: int
    steps: int
    skip: int
    out_dir: str = field(compare=False)


def _parse_bool(text):
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean word: {text!r}")


def _finite(text):
    """A float from text; infinities and nan are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_products(text):
    parts = [p.strip() for p in text.split(",")]
    values = tuple(_finite(p) for p in parts if p)
    if not values:
        raise ValueError("empty product list")
    return tuple(sorted(values))


def _rate(text):
    """A relaxation rate, kept as a rate; s_to_sigma rejects s outside (0, 2)."""
    rate = _finite(text)
    s_to_sigma(rate)
    return rate


def _rate_as_sigma(text):
    return s_to_sigma(_finite(text))


# What a value that fails its converter should have looked like.
_DESCRIBE = {
    int: "an integer",
    _parse_bool: "a boolean",
    _parse_products: "a comma-separated list",
}


def _predicted(values):
    """Predicted magic product of the scheme parsed so far, when positive."""
    if values["model"] is None:
        return None
    try:
        product = predicted_product(SimpleNamespace(**values))
    except ConfigurationError:
        return None
    return product if product > 0.0 else None


def _default_products(values):
    product = _predicted(values)
    if product is None:
        return None
    return tuple(f * product for f in _DEFAULT_SWEEP_FACTORS)


def _default_bracket(values, end):
    product = _predicted(values)
    return None if product is None else _DEFAULT_BRACKET_FACTORS[end] * product


_LINE = ("d1q3",)
_PLANE = ("d2q9",)
_FORCE = ("force-split-half", "force-population")
_PRESSURE = ("pressure",)
_POSITIVE = "positive"

# One row per key, in canonical rendering order: (section, key, RunConfig
# field, the models or drivings the key is meaningful for (None: every
# scheme), converter or allowed words, default, lower bound).  A default
# is a value or a function of the values parsed so far.  An integer
# bound is inclusive; _POSITIVE asks for every number to exceed zero.
# The rate spellings s1..s8 share their sigma's field; only the first
# row of a field is rendered, and [output] is not rendered at all.
_TABLE = (
    ("scheme", "model", "model", None, ("d1q3", "d2q9"), None, None),
    ("scheme", "variant", "variant", _LINE, ("a", "b"), "a", None),
    ("scheme", "driving", "driving", _PLANE, DRIVING_TAGS, "force-split-half", None),
    ("scheme", "zeta", "zeta", _LINE, _finite,
     lambda v: _default_zeta(v["variant"]), _POSITIVE),
    ("scheme", "alpha", "alpha", _PLANE, _finite, -2.0, None),
    ("scheme", "beta", "beta", _PLANE, _finite, 1.0, None),
    ("grid", "n", "n", _LINE, int, 32, 5),
    ("grid", "nx", "nx", _PLANE, int, 100, 5),
    ("grid", "ny", "ny", _PLANE, int, 21, 5),
    ("relaxation", "sigma1", "sigma1", _LINE, _finite, 1.0, _POSITIVE),
    ("relaxation", "s1", "sigma1", _LINE, _rate_as_sigma, None, None),
    ("relaxation", "sigma2", "sigma2", _LINE, _finite, 0.125, _POSITIVE),
    ("relaxation", "s2", "sigma2", _LINE, _rate_as_sigma, None, None),
    ("relaxation", "sigma5", "sigma5", _PLANE, _finite, 0.375, _POSITIVE),
    ("relaxation", "s5", "sigma5", _PLANE, _rate_as_sigma, None, None),
    ("relaxation", "sigma8", "sigma8", _PLANE, _finite, 1.0, _POSITIVE),
    ("relaxation", "s8", "sigma8", _PLANE, _rate_as_sigma, None, None),
    ("relaxation", "s_bulk", "s_bulk", _PLANE, _rate, 1.2, None),
    ("driving", "source", "source", _LINE, _finite, 1e-6, None),
    ("driving", "force_x", "force_x", _FORCE, _finite, 1e-6, None),
    ("driving", "delta_p", "delta_p", _PRESSURE, _finite, 1e-6, None),
    ("criterion", "tolerance", "tolerance", None, _finite, 1e-15, None),
    ("criterion", "check_every", "check_every", None, int, 100, None),
    ("criterion", "max_steps", "max_steps", None, int, 500_000, None),
    ("sweep", "products", "products", None, _parse_products, _default_products,
     _POSITIVE),
    ("sweep", "split_check", "split_check", None, _parse_bool, True, None),
    ("root", "bracket_lo", "bracket_lo", None, _finite,
     lambda v: _default_bracket(v, 0), None),
    ("root", "bracket_hi", "bracket_hi", None, _finite,
     lambda v: _default_bracket(v, 1), None),
    ("root", "product_tol", "product_tol", None, _finite, 1e-5, _POSITIVE),
    ("root", "max_evals", "max_evals", None, int, 40, 2),
    ("measure", "n", "measure_n", _LINE, int, 64, 5),
    ("measure", "nx", "measure_nx", _PLANE, int, 64, 5),
    ("measure", "ny", "measure_ny", _PLANE, int, 4, 1),
    ("measure", "mode", "mode", None, int, 1, 1),
    ("measure", "steps", "steps", None, int, 2000, 1),
    ("measure", "skip", "skip", None, int, 200, 0),
    ("output", "directory", "out_dir", None, str.strip, ".", None),
)

_KEYS = {(row[0], row[1]) for row in _TABLE}
_SECTIONS = {row[0] for row in _TABLE}


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


def _convert(convert, text):
    """Value of one key's text; allowed words are checked, not converted."""
    if not isinstance(convert, tuple):
        return convert(text)
    if text not in convert:
        raise ConfigurationError(f"expected one of {', '.join(convert)}, got {text!r}")
    return text


def _below(value, bound):
    items = value if isinstance(value, tuple) else (value,)
    if bound == _POSITIVE:
        return not all(v > 0.0 for v in items)
    return min(items) < bound


def parse_config(text, overrides=(), source="<config>", implied=(None, None)):
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
    implied : (model, driving)
        The scheme a command implies, None where it implies nothing.  An
        implied value fills its scheme key when the document leaves it
        out; a different value in the document is a violation.

    Raises
    ------
    ConfigurationError
        Carrying every violation found, not just the first.
    """
    raw = _read_document(text, source)
    where = _key_lines(text)
    problems = _apply_overrides(raw, where, overrides)

    def note(section, key, message):
        place = where.get((section, key))
        if place is None:
            prefix = f"{source}: "
        elif place == "override":
            prefix = "--override "
        else:
            prefix = f"{source}:{place}: "
        problems.append(f"{prefix}{section}.{key}: {message}")

    scheme = raw.setdefault("scheme", {})
    for key, value in zip(("model", "driving"), implied):
        if value is None:
            continue
        if key not in scheme:
            scheme[key] = value
        elif scheme[key] != value:
            note("scheme", key, f"the command implies {key} {value}, got {scheme[key]}")
            break  # under another model the implied driving means nothing

    for section, keys in raw.items():
        if section not in _SECTIONS:
            problems.append(f"{source}: unknown section [{section}]")
            continue
        for key in keys:
            if (section, key) not in _KEYS:
                note(section, key, "unknown key")

    values, given = {}, {}
    for section, key, name, scope, convert, default, bound in _TABLE:
        text_value = raw.get(section, {}).get(key)
        model, driving = values.get("model"), values.get("driving")
        if scope is not None and model not in scope and driving not in scope:
            if text_value is not None and model is not None:
                note(section, key, "not meaningful for this scheme selection")
            continue
        if text_value is not None:
            if name in given:
                other = given[name]
                note(section, other, f"give either {other} or {key}, not both")
            given[name] = key
            try:
                values[name] = _convert(convert, text_value)
            except ConfigurationError as exc:
                note(section, key, str(exc))
            except ValueError as exc:
                describe = _DESCRIBE.get(convert, "a number")
                note(section, key, f"expected {describe}, got {text_value!r}: {exc}")
            else:
                if bound is not None and _below(values[name], bound):
                    relation = "positive" if bound == _POSITIVE else f">= {bound}"
                    note(section, key, f"{key} must be {relation}, got {values[name]}")
        if name not in values:
            values[name] = default(values) if callable(default) else default

    if "model" not in scheme:
        problems.append(f"{source}: scheme.model is required")
    lo, hi = values["bracket_lo"], values["bracket_hi"]
    if ("bracket_lo" in given) != ("bracket_hi" in given):
        key = "bracket_lo" if "bracket_lo" in given else "bracket_hi"
        note("root", key, "bracket_lo and bracket_hi must be given together")
    elif "bracket_lo" in given and None not in (lo, hi) and not 0.0 < lo < hi:
        note(
            "root",
            "bracket_lo",
            f"bracket must satisfy 0 < bracket_lo < bracket_hi, got ({lo}, {hi})",
        )
    if values["skip"] >= values["steps"]:
        note(
            "measure",
            "skip",
            f"skip must be < steps ({values['steps']}), got {values['skip']}",
        )
    # The criterion states its own rules; each message opens with its field.
    try:
        build_criterion(SimpleNamespace(**values))
    except ConfigurationError as exc:
        for message in exc.violations:
            note("criterion", message.partition(" ")[0], message)
    if values.get("driving") == "pressure":
        if sound_speed_sq(values["alpha"]) <= 0.0:
            note(
                "scheme",
                "alpha",
                f"alpha={values['alpha']} gives a non-positive squared sound speed "
                "(4 + alpha)/6",
            )
        try:
            predicted_product(SimpleNamespace(**values))
        except ConfigurationError as exc:
            note("scheme", "beta", str(exc))

    if problems:
        raise ConfigurationError("invalid configuration", problems)
    return RunConfig(**{f.name: values.get(f.name) for f in fields(RunConfig)})


def render_config(cfg):
    """Canonical INI text of a RunConfig.

    Deterministic section and key order, shortest-round-trip float
    formatting; parse_config of the result reproduces ``cfg`` exactly.
    The output directory is plumbing and is not rendered.
    """
    blocks, rendered = {}, set()
    for section, key, name, *_ in _TABLE:
        block = blocks.setdefault(section, [f"[{section}]"])
        value = getattr(cfg, name)
        if name not in rendered and value is not None:
            block.append(f"{key} = {format_value(value)}")
        rendered.add(name)
    del blocks["output"]
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"


def config_hash(cfg):
    """Short hex digest identifying the physics content of a RunConfig."""
    digest = hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
    return digest[:12]


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
    # A channel reads only the amplitude of its own driving.
    return D2Q9Experiment(
        driving=cfg.driving,
        nx=cfg.nx,
        ny=cfg.ny,
        sigma5=cfg.sigma5,
        sigma8=cfg.sigma8,
        alpha=cfg.alpha,
        beta=cfg.beta,
        s_bulk=cfg.s_bulk,
        fx=cfg.force_x or 0.0,
        delta_p=cfg.delta_p or 0.0,
        criterion=criterion,
    )
