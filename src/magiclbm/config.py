"""Run configuration: INI parsing, total validation, canonical rendering.

A run is described by a flat INI document with a handful of sections
([scheme], [grid], [relaxation], [driving], [criterion], [sweep],
[root], [measure], [output]).  Parsing is strict and total:
unknown sections or keys are rejected, and every violation in the
document is collected and reported in a single pass, annotated with the
source file and line where the offending key appears.

Every key is one row of ``_TABLE``; parsing, the rejection of unknown
keys and of keys not meaningful for the chosen scheme, the canonical
rendering and hence the hash all walk that table.  The scheme and
criterion keys describe a ``D1Q3Experiment`` or ``D2Q9Experiment`` and
its ``SteadyStateCriterion``: parse_config builds them once, so their
defaults and rules are the dataclasses' own, and it files each
violation under its key.  The RunConfig carries that experiment.

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

from .collision import s_to_sigma
from .errors import ConfigurationError
from .experiments import (
    D1Q3Experiment,
    D2Q9Experiment,
    DRIVING_TAGS,
    SteadyStateCriterion,
    predicted_product,
)
from .results import format_value

__all__ = [
    "RunConfig",
    "parse_config",
    "render_config",
    "config_hash",
    "build_experiment",
]

_DEFAULT_SWEEP_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
_DEFAULT_BRACKET_FACTORS = (0.5, 2.0)

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one run.

    ``experiment`` is the D1Q3Experiment or D2Q9Experiment the scheme
    keys describe, with the criterion keys' SteadyStateCriterion; the
    other fields are the command parameters.  A command parameter is
    None when it does not apply (for example measure_nx for the line).
    ``products`` and ``bracket_lo`` / ``bracket_hi`` stay None when they
    were not given and no positive predicted magic product exists to
    derive defaults from; the sweep and root-finding commands then
    require them explicitly.

    ``out_dir`` is plumbing, not physics: it is excluded from equality,
    from the canonical rendering, and hence from the config hash.
    """

    experiment: object
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


def _rate_as_sigma(text):
    return s_to_sigma(_finite(text))


# What a value that fails its converter should have looked like.
_DESCRIBE = {
    int: "an integer",
    _parse_bool: "a boolean",
    _parse_products: "a comma-separated list",
}


_LINE = ("d1q3",)
_PLANE = ("d2q9",)
_FORCE = ("force-split-half", "force-population")
_PRESSURE = ("pressure",)
_POSITIVE = "positive"

# One row per key, in canonical rendering order: (section, key, field, the
# models or drivings the key is meaningful for (None: every scheme),
# converter or allowed words, default, lower bound).  A scheme or criterion
# row names a field of the experiment or of its criterion and has no
# default here: an unset field takes the dataclass's own.  The other rows
# name a RunConfig field; the sweep products and the root bracket default
# to multiples of the predicted magic product.  Only command parameters,
# which no library object holds at parse time, carry a bound: an integer
# bound is inclusive; _POSITIVE asks every number to exceed 0.  The rate
# spellings s1..s8 share their sigma's field; only the first row of a
# field is rendered, and [output] is not rendered at all.
_TABLE = (
    ("scheme", "model", "model", None, ("d1q3", "d2q9"), None, None),
    ("scheme", "variant", "variant", _LINE, ("a", "b"), None, None),
    ("scheme", "driving", "driving", _PLANE, DRIVING_TAGS, None, None),
    ("scheme", "zeta", "zeta", _LINE, _finite, None, None),
    ("scheme", "alpha", "alpha", _PLANE, _finite, None, None),
    ("scheme", "beta", "beta", _PLANE, _finite, None, None),
    ("grid", "n", "n", _LINE, int, None, None),
    ("grid", "nx", "nx", _PLANE, int, None, None),
    ("grid", "ny", "ny", _PLANE, int, None, None),
    ("relaxation", "sigma1", "sigma1", _LINE, _finite, None, None),
    ("relaxation", "s1", "sigma1", _LINE, _rate_as_sigma, None, None),
    ("relaxation", "sigma2", "sigma2", _LINE, _finite, None, None),
    ("relaxation", "s2", "sigma2", _LINE, _rate_as_sigma, None, None),
    ("relaxation", "sigma5", "sigma5", _PLANE, _finite, None, None),
    ("relaxation", "s5", "sigma5", _PLANE, _rate_as_sigma, None, None),
    ("relaxation", "sigma8", "sigma8", _PLANE, _finite, None, None),
    ("relaxation", "s8", "sigma8", _PLANE, _rate_as_sigma, None, None),
    ("relaxation", "s_bulk", "s_bulk", _PLANE, _finite, None, None),
    ("driving", "source", "source", _LINE, _finite, None, None),
    ("driving", "force_x", "fx", _FORCE, _finite, None, None),
    ("driving", "delta_p", "delta_p", _PRESSURE, _finite, None, None),
    ("criterion", "tolerance", "tolerance", None, _finite, None, None),
    ("criterion", "check_every", "check_every", None, int, None, None),
    ("criterion", "max_steps", "max_steps", None, int, None, None),
    ("sweep", "products", "products", None, _parse_products, None, _POSITIVE),
    ("sweep", "split_check", "split_check", None, _parse_bool, True, None),
    ("root", "bracket_lo", "bracket_lo", None, _finite, None, None),
    ("root", "bracket_hi", "bracket_hi", None, _finite, None, None),
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
# The first row of each field, where the field's violations are filed.
_HOME = {row[2]: row[:2] for row in reversed(_TABLE)}
_SECTIONS = {row[0] for row in _TABLE}
_EXPERIMENTS = {"d1q3": D1Q3Experiment, "d2q9": D2Q9Experiment}


def _meaningful(scope, model, driving):
    """Whether a row of ``scope`` is meaningful for the scheme (model, driving)."""
    return scope is None or model in scope or driving in scope


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
        match = re.match(r"([^=]+?)\s*=", stripped)  # the parser's one delimiter
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
        model = values.get("model")
        # An unset driving is the channel's own default.
        driving = values.get("driving", getattr(_EXPERIMENTS.get(model), "driving", None))
        if not _meaningful(scope, model, driving):
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
        if name not in values and default is not None:
            values[name] = default

    if "model" not in scheme:
        problems.append(f"{source}: scheme.model is required")
    lo, hi = values.get("bracket_lo"), values.get("bracket_hi")
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

    def build(cls, **extra):
        """A ``cls`` of the parsed values of its fields, else None."""
        names = {f.name for f in fields(cls)}
        try:
            return cls(**{k: v for k, v in values.items() if k in names}, **extra)
        except ConfigurationError as exc:
            for message in exc.violations:
                name = re.match(r"\w+", message).group()
                note(_HOME[name][0], given.get(name, _HOME[name][1]), message)
        return None

    # The criterion and the experiment state their own rules, each
    # message opening with its field; both are built, so both report.
    criterion = build(SteadyStateCriterion)
    exp = None
    if values.get("model") is not None:
        cls = _EXPERIMENTS[values["model"]]
        exp = build(cls, criterion=criterion or SteadyStateCriterion())
    if exp is not None:
        product = predicted_product(exp)
        if product > 0.0:
            values.setdefault("products", tuple(f * product for f in _DEFAULT_SWEEP_FACTORS))
            for name, f in zip(("bracket_lo", "bracket_hi"), _DEFAULT_BRACKET_FACTORS):
                values.setdefault(name, f * product)

    if problems:
        raise ConfigurationError("invalid configuration", problems)
    values["experiment"] = exp
    return RunConfig(**{f.name: values.get(f.name) for f in fields(RunConfig)})


def render_config(cfg):
    """Canonical INI text of a RunConfig.

    Deterministic section and key order, shortest-round-trip float
    formatting; parse_config of the result reproduces ``cfg`` exactly.
    The output directory is plumbing and is not rendered.
    """
    exp = cfg.experiment
    holders = (cfg, exp, exp.criterion)
    values = {f.name: getattr(obj, f.name) for obj in holders for f in fields(obj)}
    model = next(m for m, cls in _EXPERIMENTS.items() if isinstance(exp, cls))
    values["model"] = model
    blocks, rendered = {}, set()
    for section, key, name, scope, *_ in _TABLE:
        block = blocks.setdefault(section, [f"[{section}]"])
        if name in rendered or not _meaningful(scope, model, values.get("driving")):
            continue
        rendered.add(name)
        if values[name] is not None:
            block.append(f"{key} = {format_value(values[name])}")
    del blocks["output"]
    return "\n\n".join("\n".join(block) for block in blocks.values()) + "\n"


def config_hash(cfg):
    """Short hex digest identifying the physics content of a RunConfig."""
    digest = hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
    return digest[:12]


def build_experiment(cfg):
    """The experiment a RunConfig describes, its criterion included."""
    return cfg.experiment
