"""Command line front end.

One command per experiment; ``magiclbm --help`` lists them, and the
options may come before or after the command.  Every experiment reads a
single INI configuration (see config.py), optionally patched by
repeatable --override section.key=value flags, and writes <command>.csv
into the output directory; the sweep and root-finding commands also write a
companion <command>.plot script that redraws the sweep figure.

Exit codes: 0 success, 2 invalid configuration or usage (an output that
cannot be written included), 3 a march diverged or ran out of steps
before settling, or a transport wave grew, 4 a settled result could not
be reduced (wall not localized, degenerate fit, or measurement signal
exhausted).

Single-run commands imply their scheme (for example poiseuille-pressure
implies model d2q9 with pressure driving), so they work without a
configuration file; an explicit configuration must agree with the
command.  The sweep and magic-root commands take the scheme entirely
from the configuration.
"""

import argparse
import os
import sys
from dataclasses import replace
from typing import NamedTuple

from . import results
from .config import build_experiment, config_hash, parse_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    FitError,
    LocalizationError,
    MeasurementError,
)
from .experiments import (
    D1Q3Experiment,
    D2Q9Experiment,
    density_profile,
    find_magic_root,
    measure_diffusivity,
    measure_viscosity,
    predicted_product,
    run_to_steady,
    sweep_product,
    velocity_profile,
)
from .fitting import fit_parabola, wall_location

__all__ = ["main"]

def build_parser():
    commands = "\n".join(f"  {name:<22}{row[3]}" for name, row in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="magiclbm",
        description="Lattice Boltzmann experiments locating magic relaxation products.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="a command listed below"
    )
    parser.add_argument("--config", metavar="PATH", help="INI configuration file")
    parser.add_argument(
        "--out", metavar="DIR", help="output directory (default from config, else .)"
    )
    parser.add_argument(
        "--override",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        help="patch one configuration value; repeatable, later flags win",
    )
    return parser


def _load_config(args, implied):
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read configuration {args.config!r}: {exc}"
            ) from None
        source = args.config
    elif implied[0] is None:
        raise ConfigurationError(
            f"{args.command} needs --config: the scheme is not implied "
            "by the command name"
        )
    else:
        text, source = "", "<defaults>"
    return parse_config(text, overrides=args.override, source=source, implied=implied)


class _Model(NamedTuple):
    """What the line and the channel differ in on output."""

    sigmas: tuple  # the swept sigma pair
    params: tuple  # scheme parameters echoed after it
    profile: tuple  # abscissa and value columns of the settled profile
    figure: str  # the sweep figure


_MODELS = {
    D1Q3Experiment: _Model(("sigma1", "sigma2"), ("zeta",), ("x", "rho"), "fig2"),
    D2Q9Experiment: _Model(
        ("sigma5", "sigma8"), ("alpha", "beta", "s_bulk"), ("y", "jx"), "fig4"
    ),
}


def _echo(exp, names):
    """Metadata items of the named experiment fields."""
    return [(name, getattr(exp, name)) for name in names]


def _amplitude(exp):
    """Metadata item of the driving amplitude the scheme reads."""
    if isinstance(exp, D1Q3Experiment):
        return ("source", exp.source)
    if exp.driving == "pressure":
        return ("delta_p", exp.delta_p)
    return ("force_x", exp.fx)


def _base_metadata(cfg):
    exp = cfg.experiment
    line = isinstance(exp, D1Q3Experiment)
    return [
        ("config_hash", config_hash(cfg)),
        ("variant", exp.tag),
        ("grid", str(exp.n) if line else f"{exp.nx}x{exp.ny}"),
        ("predictor", predicted_product(exp)),
    ]


def _cmd_profile(cfg):
    exp = build_experiment(cfg)
    model = _MODELS[type(exp)]
    f, steps = run_to_steady(exp)
    if isinstance(exp, D1Q3Experiment):
        x, values = density_profile(exp, f)
        window = ""
    else:
        x, values = velocity_profile(exp, f)
        window = f"column {exp.nx // 2}, "
    fit = fit_parabola(x, values)
    lower = wall_location(fit, float(x[0]), 1.0, "lower")
    upper = wall_location(fit, float(x[-1]), 1.0, "upper")
    meta = (
        _base_metadata(cfg)
        + _echo(exp, model.sigmas)
        + [("product", exp.product)]
        + _echo(exp, model.params)
        + [
            _amplitude(exp),
            ("steps", steps),
            ("fit_window", f"{window}nodes 0..{len(x) - 1}"),
            ("fit_residual", fit.residual),
            ("delta_q_lower", lower.delta_q),
            ("delta_q_upper", upper.delta_q),
        ]
    )
    axis, value = model.profile
    rows = tuple((float(xi), float(vi)) for xi, vi in zip(x, values))
    return results.ResultTable(((axis, "dx"), (value, "")), rows, tuple(meta)), None


def _sample_table(cfg, found, meta):
    """The table of a sweep or root search: one row per sample."""
    model = _MODELS[type(cfg.experiment)]
    names = (*model.sigmas, "product", "delta_q_over_dx")
    rows = tuple(tuple(float(v) for v in row) for row in found.samples)
    table = results.ResultTable(
        tuple((name, "") for name in names), rows, tuple(_base_metadata(cfg) + meta)
    )
    return table, model.figure


def _cmd_sweep(cfg):
    if cfg.products is None:
        raise ConfigurationError(
            "no sweep products: the predicted magic product is not positive, "
            "so defaults cannot be derived; set [sweep] products explicitly"
        )
    exp = build_experiment(cfg)
    swept = sweep_product(exp, cfg.products, split_check=cfg.split_check)
    meta = [("split_check", cfg.split_check), ("samples", len(swept.samples))]
    return _sample_table(cfg, swept, meta)


def _cmd_magic_root(cfg):
    if cfg.bracket_lo is None:
        raise ConfigurationError(
            "no root bracket: the predicted magic product is not positive, "
            "so defaults cannot be derived; set [root] bracket_lo and bracket_hi"
        )
    exp = build_experiment(cfg)
    found = find_magic_root(
        exp,
        bracket=(cfg.bracket_lo, cfg.bracket_hi),
        product_tol=cfg.product_tol,
        max_evals=cfg.max_evals,
    )
    meta = [
        ("bracket_lo", cfg.bracket_lo),
        ("bracket_hi", cfg.bracket_hi),
        ("product_tol", cfg.product_tol),
        ("max_evals", cfg.max_evals),
        ("evaluations", len(found.samples)),
        ("root", found.root),
    ]
    return _sample_table(cfg, found, meta)


def _cmd_transport(cfg):
    wave = dict(mode=cfg.mode, steps=cfg.steps, skip=cfg.skip)
    exp = build_experiment(cfg)
    model = _MODELS[type(exp)]
    if isinstance(exp, D1Q3Experiment):
        measured = measure_diffusivity(replace(exp, n=cfg.measure_n), **wave)
        formula = exp.diffusivity
        name, grid = "kappa", str(cfg.measure_n)
    else:
        measured = measure_viscosity(replace(exp, nx=cfg.measure_nx), **wave)
        formula = exp.sigma8 / 3.0
        name, grid = "nu", f"{cfg.measure_nx}x{cfg.measure_ny}"
    rel_error = abs(measured - formula) / abs(formula)
    meta = (
        _base_metadata(cfg)
        + _echo(exp, model.sigmas + model.params)
        + [("measure_grid", grid)]
        + list(wave.items())
    )
    columns = (
        (f"measured_{name}", "dx^2/dt"),
        (f"formula_{name}", "dx^2/dt"),
        ("rel_error", ""),
    )
    rows = ((float(measured), float(formula), float(rel_error)),)
    return results.ResultTable(columns, rows, tuple(meta)), None


# One row per command, in help order: name -> (implied model, implied
# driving, handler, help); None means that part of the scheme is not
# implied by the command.
_COMMANDS = {
    "poisson-1d": ("d1q3", None, _cmd_profile,
        "march the source-driven line scheme and locate both walls"),
    "poiseuille-force": ("d2q9", "force-split-half", _cmd_profile,
        "split-half forced channel flow, wall offsets from the profile"),
    "poiseuille-force-pop": ("d2q9", "force-population", _cmd_profile,
        "population-forced channel flow, wall offsets from the profile"),
    "poiseuille-pressure": ("d2q9", "pressure", _cmd_profile,
        "pressure-driven channel flow, wall offsets from the profile"),
    "sweep": (None, None, _cmd_sweep,
        "measure the wall offset over a list of sigma products"),
    "magic-root": (None, None, _cmd_magic_root,
        "find the sigma product where the offset is half a spacing (Brent)"),
    "diffusivity": ("d1q3", None, _cmd_transport,
        "measure bulk diffusivity from a decaying density wave"),
    "viscosity": ("d2q9", None, _cmd_transport,
        "measure shear viscosity from a decaying shear wave"),
}


def _write(table, figure, out_dir, command):
    """Write <command>.csv, and <command>.plot when there is a figure."""
    csv_path = os.path.join(out_dir, command + ".csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        results.write_table(table, csv_path)
        print(f"wrote {csv_path}")
        if figure is not None:
            plot_path = os.path.join(out_dir, command + ".plot")
            results.write_plot_script(table, figure, csv_path, plot_path)
            print(f"wrote {plot_path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output: {exc}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    model, driving, handler, _ = _COMMANDS[args.command]
    try:
        cfg = _load_config(args, (model, driving))
        table, figure = handler(cfg)
        out_dir = args.out if args.out is not None else cfg.out_dir
        _write(table, figure, out_dir, args.command)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LocalizationError, FitError, MeasurementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
