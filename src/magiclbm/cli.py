"""Command line front end.

One subcommand per experiment.  Every experiment reads a single INI
configuration (see config.py), optionally patched by repeatable
--override section.key=value flags, and writes <command>.csv into the
output directory; the sweep and root-finding commands also write a
companion <command>.plot script that redraws the sweep figure.

Exit codes: 0 success, 2 invalid configuration or usage, 3 a march
diverged or ran out of steps before settling, 4 a settled result could
not be reduced (wall not localized, degenerate fit, or measurement
signal exhausted).

Single-run commands imply their scheme (for example poiseuille-pressure
implies model d2q9 with pressure driving), so they work without a
configuration file; an explicit configuration must agree with the
command.  The sweep and magic-root commands take the scheme entirely
from the configuration.
"""

import argparse
import os
import sys

from . import results
from .collision import diffusivity_from_params
from .config import _apply_overrides, _read_document, build_experiment, config_hash
from .config import parse_config, predicted_product
from .errors import (
    ConfigurationError,
    ConvergenceError,
    FitError,
    LocalizationError,
    MeasurementError,
)
from .experiments import (
    density_profile,
    find_magic_root,
    measure_diffusivity,
    measure_viscosity,
    run_to_steady,
    sweep_product,
    velocity_profile,
)
from .fitting import fit_parabola, wall_location

__all__ = ["main"]

def build_parser():
    parser = argparse.ArgumentParser(
        prog="magiclbm",
        description="Lattice Boltzmann experiments locating magic relaxation products.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, model, driving, help_text, handler in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(implied=(model, driving), handler=handler)
        cmd.add_argument("--config", metavar="PATH", help="INI configuration file")
        cmd.add_argument(
            "--out", metavar="DIR", help="output directory (default from config, else .)"
        )
        cmd.add_argument(
            "--override",
            metavar="SECTION.KEY=VALUE",
            action="append",
            default=[],
            help="patch one configuration value; repeatable, later flags win",
        )
    return parser


def _inspect_scheme(text, overrides):
    """Best-effort read of scheme.model / scheme.driving before validation.

    A document that does not read is left to parse_config, which reports
    it with its location.
    """
    try:
        raw = _read_document(text, "<config>")
    except ConfigurationError:
        raw = {}
    _apply_overrides(raw, {}, overrides)
    scheme = raw.get("scheme", {})
    return scheme.get("model"), scheme.get("driving")


def _load_config(args):
    expected_model, expected_driving = args.implied
    overrides = list(args.override)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read configuration {args.config!r}: {exc}"
            ) from None
        source = args.config
    else:
        if expected_model is None:
            raise ConfigurationError(
                f"{args.command} needs --config: the scheme is not implied "
                "by the command name"
            )
        text = f"[scheme]\nmodel = {expected_model}\n"
        source = "<defaults>"

    model, driving = _inspect_scheme(text, overrides)
    implied = []
    if expected_model is not None:
        if model is None:
            implied.append(f"scheme.model={expected_model}")
        elif model != expected_model:
            raise ConfigurationError(
                f"{args.command} runs the {expected_model} scheme, but the "
                f"configuration selects model = {model}"
            )
    if expected_driving is not None:
        if driving is None:
            implied.append(f"scheme.driving={expected_driving}")
        elif driving != expected_driving:
            raise ConfigurationError(
                f"{args.command} uses {expected_driving} driving, but the "
                f"configuration selects driving = {driving}"
            )
    return parse_config(text, overrides=implied + overrides, source=source)


def _base_metadata(cfg):
    meta = [("config_hash", config_hash(cfg))]
    if cfg.model == "d1q3":
        meta.append(("variant", f"d1q3-{cfg.variant}"))
        meta.append(("grid", str(cfg.n)))
    else:
        meta.append(("variant", cfg.driving))
        meta.append(("grid", f"{cfg.nx}x{cfg.ny}"))
    meta.append(("predictor", predicted_product(cfg)))
    return meta


def _cmd_poisson_1d(cfg):
    exp = build_experiment(cfg)
    f, steps = run_to_steady(exp)
    x, rho = density_profile(exp, f)
    fit = fit_parabola(x, rho)
    lower = wall_location(fit, 0.0, 1.0, "lower")
    upper = wall_location(fit, float(exp.n - 1), 1.0, "upper")
    meta = _base_metadata(cfg) + [
        ("sigma1", cfg.sigma1),
        ("sigma2", cfg.sigma2),
        ("product", exp.product),
        ("zeta", cfg.zeta),
        ("source", cfg.source),
        ("steps", steps),
        ("fit_window", f"nodes 0..{exp.n - 1}"),
        ("fit_residual", fit.residual),
        ("delta_q_lower", lower.delta_q),
        ("delta_q_upper", upper.delta_q),
    ]
    columns = (("x", "dx"), ("rho", ""))
    rows = tuple((float(xi), float(ri)) for xi, ri in zip(x, rho))
    return results.ResultTable(columns, rows, tuple(meta)), None


def _cmd_poiseuille(cfg):
    exp = build_experiment(cfg)
    f, steps = run_to_steady(exp)
    y, jx = velocity_profile(exp, f)
    fit = fit_parabola(y, jx)
    lower = wall_location(fit, 0.0, 1.0, "lower")
    upper = wall_location(fit, float(exp.ny - 1), 1.0, "upper")
    meta = _base_metadata(cfg) + [
        ("sigma5", cfg.sigma5),
        ("sigma8", cfg.sigma8),
        ("product", exp.product),
        ("alpha", cfg.alpha),
        ("beta", cfg.beta),
        ("s_bulk", cfg.s_bulk),
    ]
    if cfg.driving == "pressure":
        meta.append(("delta_p", cfg.delta_p))
    else:
        meta.append(("force_x", cfg.force_x))
    meta += [
        ("steps", steps),
        ("fit_window", f"column {exp.nx // 2}, nodes 0..{exp.ny - 1}"),
        ("fit_residual", fit.residual),
        ("delta_q_lower", lower.delta_q),
        ("delta_q_upper", upper.delta_q),
    ]
    columns = (("y", "dx"), ("jx", ""))
    rows = tuple((float(yi), float(ji)) for yi, ji in zip(y, jx))
    return results.ResultTable(columns, rows, tuple(meta)), None


def _sweep_columns(cfg):
    if cfg.model == "d1q3":
        names = ("sigma1", "sigma2")
    else:
        names = ("sigma5", "sigma8")
    return ((names[0], ""), (names[1], ""), ("product", ""), ("delta_q_over_dx", ""))


def _cmd_sweep(cfg):
    if cfg.products is None:
        raise ConfigurationError(
            "no sweep products: the predicted magic product is not positive, "
            "so defaults cannot be derived; set [sweep] products explicitly"
        )
    exp = build_experiment(cfg)
    swept = sweep_product(exp, cfg.products, split_check=cfg.split_check)
    meta = _base_metadata(cfg) + [
        ("split_check", cfg.split_check),
        ("samples", len(swept.samples)),
    ]
    rows = tuple(tuple(float(v) for v in row) for row in swept.samples)
    figure = "fig2" if cfg.model == "d1q3" else "fig4"
    return results.ResultTable(_sweep_columns(cfg), rows, tuple(meta)), figure


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
    meta = _base_metadata(cfg) + [
        ("bracket_lo", cfg.bracket_lo),
        ("bracket_hi", cfg.bracket_hi),
        ("product_tol", cfg.product_tol),
        ("max_evals", cfg.max_evals),
        ("evaluations", len(found.samples)),
        ("root", found.root),
    ]
    rows = tuple(tuple(float(v) for v in row) for row in found.samples)
    figure = "fig2" if cfg.model == "d1q3" else "fig4"
    return results.ResultTable(_sweep_columns(cfg), rows, tuple(meta)), figure


def _cmd_diffusivity(cfg):
    measured = measure_diffusivity(
        cfg.variant,
        cfg.sigma1,
        cfg.sigma2,
        zeta=cfg.zeta,
        n=cfg.measure_n,
        mode=cfg.mode,
        steps=cfg.steps,
        skip=cfg.skip,
    )
    formula = diffusivity_from_params(cfg.variant, cfg.sigma1, cfg.zeta)
    rel_error = abs(measured - formula) / abs(formula)
    meta = _base_metadata(cfg) + [
        ("sigma1", cfg.sigma1),
        ("sigma2", cfg.sigma2),
        ("zeta", cfg.zeta),
        ("measure_grid", str(cfg.measure_n)),
        ("mode", cfg.mode),
        ("steps", cfg.steps),
        ("skip", cfg.skip),
    ]
    columns = (
        ("measured_kappa", "dx^2/dt"),
        ("formula_kappa", "dx^2/dt"),
        ("rel_error", ""),
    )
    rows = ((float(measured), float(formula), float(rel_error)),)
    return results.ResultTable(columns, rows, tuple(meta)), None


def _cmd_viscosity(cfg):
    measured = measure_viscosity(
        cfg.sigma5,
        cfg.sigma8,
        alpha=cfg.alpha,
        beta=cfg.beta,
        s_bulk=cfg.s_bulk,
        nx=cfg.measure_nx,
        ny=cfg.measure_ny,
        mode=cfg.mode,
        steps=cfg.steps,
        skip=cfg.skip,
    )
    formula = cfg.sigma8 / 3.0
    rel_error = abs(measured - formula) / abs(formula)
    meta = _base_metadata(cfg) + [
        ("sigma5", cfg.sigma5),
        ("sigma8", cfg.sigma8),
        ("alpha", cfg.alpha),
        ("beta", cfg.beta),
        ("s_bulk", cfg.s_bulk),
        ("measure_grid", f"{cfg.measure_nx}x{cfg.measure_ny}"),
        ("mode", cfg.mode),
        ("steps", cfg.steps),
        ("skip", cfg.skip),
    ]
    columns = (
        ("measured_nu", "dx^2/dt"),
        ("formula_nu", "dx^2/dt"),
        ("rel_error", ""),
    )
    rows = ((float(measured), float(formula), float(rel_error)),)
    return results.ResultTable(columns, rows, tuple(meta)), None


# One row per subcommand, in help order: (name, implied model, implied
# driving, help, handler); None means that part of the scheme is not
# implied by the command.
_COMMANDS = (
    ("poisson-1d", "d1q3", None,
     "march the source-driven line scheme and locate both walls",
     _cmd_poisson_1d),
    ("poiseuille-force", "d2q9", "force-split-half",
     "split-half forced channel flow, wall offsets from the profile",
     _cmd_poiseuille),
    ("poiseuille-force-pop", "d2q9", "force-population",
     "population-forced channel flow, wall offsets from the profile",
     _cmd_poiseuille),
    ("poiseuille-pressure", "d2q9", "pressure",
     "pressure-driven channel flow, wall offsets from the profile",
     _cmd_poiseuille),
    ("sweep", None, None,
     "measure the wall offset over a list of sigma products",
     _cmd_sweep),
    ("magic-root", None, None,
     "find the sigma product where the offset is half a spacing (Brent)",
     _cmd_magic_root),
    ("diffusivity", "d1q3", None,
     "measure bulk diffusivity from a decaying density wave",
     _cmd_diffusivity),
    ("viscosity", "d2q9", None,
     "measure shear viscosity from a decaying shear wave",
     _cmd_viscosity),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        table, figure = args.handler(cfg)
        out_dir = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, args.command + ".csv")
        results.write_table(table, csv_path)
        print(f"wrote {csv_path}")
        if figure is not None:
            plot_path = os.path.join(out_dir, args.command + ".plot")
            results.write_plot_script(table, figure, csv_path, plot_path)
            print(f"wrote {plot_path}")
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
