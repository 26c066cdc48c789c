"""End-to-end tests of the command line interface.

Each command is driven in process through ``main`` with small grids, and
the emitted CSV tables are parsed back to check both the numbers and the
serialization contract.  Subprocess checks make sure the module entry
point stays wired up and that a root search never imports scipy.
"""

import argparse
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from magiclbm.cli import _COMMANDS, build_parser, main


def read_table(path):
    metadata = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return metadata, header, rows


def run_cli(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# Single-run commands
# ---------------------------------------------------------------------------


def test_poisson_profile_command(tmp_path):
    rc = run_cli(tmp_path, "poisson-1d", "--override", "grid.n=16")
    assert rc == 0
    meta, header, rows = read_table(tmp_path / "poisson-1d.csv")
    assert header == ["x[dx]", "rho"]
    assert len(rows) == 16
    assert meta["variant"] == "d1q3-a"
    assert meta["grid"] == "16"
    assert float(meta["predictor"]) == pytest.approx(0.125)
    assert float(meta["product"]) == pytest.approx(0.125)
    assert float(meta["delta_q_lower"]) == pytest.approx(0.5, abs=1e-6)
    assert float(meta["delta_q_upper"]) == pytest.approx(0.5, abs=1e-6)
    assert int(meta["steps"]) > 0
    assert len(meta["config_hash"]) == 12
    # The settled profile is symmetric about the channel center.
    values = [row[1] for row in rows]
    assert values[0] == pytest.approx(values[-1], rel=1e-6)


def test_split_half_channel_command(tmp_path):
    rc = run_cli(
        tmp_path, "poiseuille-force",
        "--override", "grid.nx=6", "--override", "grid.ny=11",
    )
    assert rc == 0
    meta, header, rows = read_table(tmp_path / "poiseuille-force.csv")
    assert header == ["y[dx]", "jx"]
    assert len(rows) == 11
    assert meta["variant"] == "force-split-half"
    assert meta["grid"] == "6x11"
    assert float(meta["delta_q_lower"]) == pytest.approx(0.5, abs=1e-6)
    assert float(meta["force_x"]) == pytest.approx(1e-6)


def test_population_channel_command(tmp_path):
    rc = run_cli(
        tmp_path, "poiseuille-force-pop",
        "--override", "grid.nx=6", "--override", "grid.ny=11",
        "--override", "relaxation.sigma5=0.1875",
    )
    assert rc == 0
    meta, _, _ = read_table(tmp_path / "poiseuille-force-pop.csv")
    assert meta["variant"] == "force-population"
    assert float(meta["predictor"]) == pytest.approx(0.1875)
    assert float(meta["delta_q_lower"]) == pytest.approx(0.5, abs=1e-4)


def test_pressure_channel_command(tmp_path):
    # Pressure driving needs channel length for the inlet and outlet
    # boundary layers to clear the fitted mid column.
    rc = run_cli(
        tmp_path, "poiseuille-pressure",
        "--override", "grid.nx=40", "--override", "grid.ny=11",
        "--override", "relaxation.sigma5=0.1875",
    )
    assert rc == 0
    meta, _, rows = read_table(tmp_path / "poiseuille-pressure.csv")
    assert meta["variant"] == "pressure"
    assert float(meta["alpha"]) == -2.0
    assert float(meta["delta_p"]) == pytest.approx(1e-6)
    assert float(meta["delta_q_lower"]) == pytest.approx(0.5, abs=1e-3)
    assert len(rows) == 11


def test_diffusivity_command(tmp_path):
    rc = run_cli(
        tmp_path, "diffusivity",
        "--override", "measure.n=32", "--override", "measure.steps=1200",
    )
    assert rc == 0
    meta, header, rows = read_table(tmp_path / "diffusivity.csv")
    assert header == ["measured_kappa[dx^2/dt]", "formula_kappa[dx^2/dt]", "rel_error"]
    assert len(rows) == 1
    measured, formula, rel = rows[0]
    assert formula == pytest.approx(1.0 / 3.0)
    assert rel == pytest.approx(abs(measured - formula) / formula, rel=1e-6)
    assert rel < 0.05
    assert meta["mode"] == "1"


def test_viscosity_command(tmp_path):
    rc = run_cli(tmp_path, "viscosity", "--override", "relaxation.sigma8=0.6")
    assert rc == 0
    _, header, rows = read_table(tmp_path / "viscosity.csv")
    assert header == ["measured_nu[dx^2/dt]", "formula_nu[dx^2/dt]", "rel_error"]
    measured, formula, rel = rows[0]
    assert formula == pytest.approx(0.2)
    assert rel < 0.05


# ---------------------------------------------------------------------------
# Sweep and root commands
# ---------------------------------------------------------------------------


def test_sweep_command_emits_table_and_plot(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[sweep]\nproducts = 0.0625, 0.125, 0.25\n"
    )
    rc = run_cli(tmp_path, "sweep", "--config", str(config))
    assert rc == 0
    meta, header, rows = read_table(tmp_path / "sweep.csv")
    assert header == ["sigma1", "sigma2", "product", "delta_q_over_dx"]
    assert meta["split_check"] == "true"
    assert int(meta["samples"]) == len(rows) == 4
    products = [row[2] for row in rows]
    assert products == sorted(products)
    offsets = [row[3] for row in rows]
    assert min(offsets) < 0.5 < max(offsets)
    assert (tmp_path / "sweep.plot").exists()


def test_sweep_plot_script_runs(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[sweep]\nproducts = 0.0625, 0.125, 0.25\nsplit_check = false\n"
    )
    assert run_cli(tmp_path, "sweep", "--config", str(config)) == 0
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "sweep.plot")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.png").exists()


def test_magic_root_command(tmp_path):
    config = tmp_path / "root.ini"
    config.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[root]\nbracket_lo = 0.05\nbracket_hi = 0.3\nproduct_tol = 0.0001\n"
    )
    rc = run_cli(tmp_path, "magic-root", "--config", str(config))
    assert rc == 0
    meta, _, rows = read_table(tmp_path / "magic-root.csv")
    assert float(meta["root"]) == pytest.approx(0.125, abs=1e-3)
    assert int(meta["evaluations"]) == len(rows)
    assert float(meta["bracket_lo"]) == 0.05
    assert (tmp_path / "magic-root.plot").exists()


def test_magic_root_command_does_not_import_scipy(tmp_path):
    # scipy.optimize alone would more than double the peak memory of a
    # root search; the search is written out in experiments instead.
    config = tmp_path / "root.ini"
    config.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[root]\nbracket_lo = 0.05\nbracket_hi = 0.3\n"
    )
    code = (
        "import sys\n"
        "from magiclbm.cli import main\n"
        f"assert main(['magic-root', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "magic-root.csv").exists()


def test_single_run_commands_do_not_emit_plots(tmp_path):
    assert run_cli(tmp_path, "poisson-1d", "--override", "grid.n=16") == 0
    assert not (tmp_path / "poisson-1d.plot").exists()


# ---------------------------------------------------------------------------
# Scheme implication and conflicts
# ---------------------------------------------------------------------------


def test_commands_imply_their_scheme_without_config(tmp_path):
    rc = run_cli(
        tmp_path, "poiseuille-pressure",
        "--override", "grid.nx=6", "--override", "grid.ny=11",
        "--override", "relaxation.sigma5=0.1875",
    )
    assert rc == 0


def test_conflicting_model_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "conflict.ini"
    config.write_text("[scheme]\nmodel = d2q9\n")
    rc = run_cli(tmp_path, "poisson-1d", "--config", str(config))
    assert rc == 2
    err = capsys.readouterr().err
    assert "model" in err
    # Filed under the key, with the line the document selects it on.
    assert f"{config}:2: scheme.model:" in err


def test_conflicting_driving_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "conflict.ini"
    config.write_text("[scheme]\nmodel = d2q9\ndriving = pressure\n")
    rc = run_cli(tmp_path, "poiseuille-force", "--config", str(config))
    assert rc == 2
    assert "driving" in capsys.readouterr().err


def test_sweep_needs_an_explicit_scheme(tmp_path, capsys):
    rc = run_cli(tmp_path, "sweep")
    assert rc == 2
    assert "--config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_invalid_configuration_exits_2(tmp_path, capsys):
    rc = run_cli(tmp_path, "poisson-1d", "--override", "relaxation.s1=2.5")
    assert rc == 2
    err = capsys.readouterr().err
    assert "0 < s < 2" in err
    assert not (tmp_path / "poisson-1d.csv").exists()


def test_non_finite_number_exits_2(tmp_path, capsys):
    # sigma8 = inf used to give rate 0, a stress row that never relaxes.
    rc = run_cli(tmp_path, "poiseuille-pressure", "--override", "relaxation.sigma8=inf")
    assert rc == 2
    assert "relaxation.sigma8: " in capsys.readouterr().err
    assert not (tmp_path / "poiseuille-pressure.csv").exists()


def test_starved_convergence_exits_3(tmp_path, capsys):
    rc = run_cli(
        tmp_path, "poisson-1d",
        "--override", "grid.n=16",
        "--override", "criterion.max_steps=100",
    )
    assert rc == 3
    assert not (tmp_path / "poisson-1d.csv").exists()


@pytest.mark.parametrize(
    "command, overrides, reason",
    [
        ("viscosity", ("scheme.alpha=-3.9",), "wave grows"),
        ("diffusivity", ("scheme.variant=b", "scheme.zeta=2"), "wave diverged"),
    ],
    ids=["viscosity", "diffusivity"],
)
def test_unstable_transport_wave_exits_3(tmp_path, capsys, command, overrides, reason):
    # These used to exit 0 with a negative coefficient in the CSV.
    args = [item for override in overrides for item in ("--override", override)]
    assert run_cli(tmp_path, command, *args) == 3
    err = capsys.readouterr().err
    assert reason in err
    assert "Warning" not in err
    assert not (tmp_path / f"{command}.csv").exists()


def test_degenerate_profile_exits_4(tmp_path, capsys):
    rc = run_cli(
        tmp_path, "poisson-1d",
        "--override", "grid.n=16",
        "--override", "driving.source=0.0",
    )
    assert rc == 4
    assert not (tmp_path / "poisson-1d.csv").exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    rc = main(["poisson-1d", "--override", "grid.n=8", "--out", str(blocker)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output")
    assert err.count("\n") == 1
    assert blocker.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("argv", [["bench"], []], ids=["unknown", "missing"])
def test_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith("usage: magiclbm")


def test_missed_bracket_exits_4(tmp_path, capsys):
    config = tmp_path / "root.ini"
    config.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[root]\nbracket_lo = 0.2\nbracket_hi = 0.3\n"
    )
    rc = run_cli(tmp_path, "magic-root", "--config", str(config))
    assert rc == 4
    assert not (tmp_path / "magic-root.csv").exists()


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

_LINE_SAMPLES = (
    "[scheme]\nmodel = d1q3\n\n[grid]\nn = 8\n\n"
    "[sweep]\nproducts = 0.0625, 0.125, 0.25\n\n"
    "[root]\nbracket_lo = 0.05\nbracket_hi = 0.3\nproduct_tol = 0.001\n"
)
_CHANNEL = ("--override", "grid.nx=5", "--override", "grid.ny=7")
_WAVE = ("--override", "measure.steps=300", "--override", "measure.skip=50")

# Every command once, each on a grid that takes milliseconds.
_SMALL_RUNS = (
    ("poisson-1d", "--override", "grid.n=8"),
    ("poiseuille-force", *_CHANNEL),
    ("poiseuille-force-pop", *_CHANNEL),
    ("poiseuille-pressure", "--override", "grid.nx=12", "--override", "grid.ny=7"),
    ("sweep", "--config", "{config}"),
    ("magic-root", "--config", "{config}"),
    ("diffusivity", "--override", "measure.n=16", *_WAVE),
    ("viscosity", "--override", "measure.nx=16", "--override", "measure.ny=1", *_WAVE),
)


def test_every_command_writes_byte_identical_files_twice(tmp_path):
    config = tmp_path / "line.ini"
    config.write_text(_LINE_SAMPLES)
    written = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        for command, *rest in _SMALL_RUNS:
            args = [item.format(config=config) for item in rest]
            assert main([command, *args, "--out", str(out)]) == 0, command
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    first, second = written
    assert len(first) == len(_SMALL_RUNS) + 2  # a .plot for sweep and magic-root
    assert first == second


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def _span_targets(monkeypatch):
    """``TARGETS`` of the benchmark's tracer, loaded read-only by path."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_traced_functions_are_called_by_the_names_the_tracer_wraps(
    tmp_path, monkeypatch
):
    # The traced benchmark swaps each target at the name its caller reads
    # at call time; a rename or another call route would leave it blind.
    hits = {}
    for module_name, attr, _ in _span_targets(monkeypatch):
        func = getattr(importlib.import_module(module_name), attr)
        assert callable(func), (module_name, attr)

        def counting(*args, _key=(module_name, attr), _func=func, **kwargs):
            hits[_key] = hits.get(_key, 0) + 1
            return _func(*args, **kwargs)

        hits[(module_name, attr)] = 0
        monkeypatch.setattr(importlib.import_module(module_name), attr, counting)
    config = tmp_path / "line.ini"
    config.write_text(_LINE_SAMPLES)
    traced = ("magic-root", "diffusivity", "viscosity")  # the benchmark's commands
    for command, *rest in [run for run in _SMALL_RUNS if run[0] in traced]:
        args = [item.format(config=config) for item in rest]
        assert main([command, *args, "--out", str(tmp_path)]) == 0, command
    assert [key for key, count in hits.items() if count == 0] == []



def test_setup_probe_runs_on_the_default_schemes(tmp_path):
    # The benchmark's set-up sample imports parse_config and
    # build_experiment from the config module in a fresh interpreter.
    probe = pathlib.Path(__file__).parents[1] / "perfbench" / "setup_probe.py"
    line, pressure = tmp_path / "line.ini", tmp_path / "pressure.ini"
    line.write_text("[scheme]\nmodel = d1q3\n")
    pressure.write_text("[scheme]\nmodel = d2q9\ndriving = pressure\n")
    proc = subprocess.run(
        [sys.executable, "-B", str(probe), f"1:{line}", f"0:{pressure}"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    (sample,) = proc.stdout.splitlines()
    assert set(json.loads(sample)) == {"import_s", "config_s"}


def test_parser_lists_all_commands(capsys):
    # One help text, whether or not a command comes first.
    for argv in (["--help"], ["magic-root", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, (*_, help_text) in _COMMANDS.items():
            assert [name, *help_text.split()] in [line.split() for line in lines]


def test_main_builds_one_parser_per_call(tmp_path, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for calls in (1, 2):
        assert run_cli(tmp_path, "poisson-1d", "--override", "grid.n=8") == 0
        assert len(built) == calls


def test_options_may_come_before_the_command(tmp_path):
    written = []
    for first in (True, False):
        out = tmp_path / str(first)
        options = ["--out", str(out), "--override", "grid.n=8"]
        assert main([*options, "poisson-1d"] if first else ["poisson-1d", *options]) == 0
        written.append((out / "poisson-1d.csv").read_bytes())
    assert written[0] == written[1]


def test_readme_command_block_lists_exactly_the_parser_commands():
    # A removed or renamed command must not linger in the docs.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.strip()}
    (command,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert documented == set(command.choices)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "magiclbm.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "magiclbm" in proc.stdout
