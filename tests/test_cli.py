"""End-to-end tests of the command line interface.

Each command is driven in process through ``main`` with small grids, and
the emitted CSV tables are parsed back to check both the numbers and the
serialization contract.  Subprocess checks make sure the module entry
point stays wired up, that no command imports numpy.ma, scipy, sympy or
matplotlib, and that the emitted plot scripts draw their CSV.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
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


# A stand-in for matplotlib that logs each call as one JSON line, so the
# emitted scripts can run where matplotlib is not installed.
_STUB_MATPLOTLIB = {
    "__init__.py": """\
import json
import os

_LOG = os.path.join(os.path.dirname(__file__), os.pardir, "calls.jsonl")


def _record(name, *args, **kwargs):
    with open(_LOG, "a") as handle:
        handle.write(json.dumps([name, args, kwargs]) + "\\n")


def use(backend):
    _record("use", backend)
""",
    "pyplot.py": """\
from matplotlib import _record


class _Recorder:
    def __init__(self, prefix):
        self._prefix = prefix

    def __getattr__(self, name):
        return lambda *args, **kwargs: _record(self._prefix + name, *args, **kwargs)


def subplots(*args, **kwargs):
    _record("subplots", *args, **kwargs)
    return _Recorder("fig."), _Recorder("ax.")
""",
}


@pytest.mark.parametrize("command, scheme, xlabel", [
    ("sweep",
     "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
     "[sweep]\nproducts = 0.0625, 0.125, 0.25\nsplit_check = false\n",
     "sigma1 sigma2"),
    ("magic-root",
     "[scheme]\nmodel = d2q9\ndriving = force-population\n\n[grid]\nnx = 6\nny = 11\n",
     "sigma5 sigma8"),
], ids=["fig2", "fig4"])
def test_plot_script_draws_its_csv_with_a_stub_matplotlib(tmp_path, command, scheme, xlabel):
    config = tmp_path / "scheme.ini"
    config.write_text(scheme)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    for name, text in _STUB_MATPLOTLIB.items():
        (stub / name).write_text(text)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    proc = subprocess.run(
        [sys.executable, str(out / f"{command}.plot")],
        cwd=elsewhere,
        env={**os.environ, "PYTHONPATH": str(stub.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = {}
    for line in (tmp_path / "stub" / "calls.jsonl").read_text().splitlines():
        name, args, kwargs = json.loads(line)
        calls.setdefault(name, []).append((args, kwargs))
    meta, header, rows = read_table(out / f"{command}.csv")
    assert header[2:] == ["product", "delta_q_over_dx"]
    assert calls["use"] == [(["Agg"], {})]
    [(plotted, _)] = calls["ax.plot"]
    assert plotted[:2] == [[row[2] for row in rows], [row[3] for row in rows]]
    [(vline, _)] = calls["ax.axvline"]
    assert vline == [float(meta["predictor"])]
    assert calls["ax.set_xlabel"] == [([xlabel], {})]
    assert calls["fig.savefig"] == [([str(out / f"{command}.png")], {"dpi": 150})]


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


@pytest.mark.parametrize("scheme", [
    "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
    "[root]\nbracket_lo = 0.05\nbracket_hi = 0.3\n",
    "[scheme]\nmodel = d2q9\ndriving = force-population\n\n[grid]\nnx = 6\nny = 11\n",
], ids=["line", "force-channel"])
def test_magic_root_command_does_not_import_scipy(tmp_path, scheme):
    # scipy.optimize alone would more than double the peak memory of a
    # root search; the search is written out in experiments instead, and
    # the steady solve its starts come from is numpy's.
    config = tmp_path / "root.ini"
    config.write_text(scheme)
    code = (
        "import sys\n"
        "from magiclbm.cli import main\n"
        f"assert main(['magic-root', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "assert not {'numpy.ma', 'scipy', 'sympy'} & set(sys.modules), sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "magic-root.csv").exists()


def test_no_command_imports_modules_it_never_uses(tmp_path):
    # Each of these costs a command run from the shell import time and
    # memory, and none is needed: numpy.ma (which np.unique loads), scipy,
    # sympy, and matplotlib, which only the emitted .plot scripts import.
    line = tmp_path / "line.ini"
    line.write_text(
        "[scheme]\nmodel = d1q3\n\n[grid]\nn = 16\n\n"
        "[sweep]\nproducts = 0.0625, 0.125, 0.25\nsplit_check = false\n"
    )
    channel = tmp_path / "channel.ini"
    channel.write_text(
        "[scheme]\nmodel = d2q9\ndriving = force-population\n\n[grid]\nnx = 6\nny = 11\n"
    )
    wave = ["--override", "measure.steps=300", "--override", "measure.skip=30"]
    runs = [
        ["poisson-1d", "--override", "grid.n=16"],
        ["poiseuille-force", "--override", "grid.ny=11"],
        ["poiseuille-force-pop", "--override", "grid.ny=11"],
        ["poiseuille-pressure", "--override", "grid.nx=6", "--override", "grid.ny=11",
         "--override", "relaxation.sigma5=0.1875"],
        ["sweep", "--config", str(line)],
        ["magic-root", "--config", str(channel)],
        ["diffusivity", "--override", "measure.n=16", *wave],
        ["viscosity", "--override", "measure.nx=16", *wave],
    ]
    assert sorted(run[0] for run in runs) == sorted(_COMMANDS)
    code = (
        "import sys\n"
        "from magiclbm.cli import main\n"
        f"for run in {runs!r}:\n"
        f"    assert main([*run, '--out', {str(tmp_path)!r}]) == 0, run\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'sympy', 'matplotlib')\n"
        "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(_COMMANDS)


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


# sha256 of each file _SMALL_RUNS writes: a change to the program that
# moves one output bit, in any command, fails here.
_SMALL_RUN_DIGESTS = {
    "diffusivity.csv": "454ae147ac74e47fbdb92c069e580d40645dca1fac1b7b477a8d3a070bf5dec4",
    "magic-root.csv": "0f7ad51b4b3d956f8b7681d633c3df32d82ae7f48bfe94e331895b8983cc14f2",
    "magic-root.plot": "5adb71bd3ca988d8caf4750255abdb8f4e005ee93b41338edbd0fc5f2821d62c",
    "poiseuille-force-pop.csv": "deadc04826e2d868b79f8b83648dcdec2ffc7a5bd246cc026a6f98052645632a",
    "poiseuille-force.csv": "8819d8f4f7c4cf2944dd05d889737c6c7cc06440190933e7f9b3d2f546618e9c",
    "poiseuille-pressure.csv": "47c22566602d9e062f8fd2a7d19520fa054de446f2e877ea991a13ad1273ac20",
    "poisson-1d.csv": "f27726296e8dcb47d3ca55b81d1b02085612228c344e2603e56192e0c7823a96",
    "sweep.csv": "2fbb0b79cf17b1e7841d92f2e70873df06fdf41c73384fcb6763de1f0b4e8ecb",
    "sweep.plot": "248f3653fb4bf20a5c342b737c20cfe796235431c25762e5b8f2f019640db49f",
    "viscosity.csv": "8af4b904ef97dc436689083c199c79bd0dd7001b0bf5c800e572710de16a825d",
}


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
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in first.items()}
    assert digests == _SMALL_RUN_DIGESTS


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
