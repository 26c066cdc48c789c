"""Tests of result tables, CSV serialization, and plot script emission."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magiclbm.errors import ConfigurationError
from magiclbm.results import (
    ResultTable,
    emit_plot_script,
    format_value,
    to_csv,
    write_plot_script,
    write_table,
)


def sweep_table(rows=((1.0, 0.125, 0.125, 0.5),), predictor="0.125"):
    return ResultTable(
        columns=(("sigma1", ""), ("sigma2", ""), ("product", ""), ("delta_q_over_dx", "")),
        rows=tuple(rows),
        metadata=(("variant", "d1q3-a"), ("predictor", predictor)),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_csv_layout_with_units_and_metadata():
    table = ResultTable(
        columns=(("x", "dx"), ("rho", "")),
        rows=((0, 1.5), (1, 0.25)),
        metadata=(("grid", "2"),),
    )
    assert to_csv(table) == "# grid = 2\nx[dx],rho\n0,1.5\n1,0.25\n"


def test_integers_serialize_without_decimal_point():
    table = ResultTable(columns=(("steps", ""),), rows=((2400,),), metadata=())
    assert to_csv(table).splitlines()[-1] == "2400"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_round_trip_through_text(value):
    table = ResultTable(columns=(("v", ""),), rows=((value,),), metadata=())
    printed = to_csv(table).splitlines()[-1]
    assert float(printed) == value


def test_known_seventeen_digit_value():
    # One third needs all 17 significant digits to survive the trip.
    table = ResultTable(columns=(("v", ""),), rows=((1.0 / 3.0,),), metadata=())
    assert to_csv(table).splitlines()[-1] == "0.3333333333333333"


@pytest.mark.parametrize("value, text", [
    (0.1 + 0.2, "0.30000000000000004"),
    (-0.0, "-0.0"),
    (1e-05, "1e-05"),
    (5, "5"),
    (True, "true"),
    (np.float64(0.5), "0.5"),
    (np.int64(3), "3"),
    ((1, 0.25, False), "1, 0.25, false"),
    ("d1q3-a", "d1q3-a"),
], ids=["float", "negative-zero", "small-float", "int", "bool", "np-float64",
        "np-int64", "tuple", "str"])
def test_format_value_text(value, text):
    assert format_value(value) == text


def test_write_table_ends_with_newline(tmp_path):
    path = tmp_path / "out.csv"
    write_table(sweep_table(), path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.startswith("# variant = d1q3-a\n")


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------


def test_comma_in_column_name_is_rejected():
    with pytest.raises(ConfigurationError, match="invalid result table"):
        ResultTable(columns=(("a,b", ""),), rows=((1.0,),), metadata=())


def test_ragged_rows_are_rejected():
    with pytest.raises(ConfigurationError, match="invalid result table"):
        ResultTable(
            columns=(("a", ""), ("b", "")), rows=((1.0,),), metadata=()
        )


def test_non_numeric_cell_is_rejected():
    with pytest.raises(ConfigurationError, match="invalid result table"):
        ResultTable(columns=(("a", ""),), rows=(("x",),), metadata=())


def test_newline_in_metadata_key_is_rejected():
    with pytest.raises(ConfigurationError, match="invalid result table"):
        ResultTable(columns=(("a", ""),), rows=((1.0,),), metadata=(("k\ney", "v"),))


# ---------------------------------------------------------------------------
# Plot scripts
# ---------------------------------------------------------------------------


def test_plot_script_is_self_contained():
    script = emit_plot_script(sweep_table(), "fig2", "sweep.csv")
    assert "matplotlib" in script
    assert "sweep.csv" in script
    assert "axvline" in script
    assert "set_xlabel" in script and "set_ylabel" in script
    # No network fetches, no package internals: the script must run from
    # the CSV sitting next to it.
    assert "http" not in script
    assert "magiclbm" not in script


def test_plot_script_rejects_unknown_figure():
    with pytest.raises(ConfigurationError, match="figure"):
        emit_plot_script(sweep_table(), "fig9", "sweep.csv")


def test_plot_script_rejects_schema_mismatch():
    table = ResultTable(
        columns=(("x", "dx"), ("rho", "")),
        rows=((0.0, 1.0),),
        metadata=(("predictor", "0.125"),),
    )
    with pytest.raises(ConfigurationError):
        emit_plot_script(table, "fig2", "sweep.csv")


def test_plot_script_rejects_empty_table():
    with pytest.raises(ConfigurationError, match="empty"):
        emit_plot_script(sweep_table(rows=()), "fig2", "sweep.csv")


def test_plot_script_needs_the_predictor():
    table = ResultTable(
        columns=sweep_table().columns,
        rows=((1.0, 0.125, 0.125, 0.5),),
        metadata=(("variant", "d1q3-a"),),
    )
    with pytest.raises(ConfigurationError, match="predictor"):
        emit_plot_script(table, "fig2", "sweep.csv")


def test_plot_script_draws_the_figure(tmp_path):
    rows = [
        (1.0, p, p, dq)
        for p, dq in [(0.0625, 0.49), (0.125, 0.5), (0.25, 0.52)]
    ]
    table = sweep_table(rows=rows)
    write_table(table, tmp_path / "sweep.csv")
    write_plot_script(table, "fig2", "sweep.csv", tmp_path / "sweep.plot")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "sweep.plot")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.png").exists()


def test_plane_figure_schema_exists():
    table = ResultTable(
        columns=(("sigma5", ""), ("sigma8", ""), ("product", ""), ("delta_q_over_dx", "")),
        rows=((0.375, 1.0, 0.375, 0.5),),
        metadata=(("predictor", "0.375"),),
    )
    script = emit_plot_script(table, "fig4", "sweep.csv")
    assert "wall location" in script
