"""Result emission: schema-checked CSV tables and companion plot scripts.

Tables are plain CSV with a '#'-prefixed metadata header, so they diff
cleanly, grep cleanly, and load with any CSV reader that skips comment
lines.  Every number is written as the shortest decimal text that
parses back to the identical float, so emitted values survive a decimal
round trip exactly.  Nothing time- or host-dependent is ever written;
identical tables produce identical bytes.

The plot scripts are self-contained matplotlib programs that read the
CSV sitting next to them and redraw the sweep figure: wall offset
against the sigma product, with a vertical marker at the predicted
magic product.
"""

import numbers
import os
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "ResultTable",
    "format_value",
    "to_csv",
    "write_table",
    "emit_plot_script",
    "write_plot_script",
]

_FIGURES = {
    "fig2": {
        "columns": ("sigma1", "sigma2", "product", "delta_q_over_dx"),
        "xlabel": "sigma1 sigma2",
        "ylabel": "delta_q / dx",
        "title": "Wall offset against the relaxation product (line scheme)",
    },
    "fig4": {
        "columns": ("sigma5", "sigma8", "product", "delta_q_over_dx"),
        "xlabel": "sigma5 sigma8",
        "ylabel": "wall location delta_q / dx",
        "title": "Wall offset against the relaxation product (channel scheme)",
    },
}


def format_value(value):
    """Canonical text of a value, shared by the CSV and the config rendering.

    ``true``/``false`` for booleans, integers as integers, other numbers
    as the shortest decimal text that parses back to the identical float,
    tuples joined by ", ", anything else as ``str``.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Number):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(format_value(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class ResultTable:
    """A rectangular block of numbers with named, unit-tagged columns.

    ``columns`` is a tuple of (name, unit) pairs; an empty unit string
    means dimensionless.  ``rows`` is a tuple of equal-length tuples of
    numbers.  ``metadata`` is a tuple of (key, value) pairs emitted in
    order as '#' comment lines ahead of the data.
    """

    columns: tuple
    rows: tuple
    metadata: tuple = ()

    def __post_init__(self):
        problems = []
        for name, unit in self.columns:
            if "," in name or "," in unit:
                problems.append(f"column {name!r}: names and units must not contain commas")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                problems.append(
                    f"row {i} has {len(row)} entries, expected {width}"
                )
                break
            for value in row:
                if not isinstance(value, numbers.Number):
                    problems.append(f"row {i} holds a non-number {value!r}")
                    break
        for key, _ in self.metadata:
            if "\n" in str(key):
                problems.append(f"metadata key {key!r} contains a newline")
        if problems:
            raise ConfigurationError("invalid result table", problems)

    @property
    def column_names(self):
        return tuple(name for name, _ in self.columns)


def to_csv(table):
    """Render a ResultTable as CSV text with a '#' metadata header."""
    lines = []
    for key, value in table.metadata:
        lines.append(f"# {key} = {format_value(value)}")
    header = []
    for name, unit in table.columns:
        header.append(f"{name}[{unit}]" if unit else name)
    lines.append(",".join(header))
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_table(table, path):
    """Write a table to ``path`` as CSV; returns the path."""
    text = to_csv(table)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _metadata_value(table, key):
    for k, v in table.metadata:
        if k == key:
            return v
    return None


def emit_plot_script(table, figure, csv_name):
    """Self-contained plotting script for a sweep table.

    Parameters
    ----------
    table : ResultTable
        Sweep samples; must match the column schema of ``figure`` and
        carry a ``predictor`` metadata entry.
    figure : str
        "fig2" (line scheme) or "fig4" (channel scheme).
    csv_name : str
        File name of the CSV the script will read, resolved relative to
        the script's own location.

    Raises
    ------
    ConfigurationError
        Unknown figure, schema mismatch, missing predictor, or an empty
        table.
    """
    spec = _FIGURES.get(figure)
    if spec is None:
        raise ConfigurationError(
            f"unknown figure {figure!r}, expected one of {sorted(_FIGURES)}"
        )
    if table.column_names != spec["columns"]:
        raise ConfigurationError(
            f"table columns {table.column_names} do not match "
            f"{figure} schema {spec['columns']}"
        )
    if not table.rows:
        raise ConfigurationError(f"empty table: nothing to plot for {figure}")
    predictor = _metadata_value(table, "predictor")
    if predictor is None:
        raise ConfigurationError(
            f"table metadata lacks the predictor entry needed for {figure}"
        )
    predictor = float(predictor)
    png_name = os.path.splitext(csv_name)[0] + ".png"
    return f'''#!/usr/bin/env python3
"""Redraw the sweep figure from {csv_name} (expected next to this script)."""

import csv
import os

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
rows = []
with open(os.path.join(here, {csv_name!r}), newline="") as handle:
    for record in csv.reader(line for line in handle if not line.startswith("#")):
        rows.append(record)
data = [[float(value) for value in record] for record in rows[1:]]
product = [record[2] for record in data]
offset = [record[3] for record in data]

fig, ax = plt.subplots(figsize=(5.0, 4.0))
ax.plot(product, offset, "o-", color="black", markerfacecolor="white")
ax.axhline(0.5, color="0.6", linewidth=0.8)
ax.axvline(
    {predictor!r},
    color="crimson",
    linestyle="--",
    label="predicted magic product = " + format({predictor!r}, "g"),
)
ax.set_xlabel({spec["xlabel"]!r})
ax.set_ylabel({spec["ylabel"]!r})
ax.set_title({spec["title"]!r})
ax.legend()
fig.tight_layout()
fig.savefig(os.path.join(here, {png_name!r}), dpi=150)
print("wrote", os.path.join(here, {png_name!r}))
'''


def write_plot_script(table, figure, csv_path, plot_path):
    """Write the plot script next to its CSV; returns the script path."""
    text = emit_plot_script(table, figure, os.path.basename(csv_path))
    with open(plot_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return plot_path
