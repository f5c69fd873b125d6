"""svg.scatter, the one plot function the analyze subcommand draws with."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moelab
from moelab.errors import ConfigError
from moelab.svg import scatter

SERIES_LINE = b'stroke-width="1.5"'  # a series polyline; the frontier's is 2


@pytest.mark.parametrize("n_points,lines", [(1, 0), (2, 1)])
def test_series_line_needs_two_points(n_points, lines):
    xs = [1.0, 10.0][:n_points]
    ys = [0.5, 0.4][:n_points]
    svg = scatter({"a": (xs, ys, ["p", "q"][:n_points])}, "NLL")
    assert svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")
    assert svg.count(SERIES_LINE) == lines


def test_legend_follows_name_order():
    a = ([1.0], [0.5], ["pa"])
    b = ([2.0], [0.4], ["pb"])
    svg = scatter({"zeta": a, "alpha": b}, "metric")
    assert svg == scatter({"alpha": b, "zeta": a}, "metric")
    assert svg.index(b">alpha</text>") < svg.index(b">zeta</text>")


@pytest.mark.parametrize("series,frontier", [
    ({"a": ([0.0, 1.0], [0.5, 0.4], ["p", "q"])}, ()),
    ({"a": ([-2.0], [0.5], ["p"])}, ()),
    ({"a": ([1.0], [0.5], ["p"])}, [(0.0, 0.5)]),
], ids=["zero", "negative", "frontier"])
def test_non_positive_x_rejected(series, frontier):
    with pytest.raises(ConfigError, match="positive"):
        scatter(series, "NLL", frontier)


def test_cli_import_leaves_svg_unloaded():
    # analyze imports svg when it draws, so other commands skip its import
    code = "import sys, moelab.cli; print('moelab.svg' in sys.modules)"
    src = str(Path(moelab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"
