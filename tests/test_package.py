"""The package's public names, and which modules an import or a
subcommand loads (checked in fresh interpreters, by module names only)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmcurves
from xmcurves.cli import main

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AlphaSequence", "Arc", "ArcAnalysis", "BudgetExceeded", "ChainPartition",
    "CliqueWitness", "Coloring", "ConfigWitness", "CurveFamily", "DegenerateCurve",
    "DistanceLayers", "EmptySubset", "GenSpec", "GenerationFailed", "InvalidFamily",
    "InvalidFileFormat", "KTooSmall", "NotAPoset", "NotCrossing", "NotCrossingAxis",
    "OrderedGraph", "PairContact", "PairDecomposition", "Point", "PolyCurve",
    "PreconditionFailed", "ThresholdSchedule", "ValidationReport", "Violation",
    "XmcurvesError", "alpha_sequence", "arc_analysis", "build_intersection_graph",
    "chi_exact", "chi_heuristic", "coloring", "configurations", "crossing_points",
    "curve", "decompose_around_pair", "detect_config", "dilworth_chain_partition",
    "distance_layers", "dump_curves", "dump_family", "errors", "extract_gap_subgraph",
    "fileformat", "generate", "generators", "geometry", "graphs",
    "intersection_graph_of_curves", "isolation_check", "lemmas", "load_curves",
    "load_family", "max_layer_chi", "min_right_end_x", "omega_exact", "pair_contacts",
    "plant_configuration", "pt", "remove_neighbors", "short_check", "split_at_y_axis",
    "threshold_schedule", "validate_family", "verify_witness",
]
SUBMODULES = [
    "coloring", "configurations", "errors", "fileformat",
    "generators", "geometry", "graphs", "lemmas",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 69
    assert xmcurves.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_defining_submodules_object(name):
    obj = getattr(xmcurves, name)
    if name in SUBMODULES:
        assert obj is importlib.import_module(f"xmcurves.{name}")
        return
    module = obj.__module__
    assert module.removeprefix("xmcurves.") in SUBMODULES
    assert obj is getattr(importlib.import_module(module), name)


def test_dir_unknown_names_and_star_import():
    assert set(PUBLIC_NAMES) <= set(dir(xmcurves))
    with pytest.raises(AttributeError):
        xmcurves.no_such_name
    with pytest.raises(ImportError):
        exec("from xmcurves import no_such_name", {})
    namespace: dict = {}
    exec("from xmcurves import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def _loaded_modules(code: str) -> list[str]:
    """The xmcurves modules a fresh interpreter holds after running code,
    as printed on its last stdout line."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    report = "; import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'xmcurves'))"
    child = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1].split()


def test_import_loads_no_library_module():
    assert _loaded_modules("import xmcurves, xmcurves.cli") == [
        "xmcurves", "xmcurves.cli", "xmcurves.errors"
    ]


def test_validate_loads_no_solver(tmp_path, capsys):
    assert main(["gen", "--kind", "rays", "--n", "5"]) == 0
    path = tmp_path / "rays.xmc"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    loaded = _loaded_modules(
        f"from xmcurves import cli; assert cli.main(['validate', '--file', {str(path)!r}]) == 0"
    )
    assert "xmcurves.fileformat" in loaded
    assert "xmcurves.coloring" not in loaded and "xmcurves.lemmas" not in loaded


def test_parser_copies_equal_their_modules_values():
    from xmcurves import cli, configurations, generators

    assert cli.GEN_KINDS == generators.GEN_KINDS
    assert cli.DEFAULT_DETECT_CAP == configurations.DEFAULT_DETECT_CAP


def test_help_loads_no_library_module():
    # the report runs in the except clause, after --help exits
    loaded = _loaded_modules(
        "from xmcurves import cli\ntry: cli.main(['--help'])\nexcept SystemExit: pass"
    )
    assert loaded == ["xmcurves", "xmcurves.cli", "xmcurves.errors"]
