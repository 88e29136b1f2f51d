from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xmcurves.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name, *argv):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_gen_validate_round_trip(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "f.xmc", "--kind", "rightflagpolylines", "--n", "7", "--seed", "3"
    )
    code, out, _ = run(capsys, "validate", "--file", path)
    assert code == 0 and out.strip() == "ok"


def test_gen_determinism(capsys):
    args = ("gen", "--kind", "unitsegments", "--n", "9", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_chi_on_crossing_fan(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "fan.xmc", "--kind", "crossingfan", "--n", "3", "--k", "3", "--seed", "1"
    )
    code, out, _ = run(capsys, "chi", "--exact", "--file", path)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "chi 3"
    assert sorted(lines[1:]) == [f"color {v} {v}" for v in (1, 2, 3)]
    code, out, _ = run(capsys, "omega", "--file", path)
    assert code == 0 and out.splitlines() == ["omega 3", "clique 1 2 3"]


def test_detect_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "plant", "--type", "3", "--k", "2", "--seed", "4")
    assert code == 0
    planted = [line for line in out.splitlines() if line.startswith("# witness")][0]
    path = tmp_path / "t3.xmc"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "detect", "--type", "3", "--k", "2", "--file", str(path))
    assert code == 0 and out.strip() == planted[2:]


def test_validate_failure_exits_1(tmp_path, capsys):
    bad = "xmcurves 1\ncurve 1 : 0,0 2,3 4,0\ncurve 2 : 0,2 4,2\n"
    path = tmp_path / "bad.xmc"
    path.write_text(bad, encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "MultipleCrossings" in out


def test_precondition_failure_exits_1(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "f.xmc", "--kind", "crossingfan", "--n", "3", "--k", "3")
    code, _, err = run(capsys, "gapsub", "--file", path, "--a", "3", "--b", "3")
    assert code == 1 and "must exceed" in err
    code, _, err = run(capsys, "keylemma", "--file", path, "--a", "1", "--b", "9")
    assert code == 1


def test_budget_exceeded_exits_2(tmp_path, capsys):
    # seed 12 at n=20 yields a graph with omega 4 below its DSATUR count 5,
    # so the exact solver really has to branch
    path = gen_file(
        tmp_path, capsys, "f.xmc", "--kind", "rightflagpolylines", "--n", "20", "--seed", "12"
    )
    code, _, err = run(capsys, "chi", "--exact", "--budget", "1", "--file", path)
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, "detect", "--type", "1", "--k", "2", "--cap", "3", "--file", path)
    assert code == 2


def test_layers_alphaseq_shortcheck(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "f.xmc", "--kind", "rightflagpolylines", "--n", "8", "--seed", "3",
        "--segments", "2",
    )
    code, out, _ = run(capsys, "layers", "--file", path, "--source", "1")
    assert code == 0 and out.startswith("layer 0 : 1")
    assert "max_layer_chi" in out

    code, out, _ = run(capsys, "alphaseq", "--file", path, "--alpha", "2")
    assert code == 0 and out.splitlines()[0] == "alpha 2"

    code, out, _ = run(capsys, "shortcheck", "--file", path)
    assert code == 0 and out.startswith("ok checked=")
    code, out, _ = run(capsys, "shortcheck", "--file", path, "--k", "1")
    assert code == 0 and out == "ok checked=0\n"


def test_keylemma_and_arcs_report(tmp_path, capsys):
    path = gen_file(
        tmp_path, capsys, "f.xmc", "--kind", "rightflagpolylines", "--n", "8", "--seed", "3",
        "--segments", "2",
    )
    code, out, _ = run(capsys, "keylemma", "--file", path, "--a", "1", "--b", "5", "--k", "2")
    assert code == 0
    assert "set meets_low : 4" in out
    assert "isolation ok" in out
    assert "slack k=2" in out

    code, out, _ = run(capsys, "arcs", "--file", path, "--a", "1", "--b", "5", "--side", "a")
    assert code == 0 and "class 1 :" in out and "flagged" in out


def test_graph_formats(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "fan.xmc", "--kind", "crossingfan", "--n", "3", "--k", "3")
    code, out, _ = run(capsys, "graph", "--file", path)
    assert code == 0 and out.splitlines()[0] == "1: 2 3"
    code, out, _ = run(capsys, "graph", "--format", "dot", "--file", path)
    assert code == 0 and out.startswith("graph G {")


def test_split_files_reload(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, "two.xmc", "--kind", "twosided", "--n", "4", "--seed", "8")
    prefix = str(tmp_path / "parts")
    code, out, _ = run(capsys, "split", "--file", path, "--out", prefix)
    assert code == 0
    for side in ("right", "left"):
        code, out, _ = run(capsys, "validate", "--file", f"{prefix}.{side}.xmcurves")
        assert code == 0


def test_experiment_table(capsys):
    code, out, _ = run(
        capsys, "experiment", "--kind", "unitsegments", "--n", "10", "--trials", "5",
        "--seed", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance\tn\tkind")
    rows = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 5
    for row in rows:
        omega, chi, dsatur = int(row[4]), int(row[5]), int(row[6])
        assert omega <= chi <= dsatur
        assert row[9] == ""  # timings stay blank unless requested
    assert any(line.startswith("# omega=") for line in lines)

    # deterministic by default
    code2, out2, _ = run(
        capsys, "experiment", "--kind", "unitsegments", "--n", "10", "--trials", "5",
        "--seed", "2",
    )
    assert out2 == out


def test_experiment_row_solved_by_clique_number(capsys):
    # omega = DSATUR = 7 here while the greedy clique is smaller; the
    # exact solver once spent its whole budget on k < 7 and left chi blank
    code, out, _ = run(
        capsys, "experiment", "--kind", "rightflagpolylines", "--n", "40", "--trials", "1",
        "--seed", "9", "--budget", "200000",
    )
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[:4] == ["0", "40", "rightflagpolylines", "9"]
    assert row[4:7] == ["7", "7", "7"]


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "validate", "--file", "/nonexistent/zzz.xmc")
    assert code == 1 and "error" in err


BAD_INPUTS = [
    ("gen", "--kind", "rays", "--n", "0"),
    ("gen", "--kind", "rightflagpolylines", "--n", "3", "--segments", "0"),
    ("gen", "--kind", "rays", "--n", "3", "--range", "0"),
    ("gen", "--kind", "twosided", "--n", "3", "--range", "-5"),
    ("experiment", "--kind", "rays", "--n", "0", "--trials", "1"),
    ("plant", "--type", "1", "--k", "1"),
    ("validate", "--file", "{directory}"),
    ("validate", "--file", "{latin1}"),
    ("shortcheck", "--file", "{family}", "--k", "-1"),
    ("shortcheck", "--file", "{family}", "--k", "0"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.xmc"
    latin1.write_bytes("xmcurves 1\n# café\n".encode("latin-1"))
    family = gen_file(tmp_path, capsys, "f.xmc", "--kind", "crossingfan", "--n", "4")
    paths = {"directory": str(tmp_path), "latin1": str(latin1), "family": family}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_usage_error_exits_2(capsys):
    # exit code 2 is shared by budget overruns and argparse usage errors
    with pytest.raises(SystemExit) as exc:
        main(["chi"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_round_trip_for_every_family_kind(tmp_path, capsys):
    from xmcurves.generators import GEN_KINDS

    for kind in GEN_KINDS:
        if kind == "twosided":
            continue  # not right-flag; its check is split-then-validate
        path = gen_file(
            tmp_path, capsys, f"{kind}.xmc",
            "--kind", kind, "--n", "5", "--k", "2", "--seed", "6",
        )
        code, out, _ = run(capsys, "validate", "--file", path)
        assert code == 0 and out.strip() == "ok"


def _console_script_command(name):
    """The command the pip-generated wrapper for console script ``name`` runs.

    Reads the ``[project.scripts]`` entry from the repo's own pyproject.toml
    (by pattern, since ``tomllib`` is 3.11+ and the package supports 3.10),
    so a renamed or broken target makes the caller fail.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = text.partition("[project.scripts]")[2].partition("\n[")[0]
    match = re.search(rf'^{name}\s*=\s*"([\w.]+):(\w+)"\s*$', table, re.MULTILINE)
    assert match, f"pyproject.toml declares no [project.scripts] {name} target"
    module, attr = match.groups()
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code]


def test_console_script_stdin_and_cross_process_determinism(tmp_path):
    command = _console_script_command("xmcurves")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def xmcurves(hashseed, *argv, stdin=None):
        # each child gets its own hash seed, so equal output cannot come
        # from equal per-process hashing
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hashseed)
        return subprocess.run(
            [*command, *argv], input=stdin, capture_output=True, text=True, cwd=tmp_path, env=env
        )

    args = ("gen", "--kind", "rays", "--n", "6", "--seed", "44")
    first = xmcurves("1", *args)
    second = xmcurves("2", *args)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout

    piped = xmcurves("3", "validate", "--file", "-", stdin=first.stdout)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout.strip() == "ok"
