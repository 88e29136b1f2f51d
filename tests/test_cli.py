from __future__ import annotations

import contextlib
import io
import os
import random
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


def anchored_family_text():
    """Two crossing anchors and 100 short horizontals, each crossing one
    anchor: a tree on 102 vertices, so omega = DSATUR = 2 certifies chi."""
    lines = ["xmcurves 1", "curve 1 : 0,0 200,200", "curve 2 : 0,201 200,1"]
    for y in [*range(1, 51), *range(151, 201)]:
        end = y if y < 100 else 201 - y
        lines.append(f"curve {len(lines)} : 0,{y} {2 * end + 1}/2,{y}")
    return "\n".join(lines) + "\n"


def test_vertex_cap_limits_the_search_not_the_input(tmp_path, capsys):
    path = tmp_path / "anchored.xmc"
    path.write_text(anchored_family_text(), encoding="utf-8")
    code, out, err = run(capsys, "chi", "--file", str(path))
    assert code == 0 and out.splitlines()[0] == "chi 2", err
    # the block after breakpoint 2 has 100 vertices
    code, out, err = run(capsys, "alphaseq", "--alpha", "2", "--file", str(path))
    assert code == 0 and out.splitlines()[1] == "breakpoints 1 2 102", err


def test_alphaseq_budget_overrun_prints_nothing(tmp_path, capsys):
    # alpha 21 > n: one final block, certified by first fit; its exact
    # solve (omega 4 < DSATUR 5) runs past the budget before any output
    path = gen_file(
        tmp_path, capsys, "f.xmc", "--kind", "rightflagpolylines", "--n", "20", "--seed", "12"
    )
    code, out, err = run(capsys, "alphaseq", "--alpha", "21", "--budget", "1", "--file", path)
    assert code == 2 and out == "" and "budget" in err


class ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys, "fan.xmc", "--kind", "crossingfan", "--n", "5")
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = main(["chi", "--dsatur", "--file", path])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _mutate(rng, text):
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0:  # one character replaced
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("0123456789/-+,: #\nx") + text[i + 1 :]
    if op == 1:  # a span deleted
        i = rng.randrange(len(text))
        return text[:i] + text[i + rng.randrange(1, 12) :]
    if op == 2:  # a line duplicated, or two lines swapped
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if rng.randrange(2):
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines) + "\n"
    if op == 3:  # one number moved by one, or replaced by an extreme one
        m = rng.choice(list(re.finditer(r"-?[0-9]+", text)))
        extremes = ["0", "-0", "0/1", "1/0", "9" * 32, "1/" + "7" * 32]
        new = rng.choice([str(int(m.group()) + 1), str(int(m.group()) - 1), *extremes])
        return text[: m.start()] + new + text[m.end() :]
    if op == 4:  # truncated
        return text[: rng.randrange(len(text))]
    i = rng.randrange(len(lines))  # a vertex copied onto its neighbour
    parts = lines[i].split()
    if len(parts) > 4:
        k = rng.randrange(3, len(parts) - 1)
        parts[k + 1] = parts[k]
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


FILE_COMMANDS = [
    ("validate",),
    ("graph",),
    ("chi", "--budget", "10000"),
    ("chi", "--dsatur"),
    ("omega",),
    ("layers", "--source", "2", "--budget", "10000"),
    ("alphaseq", "--alpha", "2", "--budget", "10000"),
    ("gapsub", "--a", "0", "--b", "0", "--budget", "10000"),
    ("keylemma", "--a", "1", "--b", "4", "--k", "2", "--budget", "10000"),
    ("arcs", "--a", "1", "--b", "4", "--budget", "10000"),
    ("detect", "--type", "1", "--k", "2"),
    ("shortcheck",),
    ("split",),
]


def test_mutated_files_end_in_an_exit_code(tmp_path, capsys):
    seeds = [
        ("rightflagpolylines", "--n", "6", "--segments", "2"),
        ("unitsegments", "--n", "7"),
        ("rays", "--n", "6"),
        ("plant_type3", "--n", "5", "--k", "2"),
        ("crossingfan", "--n", "5"),
        ("twosided", "--n", "4", "--segments", "2"),
    ]
    bases = []
    for kind, *options in seeds:
        assert main(["gen", "--kind", kind, *options]) == 0
        bases.append(capsys.readouterr().out)
    rng = random.Random(7)
    path = tmp_path / "mutant.xmc"
    for _ in range(200):
        text = _mutate(rng, rng.choice(bases))
        path.write_text(text, encoding="utf-8")
        for command in FILE_COMMANDS:
            argv = [*command, "--file", str(path)]
            results = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except Exception as exc:  # report the input with the failure
                        pytest.fail(f"{argv[0]} raised {exc!r} on:\n{text}")
                results.append((code, out.getvalue()))
            assert results[0] == results[1] and results[0][0] in (0, 1, 2), (argv[0], text)


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
