"""Benchmark of xmcurves: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

    python3 bench/run.py --workload experiment --seed 0 --seconds 10 --trace 0
    python3 bench/run.py      # every workload at its default seed, each in
                              # its own process, untraced then traced

One workload run: time a fresh interpreter importing the program
(setup_s), then run whole passes, each over fresh instances drawn from
the seed and the pass number, until --seconds of measured time have
gone by, then check every output.  Times are scaled to a reference
machine speed (bench/speed.py).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; it holds
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run follows
each instance with a fresh copy of it run with span tracing on, and
writes its spans to bench/out/.  Load comes from this one serial
process; the program is imported from src/ of the checkout and nothing
under src/ is changed.  Without --workload the report goes to
bench/out/report.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference as ref
from spans import NAMES, Tracer
from speed import EVERY_S, REFERENCE_S, SpeedTrack

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Which end-to-end metric each group of layer metrics should move, and on
# which workload.
LAYER_MAP = [
    {
        "layers": ["geometry.pair_contacts", "geometry.validate_family",
                   "geometry.crossing_points", "graphs.CurveFamily.from_curves",
                   "graphs.build_intersection_graph"],
        "moves": "instances_per_s and instance_ms_p50 on experiment and files; nothing on gap-lemma",
    },
    {
        "layers": ["generators.generate"],
        "moves": "instance_ms_p90 on experiment",
    },
    {
        "layers": ["fileformat.load_family", "fileformat.dump_family"],
        "moves": "instance_ms_p50 on files",
    },
    {
        "layers": ["coloring.chi_exact", "lemmas.extract_gap_subgraph", "lemmas.alpha_sequence"],
        "moves": "instances_per_s on gap-lemma",
    },
    {
        "layers": ["graphs.OrderedGraph.induced"],
        "moves": "instance_ms_p50 on gap-lemma",
    },
    {
        "layers": ["coloring.chi_exact.failed", "coloring.chi_exact.presolved_ratio"],
        "moves": "ok_ratio and instance_ms_p90 on experiment and files",
    },
    {
        "layers": ["coloring.omega_exact", "coloring.chi_heuristic",
                   "coloring.dilworth_chain_partition", "lemmas.max_layer_chi",
                   "lemmas.arc_analysis", "lemmas.decompose_around_pair",
                   "configurations.detect_config", "configurations.short_check", "cli.main"],
        "moves": "instances_per_s on files",
    },
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.failed": "count"})
    units["geometry.pair_contacts.us_per_call"] = "us"
    for name in ("geometry.pair_contacts.calls_per_pair", "geometry.crossing_points.hit_ratio",
                 "generators.generate.validations_per_family", "coloring.chi_exact.distinct_ratio",
                 "coloring.chi_exact.presolved_ratio", "trace.overhead_ratio"):
        units[name] = "ratio"
    return units


def import_program():
    """Import xmcurves from src/ of this checkout, or exit 1."""
    if not (SRC / "xmcurves" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'xmcurves'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import xmcurves

    if Path(xmcurves.__file__).resolve().parent != SRC / "xmcurves":
        sys.exit(f"error: xmcurves imported from {xmcurves.__file__}, not from {SRC}")


def setup_seconds(samples: int) -> tuple[float, float]:
    """Median time, scaled to the reference speed and as measured, from
    starting a fresh interpreter to its having imported xmcurves and
    xmcurves.cli, after one unmeasured run that fills the bytecode cache.

    The child reads the clock after the import (perf_counter is the
    system-wide monotonic clock), then runs three calibration bursts, so
    that the processor which ran the import also scales it: bursts in
    this process do not follow the child's speed."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import xmcurves, xmcurves.cli; "
        "from time import perf_counter; done = perf_counter(); "
        f"sys.path.insert(0, {str(BENCH)!r}); from speed import burst; "
        "print(done, sorted(burst() for _ in range(3))[1])"
    )
    scaled, times = [], []
    for i in range(samples + 1):
        start = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True, text=True
        )
        done, burst_s = map(float, child.stdout.split())
        if i:
            times.append(done - start)
            scaled.append((done - start) * REFERENCE_S / burst_s)
    return statistics.median(scaled), statistics.median(times)


def run_passes(workload, seed, seconds, small, tracer=None, track=None):
    """Run whole passes until `seconds` of measured instance time.

    With a tracer, each instance is followed by a fresh copy of itself
    run with tracing on, so that both see the same machine conditions;
    the traced copies' time counts towards `seconds`.  With a speed
    track, a calibration burst runs before the first instance and then
    after every EVERY_S of measured time, and one after the last.
    Returns (records, traced records, measured seconds, traced seconds,
    the number of records at the end of each pass, peak RSS in MB at the
    end of the first pass); a record is (instance, outcome, seconds)."""
    records, traced, measured, traced_s, ends, rss_mb = [], [], 0.0, 0.0, [], 0.0
    since = EVERY_S
    while not records or measured + traced_s < seconds:
        instances = workload.instances(seed, len(ends), small)
        twins = workload.instances(seed, len(ends), small) if tracer else [None] * len(instances)
        for inst, twin in zip(instances, twins):
            if track is not None and since >= EVERY_S:
                track.sample(len(records))
                since = 0.0
            start = perf_counter()
            outcome = workload.run(inst)
            elapsed = perf_counter() - start
            records.append((inst, outcome, elapsed))
            measured += elapsed
            since += elapsed
            if twin is None:
                continue
            tracer.instance = len(traced)
            tracer.install()
            try:
                start = perf_counter()
                outcome = workload.run(twin)
                elapsed = perf_counter() - start
            finally:
                tracer.uninstall()
            traced.append((twin, outcome, elapsed))
            traced_s += elapsed
        if not ends:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ends.append(len(records))
    if track is not None:
        track.sample(len(records))
    return records, traced, measured, traced_s, ends, rss_mb


def presolved(graph) -> bool:
    """Whether the graph's clique number already equals its DSATUR colour
    count, so that chi is known without search."""
    labels = list(graph.vertices)
    adj = {v: set(graph.adjacency[v]) for v in labels}
    return ref.omega(labels, adj) == ref.dsatur_colours(labels, adj)


def check_all(workload, records) -> list[str]:
    """Errors from checking every output; equal (key, output) pairs are
    checked once."""
    from workloads import WrongOutput

    errors, done = [], set()
    for inst, outcome, _ in records:
        if (inst.key, outcome.text) in done:
            continue
        done.add((inst.key, outcome.text))
        try:
            workload.check(inst, outcome)
        except WrongOutput as exc:
            errors.append(f"{workload.name} {inst.key[:2]}: {exc}")
        except Exception as exc:  # an output the checks cannot parse is wrong
            errors.append(f"{workload.name} {inst.key[:2]}: unreadable output ({exc!r})")
    return errors


def run_pinned(workload) -> list[str]:
    """Run the workload's pinned instance once, untimed and uncounted;
    print its outcome and return the errors from checking it."""
    from workloads import Instance

    inst = Instance(workload.PINNED)
    outcome = workload.run(inst)
    row = outcome.text.splitlines()[2:3] if outcome.text.startswith("rc=0\n") else []
    verdict = "failed" if outcome.failed else "ok"
    print(f"pinned {' '.join(map(str, inst.key))} (untimed): {verdict} {row or outcome.text[:80]}")
    return check_all(workload, [(inst, outcome, 0.0)])


def timing_metrics(times: list[float], ends: list[int]) -> dict[str, float]:
    """Throughput (the median of the passes' rates, so that a pass that
    drew rare slow instances moves it little), p50 and p90 in ms of
    instance times in seconds; ends are the passes' end indices."""
    starts = [0, *ends[:-1]]
    rates = [(end - start) / sum(times[start:end]) for start, end in zip(starts, ends)]
    ms = sorted(t * 1000 for t in times)
    return {
        "instances_per_s": statistics.median(rates),
        "instance_ms_p50": statistics.median(ms),
        "instance_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def run_workload(name, seed, seconds, trace, small=False, setup_samples=15):
    """(result object, sha256 of the first pass's outputs, errors)."""
    from workloads import WORKLOADS, Files

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup, raw_setup = setup_seconds(setup_samples)
        workload = Files(scratch) if WORKLOADS[name] is Files else WORKLOADS[name]()
        tracer = Tracer() if trace else None
        track = None if trace else SpeedTrack()
        records, traced, measured, traced_s, ends, rss_mb = run_passes(
            workload, seed, seconds, small, tracer, track
        )
        errors = check_all(workload, records)
        if hasattr(workload, "PINNED") and not small:
            errors += run_pinned(workload)
        digest = hashlib.sha256("\n".join(o.text for _, o, _ in records[: ends[0]]).encode()).hexdigest()
        attempted = len(records)
        failed = sum(o.failed for _, o, _ in records)
        if trace:
            if [o.text for _, o, _ in traced] != [o.text for _, o, _ in records]:
                errors.append(f"{name}: traced outputs differ from untraced outputs")
            tracer.dump(OUT / f"spans-{name}-{seed}.jsonl")
            values = tracer.layer_metrics(presolved)
            values["trace.overhead_ratio"] = traced_s / measured
            units = per_layer_units()
        else:
            raw = [t for _, _, t in records]
            values = {
                **timing_metrics([t * track.scale(i) for i, t in enumerate(raw)], ends),
                "ok_ratio": (attempted - failed) / attempted,
                "setup_s": setup,
                "peak_rss_mb": rss_mb,
            }
            units = END_TO_END
            as_measured = {**timing_metrics(raw, ends), "setup_s": raw_setup}
            print("as measured, not scaled: " + ", ".join(f"{k} {v:.6g}" for k, v in as_measured.items()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, digest, errors


def run_all(seconds: int) -> int:
    """Every workload in its own process, untraced then traced; prints a
    table and writes bench/out/report.json."""
    from workloads import BUDGET, WORKLOADS

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "budget": BUDGET,
        "gap_lemma_budget": "library default: 5000000 nodes, n <= 64",
        "repo.src_lines": sum(
            1 for p in sorted((SRC / "xmcurves").glob("*.py"))
            for line in p.read_text(encoding="utf-8").splitlines() if line.strip()
        ),
        "run_seconds": seconds,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    status = 0
    for name, cls in WORKLOADS.items():
        entry = {"seed": cls.default_seed, "why": " ".join(cls.__doc__.split())}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(cls.default_seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1
            result = json.loads(lines[-1]) if lines else {}
            entry["traced" if trace else "untraced"] = result
            for metric, item in result.get("metrics", {}).items():
                print(f"{name:10} {metric:48} {item['value']:>14.6g} {item['unit']}")
        report["workloads"][name] = entry
    (OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["experiment", "gap-lemma", "files"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.seconds is None:
        config = ROOT / "BENCHMARK.json"
        args.seconds = json.loads(config.read_text())["run_seconds"] if config.is_file() else 10
    if args.workload is None:
        OUT.mkdir(exist_ok=True)
        return run_all(args.seconds)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    result, digest, errors = run_workload(args.workload, seed, args.seconds, args.trace)
    for error in errors:
        print(f"wrong output: {error}")
    for metric, item in result["metrics"].items():
        print(f"{metric} {item['value']:.6g} {item['unit']}")
    print(f"outputs sha256 {digest}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
