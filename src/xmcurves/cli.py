"""Command-line surface for validation, solving, lemma machinery,
detection, generation, and experiment tables.

Exit codes: 0 success, 1 validation or precondition failure or an
unreadable input file (the message names the violated condition), 2
resource budget exceeded or a usage error that argparse reports.  A
closed stdout (a broken pipe) ends a command with exit 1 and one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import configurations, fileformat, generators, lemmas
from .coloring import chi_exact, chi_heuristic, omega_exact
from .errors import BudgetExceeded, XmcurvesError
from .geometry import split_at_y_axis, validate_family
from .graphs import (
    CurveFamily,
    adjacency_lines,
    build_intersection_graph,
    cliques_ascending,
    intersection_graph_of_curves,
    to_dot,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_family(path: str) -> CurveFamily:
    return fileformat.load_family(_read_text(path))


def _print(lines) -> None:
    for line in lines:
        print(line)


def cmd_validate(args) -> int:
    curves = fileformat.load_curves(_read_text(args.file))
    report = validate_family(curves)
    _print(report.lines())
    return 0 if report.ok else 1


def cmd_graph(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    if args.format == "dot":
        print(to_dot(graph))
    else:
        _print(adjacency_lines(graph))
    return 0


def cmd_chi(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    if args.dsatur:
        value, coloring = chi_heuristic(graph, "dsatur")
    elif args.firstfit:
        value, coloring = chi_heuristic(graph, "firstfit")
    else:
        value, coloring = chi_exact(graph, args.budget)
    print(f"chi {value}")
    for v in graph.vertices:
        print(f"color {v} {coloring.assignment[v]}")
    return 0


def cmd_omega(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    size, witness = omega_exact(graph)
    print(f"omega {size}")
    print("clique " + " ".join(str(v) for v in witness.vertices))
    return 0


def cmd_layers(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    layers = lemmas.distance_layers(graph, args.source)
    for d, layer in enumerate(layers.layers):
        print(f"layer {d} : " + " ".join(str(v) for v in layer))
    d_star, value = lemmas.max_layer_chi(graph, layers, args.budget)
    print(f"max_layer_chi d={d_star} chi={value}")
    return 0


def cmd_alphaseq(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    seq = lemmas.alpha_sequence(graph, args.alpha, args.budget)
    print(f"alpha {seq.alpha}")
    print("breakpoints " + " ".join(str(r) for r in seq.breakpoints))
    for t, block in enumerate(seq.block_labels(graph)):
        chi = seq.colorings[t].num_colors
        print(f"block {t} : " + " ".join(str(v) for v in block) + f" chi={chi}")
    return 0


def cmd_gapsub(args) -> int:
    graph = build_intersection_graph(_load_family(args.file))
    sub = lemmas.extract_gap_subgraph(graph, args.a, args.b, args.budget)
    print("H : " + " ".join(str(v) for v in sub.vertices))
    print(f"chi {chi_exact(sub, args.budget)[0]}")
    for u, v in sorted(sub.edges):
        gap = graph.induced(range(u + 1, v))
        print(f"gap {u} {v} chi={chi_exact(gap, args.budget)[0]}")
    return 0


def cmd_keylemma(args) -> int:
    family = _load_family(args.file)
    graph = build_intersection_graph(family)
    decomp = lemmas.decompose_around_pair(graph, args.a, args.b)
    _print(lemmas.decomposition_report(decomp, graph=graph, k=args.k, budget=args.budget))
    ok, violator = lemmas.isolation_check(graph, decomp)
    print(f"isolation {'ok' if ok else f'violated by {violator}'}")
    return 0 if ok else 1


def cmd_arcs(args) -> int:
    family = _load_family(args.file)
    graph = build_intersection_graph(family)
    decomp = lemmas.decompose_around_pair(graph, args.a, args.b)
    side = {"a": "low", "b": "high"}[args.side]
    analysis = lemmas.arc_analysis(family, graph, decomp, side, args.budget)
    _print(lemmas.decomposition_report(decomp, analysis=analysis))
    return 0


def cmd_detect(args) -> int:
    family = _load_family(args.file)
    graph = build_intersection_graph(family)
    kind = args.type if args.type == "clique" else f"type{args.type}"
    witness = configurations.detect_config(family, graph, kind, args.k, args.cap)
    if witness is None:
        print("none")
    else:
        print(witness.serialize())
    return 0


def cmd_shortcheck(args) -> int:
    family = _load_family(args.file)
    graph = build_intersection_graph(family)
    sizes = [args.k] if args.k is not None else list(range(2, min(family.n, 5)))
    checked = 0
    for size in sizes:
        for clique in cliques_ascending(graph, size):
            for inner in range(clique[0] + 1, clique[-1]):
                if any(graph.has_edge(inner, v) for v in clique):
                    continue
                checked += 1
                if not configurations.short_check(family, graph, clique, inner):
                    print(
                        "violation clique="
                        + ",".join(str(v) for v in clique)
                        + f" inner={inner}"
                    )
                    return 1
    print(f"ok checked={checked}")
    return 0


def cmd_gen(args) -> int:
    spec = generators.GenSpec(
        kind=args.kind,
        n=args.n,
        k=args.k,
        seed=args.seed,
        coordinate_range=args.range,
        segments_per_curve=args.segments,
    )
    out = generators.generate(spec)
    if isinstance(out, CurveFamily):
        sys.stdout.write(fileformat.dump_family(out))
    else:
        sys.stdout.write(fileformat.dump_curves(out))
    return 0


def cmd_plant(args) -> int:
    family, witness = generators.plant_configuration(
        f"type{args.type}", args.k, args.seed
    )
    sys.stdout.write(fileformat.dump_family(family))
    print(f"# {witness.serialize()}")
    return 0


def cmd_split(args) -> int:
    curves = fileformat.load_curves(_read_text(args.file))
    lefts, rights = [], []
    for c in curves:
        left, right = split_at_y_axis(c)
        lefts.append(left)
        rights.append(right)
    right_text = fileformat.dump_curves(rights, ["right flags"])
    left_text = fileformat.dump_curves(lefts, ["left flags, mirrored to x >= 0"])
    if args.out:
        Path(f"{args.out}.right.xmcurves").write_text(right_text, encoding="utf-8")
        Path(f"{args.out}.left.xmcurves").write_text(left_text, encoding="utf-8")
        print(f"wrote {args.out}.right.xmcurves and {args.out}.left.xmcurves")
    else:
        sys.stdout.write(right_text)
        print()
        sys.stdout.write(left_text)
    return 0


@dataclass
class ExperimentRow:
    instance: int
    n: int
    kind: str
    seed: int
    omega: int
    chi_exact: int | None  # None when the budget ran out
    chi_dsatur: int
    chi_firstfit: int
    max_layer_chi: int
    wall_time_ms: int | None

    def tsv(self) -> str:
        chi = "" if self.chi_exact is None else str(self.chi_exact)
        ms = "" if self.wall_time_ms is None else str(self.wall_time_ms)
        return "\t".join(
            [
                str(self.instance),
                str(self.n),
                self.kind,
                str(self.seed),
                str(self.omega),
                chi,
                str(self.chi_dsatur),
                str(self.chi_firstfit),
                str(self.max_layer_chi),
                ms,
            ]
        )


EXPERIMENT_HEADER = "\t".join(
    [
        "instance",
        "n",
        "kind",
        "seed",
        "omega",
        "chi_exact",
        "chi_dsatur",
        "chi_firstfit",
        "max_layer_chi",
        "wall_time_ms",
    ]
)


def run_experiment(
    kind: str,
    n: int,
    trials: int,
    seed: int,
    k: int = 0,
    budget: int | None = None,
    with_times: bool = False,
) -> list[ExperimentRow]:
    rows = []
    for t in range(trials):
        instance_seed = seed + t
        started = time.perf_counter()
        spec = generators.GenSpec(kind=kind, n=n, k=k, seed=instance_seed)
        out = generators.generate(spec)
        if isinstance(out, CurveFamily):
            graph = build_intersection_graph(out)
        else:
            graph = intersection_graph_of_curves(out)
        w, _ = omega_exact(graph)
        try:
            chi = chi_exact(graph, budget)[0]
        except BudgetExceeded:
            chi = None
        dsat = chi_heuristic(graph, "dsatur")[0]
        fit = chi_heuristic(graph, "firstfit")[0]
        layers = lemmas.distance_layers(graph, graph.vertices[0])
        _, layer_chi = lemmas.max_layer_chi(graph, layers, budget)
        elapsed = int((time.perf_counter() - started) * 1000)
        rows.append(
            ExperimentRow(
                t,
                graph.n,
                kind,
                instance_seed,
                w,
                chi,
                dsat,
                fit,
                layer_chi,
                elapsed if with_times else None,
            )
        )
    return rows


def cmd_experiment(args) -> int:
    rows = run_experiment(
        args.kind, args.n, args.trials, args.seed, args.k, args.budget, args.times
    )
    print(EXPERIMENT_HEADER)
    for row in rows:
        print(row.tsv())
    by_omega: dict[int, int] = {}
    for row in rows:
        best = row.chi_exact if row.chi_exact is not None else row.chi_dsatur
        by_omega[row.omega] = max(by_omega.get(row.omega, 0), best)
    for w in sorted(by_omega):
        print(f"# omega={w} max_chi={by_omega[w]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmcurves",
        description="exact-geometry lab for grounded x-monotone curve families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def with_file(p):
        p.add_argument("--file", required=True, help="curve file, '-' for stdin")
        return p

    def with_budget(p):
        p.add_argument("--budget", type=int, default=None, help="exact-solver node budget")
        return p

    with_file(add("validate", cmd_validate, help="validate a curve file"))

    p = with_file(add("graph", cmd_graph, help="print the intersection graph"))
    p.add_argument("--format", choices=["adj", "dot"], default="adj")

    p = with_budget(with_file(add("chi", cmd_chi, help="chromatic number")))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--dsatur", action="store_true")
    group.add_argument("--firstfit", action="store_true")

    with_file(add("omega", cmd_omega, help="clique number and witness"))

    p = with_budget(with_file(add("layers", cmd_layers, help="BFS distance layers")))
    p.add_argument("--source", type=int, default=1)

    p = with_budget(with_file(add("alphaseq", cmd_alphaseq, help="alpha sequence")))
    p.add_argument("--alpha", type=int, required=True)

    p = with_budget(with_file(add("gapsub", cmd_gapsub, help="gap subgraph (exponents a, b)")))
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = with_budget(with_file(add("keylemma", cmd_keylemma, help="pair decomposition sets")))
    p.add_argument("--a", type=int, required=True, help="low curve index")
    p.add_argument("--b", type=int, required=True, help="high curve index")
    p.add_argument("--k", type=int, default=None, help="also print chromatic slack bounds")

    p = with_budget(with_file(add("arcs", cmd_arcs, help="grounded arc analysis")))
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--side", choices=["a", "b"], default="a")

    p = with_file(add("detect", cmd_detect, help="find a configuration"))
    p.add_argument("--type", required=True, choices=["1", "2", "3", "clique"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=configurations.DEFAULT_DETECT_CAP)

    p = with_file(add("shortcheck", cmd_shortcheck, help="sandwiched-curve endpoint check"))
    p.add_argument("--k", type=int, default=None, help="clique size (default: 2..4)")

    p = add("gen", cmd_gen, help="generate a seeded family")
    p.add_argument("--kind", required=True, choices=list(generators.GEN_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=int, default=16)
    p.add_argument("--segments", type=int, default=1)

    p = add("plant", cmd_plant, help="plant a configuration")
    p.add_argument("--type", required=True, choices=["1", "2", "3"], type=str)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = with_file(add("split", cmd_split, help="split two-sided curves at the y-axis"))
    p.add_argument("--out", default=None, help="output file prefix")

    p = with_budget(add("experiment", cmd_experiment, help="chi vs omega table"))
    p.add_argument("--kind", required=True, choices=list(generators.GEN_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--times",
        action="store_true",
        help="fill wall_time_ms (non-reproducible output)",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call rather than at import, then reused: parsing
    # leaves the parser unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XmcurvesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
