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
import sys

from .errors import BudgetExceeded, XmcurvesError

# Library modules are imported inside the functions that use them, so a
# subcommand loads only what it runs.  Their functions are looked up on
# the module at each call, never kept here, so a function rebound on its
# module (a wrapper that traces or captures calls) is the one called.

# Copies of generators' and configurations' values (tests pin them): the parser loads neither.
GEN_KINDS = ("rays", "unitsegments", "rightflagpolylines", "crossingfan",
             "plant_type1", "plant_type2", "plant_type3", "twosided")
DEFAULT_DETECT_CAP = 24


def _read_text(path: str) -> str:
    from pathlib import Path

    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_family(path: str):
    from . import fileformat

    return fileformat.load_family(_read_text(path))


def _load_graph(path: str):
    from . import graphs

    return graphs.build_intersection_graph(_load_family(path))


def _print(lines) -> None:
    for line in lines:
        print(line)


def cmd_validate(args) -> int:
    from . import fileformat, geometry

    report = geometry.validate_family(fileformat.load_curves(_read_text(args.file)))
    _print(report.lines())
    return 0 if report.ok else 1


def cmd_graph(args) -> int:
    from . import graphs

    graph = _load_graph(args.file)
    if args.format == "dot":
        print(graphs.to_dot(graph))
    else:
        _print(graphs.adjacency_lines(graph))
    return 0


def cmd_chi(args) -> int:
    from . import coloring

    graph = _load_graph(args.file)
    if args.dsatur:
        value, colors = coloring.chi_heuristic(graph, "dsatur")
    elif args.firstfit:
        value, colors = coloring.chi_heuristic(graph, "firstfit")
    else:
        value, colors = coloring.chi_exact(graph, args.budget)
    print(f"chi {value}")
    for v in graph.vertices:
        print(f"color {v} {colors.assignment[v]}")
    return 0


def cmd_omega(args) -> int:
    from . import coloring

    size, witness = coloring.omega_exact(_load_graph(args.file))
    print(f"omega {size}")
    print("clique " + " ".join(str(v) for v in witness.vertices))
    return 0


def cmd_layers(args) -> int:
    from . import lemmas

    graph = _load_graph(args.file)
    layers = lemmas.distance_layers(graph, args.source)
    for d, layer in enumerate(layers.layers):
        print(f"layer {d} : " + " ".join(str(v) for v in layer))
    d_star, value = lemmas.max_layer_chi(graph, layers, args.budget)
    print(f"max_layer_chi d={d_star} chi={value}")
    return 0


def cmd_alphaseq(args) -> int:
    from . import lemmas

    graph = _load_graph(args.file)
    seq = lemmas.alpha_sequence(graph, args.alpha, args.budget)
    print(f"alpha {seq.alpha}")
    print("breakpoints " + " ".join(str(r) for r in seq.breakpoints))
    for t, block in enumerate(seq.block_labels(graph)):
        chi = seq.colorings[t].num_colors
        print(f"block {t} : " + " ".join(str(v) for v in block) + f" chi={chi}")
    return 0


def cmd_gapsub(args) -> int:
    from . import coloring, lemmas

    graph = _load_graph(args.file)
    sub = lemmas.extract_gap_subgraph(graph, args.a, args.b, args.budget)
    print("H : " + " ".join(str(v) for v in sub.vertices))
    print(f"chi {coloring.chi_exact(sub, args.budget)[0]}")
    for u, v in sorted(sub.edges):
        gap = graph.induced(range(u + 1, v))
        print(f"gap {u} {v} chi={coloring.chi_exact(gap, args.budget)[0]}")
    return 0


def cmd_keylemma(args) -> int:
    from . import lemmas

    graph = _load_graph(args.file)
    decomp = lemmas.decompose_around_pair(graph, args.a, args.b)
    _print(lemmas.decomposition_report(decomp, graph=graph, k=args.k, budget=args.budget))
    ok, violator = lemmas.isolation_check(graph, decomp)
    print(f"isolation {'ok' if ok else f'violated by {violator}'}")
    return 0 if ok else 1


def cmd_arcs(args) -> int:
    from . import graphs, lemmas

    family = _load_family(args.file)
    graph = graphs.build_intersection_graph(family)
    decomp = lemmas.decompose_around_pair(graph, args.a, args.b)
    side = {"a": "low", "b": "high"}[args.side]
    analysis = lemmas.arc_analysis(family, graph, decomp, side, args.budget)
    _print(lemmas.decomposition_report(decomp, analysis=analysis))
    return 0


def cmd_detect(args) -> int:
    from . import configurations, graphs

    family = _load_family(args.file)
    graph = graphs.build_intersection_graph(family)
    kind = args.type if args.type == "clique" else f"type{args.type}"
    witness = configurations.detect_config(family, graph, kind, args.k, args.cap)
    if witness is None:
        print("none")
    else:
        print(witness.serialize())
    return 0


def cmd_shortcheck(args) -> int:
    from . import configurations, graphs

    family = _load_family(args.file)
    graph = graphs.build_intersection_graph(family)
    sizes = [args.k] if args.k is not None else list(range(2, min(family.n, 5)))
    checked = 0
    for size in sizes:
        for clique in graphs.cliques_ascending(graph, size):
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
    from . import fileformat, generators, graphs

    spec = generators.GenSpec(
        kind=args.kind,
        n=args.n,
        k=args.k,
        seed=args.seed,
        coordinate_range=args.range,
        segments_per_curve=args.segments,
    )
    out = generators.generate(spec)
    if isinstance(out, graphs.CurveFamily):
        sys.stdout.write(fileformat.dump_family(out))
    else:
        sys.stdout.write(fileformat.dump_curves(out))
    return 0


def cmd_plant(args) -> int:
    from . import fileformat, generators

    family, witness = generators.plant_configuration(
        f"type{args.type}", args.k, args.seed
    )
    sys.stdout.write(fileformat.dump_family(family))
    print(f"# {witness.serialize()}")
    return 0


def cmd_split(args) -> int:
    from pathlib import Path

    from . import fileformat, geometry

    curves = fileformat.load_curves(_read_text(args.file))
    lefts, rights = [], []
    for c in curves:
        left, right = geometry.split_at_y_axis(c)
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


EXPERIMENT_HEADER = "\t".join(
    "instance n kind seed omega chi_exact chi_dsatur chi_firstfit max_layer_chi wall_time_ms".split()
)


def run_experiment(
    kind: str,
    n: int,
    trials: int,
    seed: int,
    k: int = 0,
    budget: int | None = None,
    with_times: bool = False,
) -> list[tuple]:
    """One row per trial, its fields in EXPERIMENT_HEADER's order.  The
    chi_exact field is None when the budget ran out, and wall_time_ms is
    None unless with_times."""
    import time

    from . import coloring, generators, graphs, lemmas

    rows = []
    for t in range(trials):
        instance_seed = seed + t
        started = time.perf_counter()
        spec = generators.GenSpec(kind=kind, n=n, k=k, seed=instance_seed)
        out = generators.generate(spec)
        if isinstance(out, graphs.CurveFamily):
            graph = graphs.build_intersection_graph(out)
        else:
            graph = graphs.intersection_graph_of_curves(out)
        w, _ = coloring.omega_exact(graph)
        try:
            chi = coloring.chi_exact(graph, budget)[0]
        except BudgetExceeded:
            chi = None
        dsat = coloring.chi_heuristic(graph, "dsatur")[0]
        fit = coloring.chi_heuristic(graph, "firstfit")[0]
        layers = lemmas.distance_layers(graph, graph.vertices[0])
        _, layer_chi = lemmas.max_layer_chi(graph, layers, budget)
        ms = int((time.perf_counter() - started) * 1000) if with_times else None
        rows.append((t, graph.n, kind, instance_seed, w, chi, dsat, fit, layer_chi, ms))
    return rows


def cmd_experiment(args) -> int:
    rows = run_experiment(
        args.kind, args.n, args.trials, args.seed, args.k, args.budget, args.times
    )
    print(EXPERIMENT_HEADER)
    by_omega: dict[int, int] = {}
    for row in rows:
        print("\t".join("" if field is None else str(field) for field in row))
        w, chi, dsat = row[4:7]
        by_omega[w] = max(by_omega.get(w, 0), dsat if chi is None else chi)
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
    p.add_argument("--cap", type=int, default=DEFAULT_DETECT_CAP)

    p = with_file(add("shortcheck", cmd_shortcheck, help="sandwiched-curve endpoint check"))
    p.add_argument("--k", type=int, default=None, help="clique size (default: 2..4)")

    p = add("gen", cmd_gen, help="generate a seeded family")
    p.add_argument("--kind", required=True, choices=list(GEN_KINDS))
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
    p.add_argument("--kind", required=True, choices=list(GEN_KINDS))
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


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        # built on the first call rather than at import, then reused:
        # parsing leaves the parser unchanged
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
