"""Exact-geometry and graph-coloring lab for simple families of
x-monotone right-flag curves: rational curve predicates, ordered
intersection graphs, exact coloring and clique solvers, lemma machinery,
configuration detection, and seeded generators.

Importing the package loads no submodule: each public name imports its
defining submodule on first access (PEP 562), so a command pays only for
the modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule; each submodule name is public too
_SOURCES = {
    name: module
    for module, names in {
        "coloring": "ChainPartition CliqueWitness Coloring chi_exact chi_heuristic"
        " dilworth_chain_partition omega_exact",
        "configurations": "ConfigWitness detect_config short_check verify_witness",
        "errors": "BudgetExceeded DegenerateCurve EmptySubset GenerationFailed InvalidFamily"
        " InvalidFileFormat KTooSmall NotAPoset NotCrossing NotCrossingAxis"
        " PreconditionFailed XmcurvesError",
        "fileformat": "dump_curves dump_family load_curves load_family",
        "generators": "GenSpec generate plant_configuration",
        "geometry": "Arc PairContact Point PolyCurve ValidationReport Violation"
        " crossing_points curve pair_contacts pt split_at_y_axis validate_family",
        "graphs": "CurveFamily OrderedGraph build_intersection_graph"
        " intersection_graph_of_curves min_right_end_x",
        "lemmas": "AlphaSequence ArcAnalysis DistanceLayers PairDecomposition"
        " ThresholdSchedule alpha_sequence arc_analysis decompose_around_pair"
        " distance_layers extract_gap_subgraph isolation_check max_layer_chi"
        " remove_neighbors threshold_schedule",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    # not cached here: a rebound submodule attribute is seen at once
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_SOURCES[name]}")
    return module if name == _SOURCES[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
