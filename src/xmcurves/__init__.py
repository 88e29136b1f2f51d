"""Exact-geometry and graph-coloring lab for simple families of
x-monotone right-flag curves: rational curve predicates, ordered
intersection graphs, exact coloring and clique solvers, lemma machinery,
configuration detection, and seeded generators."""

from .coloring import (
    ChainPartition,
    CliqueWitness,
    Coloring,
    chi_exact,
    chi_heuristic,
    dilworth_chain_partition,
    omega_exact,
)
from .configurations import ConfigWitness, detect_config, short_check, verify_witness
from .errors import (
    BudgetExceeded,
    DegenerateCurve,
    EmptySubset,
    GenerationFailed,
    InvalidFamily,
    InvalidFileFormat,
    KTooSmall,
    NotAPoset,
    NotCrossing,
    NotCrossingAxis,
    PreconditionFailed,
    XmcurvesError,
)
from .fileformat import dump_curves, dump_family, load_curves, load_family
from .generators import GenSpec, generate, plant_configuration
from .geometry import (
    Arc,
    PairContact,
    Point,
    PolyCurve,
    ValidationReport,
    Violation,
    crossing_points,
    curve,
    pair_contacts,
    pt,
    split_at_y_axis,
    validate_family,
)
from .graphs import (
    CurveFamily,
    OrderedGraph,
    build_intersection_graph,
    intersection_graph_of_curves,
    min_right_end_x,
)
from .lemmas import (
    AlphaSequence,
    ArcAnalysis,
    DistanceLayers,
    PairDecomposition,
    ThresholdSchedule,
    alpha_sequence,
    arc_analysis,
    decompose_around_pair,
    distance_layers,
    extract_gap_subgraph,
    isolation_check,
    max_layer_chi,
    remove_neighbors,
    threshold_schedule,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
