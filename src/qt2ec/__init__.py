"""Edge-equivalence classes, quasi-transitive 2-edge-colourings, and
quasi-transitive orientations of undirected simple graphs.

The package has two halves.  The fast path (``graph``, ``classes``,
``colouring``, ``orientation``, ``families``, ``errors`` and the CLI's
module level) computes; the verification half (``oracle``, ``structure``,
``report``) checks it.  Imports point one way: the verification half
imports the fast path, never the reverse.  The verification names load
on first access, so importing the package does not load the checks.
"""

from importlib import import_module

from .classes import EdgeClassPartition, compute_classes
from .colouring import (
    Colourability,
    ColourabilityClass,
    EdgeColouring,
    classify_colourability,
    count_colourings,
    count_homogeneous_witness_classes,
    enumerate_colourings,
    find_homogeneous_witness,
    is_quasi_transitive_colouring,
)
from .errors import (
    ContractError,
    FormatError,
    InfeasibilityError,
    QT2ECError,
    RefusalError,
)
from .graph import (
    Graph,
    encode_graph6,
    format_edge_list,
    induced_p3_edges,
    induced_p3s,
    is_complete_multipartite,
    is_connected,
    is_module_set,
    parse_edge_list,
    parse_graph6,
    to_dot,
)
from .orientation import (
    Orientation,
    OrientationFeasibility,
    enumerate_orientations,
    is_quasi_transitive_orientation,
    orientability,
    partial_orientation,
)

__version__ = "0.1.0"

# The verification half's public names and the modules that hold them.
_LAZY_MODULE = {
    "SweepConfig": "oracle",
    "brute_force_colouring_count": "oracle",
    "brute_force_orientation_count": "oracle",
    "enumerate_labeled_graphs": "oracle",
    "sample_connected_graphs": "oracle",
    "subset_witness_count": "oracle",
    "sweep_records": "oracle",
    "theorem_sweep": "oracle",
    "CheckResult": "report",
    "VerificationReport": "report",
    "ClassPairRelation": "structure",
    "check_crossing_lemmas": "structure",
    "check_tinylemma_instances": "structure",
    "class_pair_relation": "structure",
    "verify_partition_laws": "structure",
}

# The fast path's public names, and the verification half's from _LAZY_MODULE.
__all__ = sorted([
    "Colourability",
    "ColourabilityClass",
    "ContractError",
    "EdgeClassPartition",
    "EdgeColouring",
    "FormatError",
    "Graph",
    "InfeasibilityError",
    "Orientation",
    "OrientationFeasibility",
    "QT2ECError",
    "RefusalError",
    "classify_colourability",
    "compute_classes",
    "count_colourings",
    "count_homogeneous_witness_classes",
    "encode_graph6",
    "enumerate_colourings",
    "enumerate_orientations",
    "find_homogeneous_witness",
    "format_edge_list",
    "induced_p3_edges",
    "induced_p3s",
    "is_complete_multipartite",
    "is_connected",
    "is_module_set",
    "is_quasi_transitive_colouring",
    "is_quasi_transitive_orientation",
    "orientability",
    "parse_edge_list",
    "parse_graph6",
    "partial_orientation",
    "to_dot",
    *_LAZY_MODULE,
])


def __getattr__(name: str) -> object:
    """Load a verification-half name on first access and keep it (PEP 562)."""
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
