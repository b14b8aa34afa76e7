"""Recombination walks on tripartitions of a triangular lattice region.

The package has three layers: exact geometry and partition predicates
(`lattice`, `partition`, `moves`), a brute-force enumeration oracle for small
regions (`oracle`), and a constructive engine that routes any two window
states to each other through verified recombination steps (`toolkit`,
`pathfinder`).  The `cli` module exposes the same operations as the
`trirecom` command.

The top level re-exports only the quick-start names and the ones the
benchmark drives; everything else is imported from its submodule.
"""

from .lattice import build_region
from .moves import apply_flip, flip_valid
from .oracle import build_state_graph, enumerate_omega
from .partition import Partition, ground_state, in_omega
from .pathfinder import PathError, Trace, path, verify_trace

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "PathError",
    "Trace",
    "apply_flip",
    "build_region",
    "build_state_graph",
    "enumerate_omega",
    "flip_valid",
    "ground_state",
    "in_omega",
    "path",
    "verify_trace",
]
