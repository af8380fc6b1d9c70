"""Entanglement detection criteria benchmarked on Haar-random states.

The package samples rank-k bipartite mixed states uniformly under the
Haar measure, applies the partial-transpose, reduction, majorization,
entropy, and realignment criteria plus logarithmic negativity, and
aggregates detection statistics over (d1, d2, k) grids.
"""

# The one source of the version: pyproject.toml and the run manifest read
# it from here, so it is set before the submodules are imported.
__version__ = "0.1.0"

from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    purity,
    realign,
    spectrum,
    trace_norm,
    von_neumann_entropy,
)
from .sampling import sample_chunks, sample_reduced_state, sample_tripartite_pure
from .criteria import CRITERIA, Records, evaluate_state
from .analytics import (
    CriterionStats,
    SweepStats,
    aggregate,
    average_purity,
    entropy_rank_threshold,
    page_entropies,
    realignment_rank_bound,
)
from .harness import SweepConfig, run_cell, run_sweep
