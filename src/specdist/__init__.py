"""Spectral distances between paths, cycles and the snake trees Z_n, W_n."""

from .distance import (
    DistanceReport,
    check_additivity,
    crossover_index,
    distance_report,
    pattern_mismatch,
    sigma,
    sigma_closed,
    sigma_direct,
)
from .eigensolver import ACTIVE_BACKEND, available_backends, symmetric_eigenvalues
from .graphs import (
    Family,
    FamilySpec,
    Graph,
    adjacency_matrix,
    build_cycle,
    build_family,
    build_path,
    build_w,
    build_z,
    coalesce,
    from_edge_list_text,
    to_edge_list_text,
)
from .limits import (
    L_STAR,
    LimitEstimate,
    alternating_sum,
    default_grid,
    richardson_extrapolate,
    sequence_scan,
    target_constant,
)
from .spectra import (
    closed_spectrum,
    numeric_spectrum,
    spectrum_deviation,
    spectrum_to_csv,
)

__version__ = "0.1.0"
