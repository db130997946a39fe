"""Spectral distances between paths, cycles and the snake trees Z_n, W_n.

numpy is imported inside each function that builds or reads an array, not at
the top of any module, so importing the package, the closed forms, the exact
sign patterns and the limit scans never load it: they use Python ints and
math alone.
"""

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
from .eigensolver import ACTIVE_BACKEND, symmetric_eigenvalues
from .graphs import (
    Family,
    FamilySpec,
    Graph,
    adjacency_matrix,
    build_family,
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
