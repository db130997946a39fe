"""Spectral distances between paths, cycles and the snake trees Z_n, W_n.

Importing the package loads only what the closed forms use from the standard
library (math, json, enum, collections and os; specdist.cli loads argparse
only for a command line its grammar table does not read), so the closed
forms, the exact sign patterns and the limit scans run on Python ints and
math alone.  The records are namedtuples: dataclasses
would bring inspect, ast and dis.  numpy is imported inside each function
that builds or reads an array, and sysconfig where the Jacobi kernel is
loaded, both at the first numeric call.
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
from .eigensolver import symmetric_eigenvalues
from .graphs import (
    Family,
    FamilySpec,
    Graph,
    adjacency_matrix,
    build_family,
    family_adjacency,
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
