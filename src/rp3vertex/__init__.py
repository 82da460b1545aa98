"""Exact topological-vertex partition functions for colored unknots and
Hopf links on the square toric geometry, with the one-parameter refinement.
"""

from .partitions import (EMPTY, Partition, enumerate_up_to, parse_partition,
                         partitions_of)
from .ring import (ExpansionError, KahlerSeries, Laurent, QSeries,
                   RationalFunction, expand, series_divide)
from .specialize import (Alphabet, complete_homogeneous, macdonald_p_at_rho,
                         macdonald_tilde_z, principal, skew_schur)
from .vertex import framing_refined, framing_regular
from .amplitude import (AmplitudeSpec, closed_amplitude, normalize,
                        normalized_amplitude, open_amplitude)

__version__ = "0.1.0"

__all__ = [
    "EMPTY", "Partition", "enumerate_up_to", "parse_partition",
    "partitions_of",
    "ExpansionError", "KahlerSeries", "Laurent", "QSeries",
    "RationalFunction", "expand", "series_divide",
    "Alphabet", "complete_homogeneous", "macdonald_p_at_rho",
    "macdonald_tilde_z", "principal", "skew_schur",
    "framing_refined", "framing_regular",
    "AmplitudeSpec", "closed_amplitude", "normalize", "normalized_amplitude",
    "open_amplitude",
    "__version__",
]
