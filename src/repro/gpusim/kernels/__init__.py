"""GPU search kernels: literal SIMT generators plus one vectorised
descent per I-segment layout."""

from repro.gpusim.kernels.frontier_search import (
    FRONTIER,
    KERNELS,
    PER_QUERY,
    frontier_search_kernel,
    launch_frontier_search,
    validate_kernel,
    validate_level_geometry,
)
from repro.gpusim.kernels.implicit_search import (
    implicit_search_kernel,
    implicit_descend,
    launch_implicit_search,
)
from repro.gpusim.kernels.regular_search import (
    launch_regular_search,
    regular_search_kernel,
    regular_search_vectorized,
)

__all__ = [
    "FRONTIER",
    "KERNELS",
    "PER_QUERY",
    "frontier_search_kernel",
    "launch_frontier_search",
    "validate_kernel",
    "validate_level_geometry",
    "implicit_search_kernel",
    "implicit_descend",
    "launch_implicit_search",
    "regular_search_kernel",
    "regular_search_vectorized",
    "launch_regular_search",
]
