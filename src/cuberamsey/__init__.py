"""Colorings of subset cubes, structural property checks with witnesses,
and exhaustive certified searches for monochromatic subcube copies."""

__version__ = "0.1.0"

from .bruteforce import (
    BruteForceResult,
    RamseyScan,
    copy_image_masks,
    exists_good_coloring,
    ramsey_bruteforce,
)
from .coloring import (
    Color,
    Coloring,
    ColoringFormatError,
    SetFamily,
    dual_coloring,
    load_coloring,
    make_c0,
    make_c3,
    make_layered,
    parse_coloring,
    render_coloring,
    save_coloring,
)
from .flipgraph import (
    FlipGraph,
    FlipGraphReport,
    build_flip_graph,
    check_bipartition,
    export_edges,
)
from .lattice import (
    CapacityError,
    ElementSet,
    parse_set,
)
from .properties import (
    PropertyReport,
    RestrictiveReport,
    is_flip_susceptible,
    is_restrictive,
)
from .search import (
    Embedding,
    SearchOutcome,
    find_copy,
    verify_embedding,
)

__all__ = [
    "__version__",
    "BruteForceResult",
    "CapacityError",
    "Color",
    "Coloring",
    "ColoringFormatError",
    "ElementSet",
    "Embedding",
    "FlipGraph",
    "FlipGraphReport",
    "PropertyReport",
    "RamseyScan",
    "RestrictiveReport",
    "SearchOutcome",
    "SetFamily",
    "build_flip_graph",
    "check_bipartition",
    "copy_image_masks",
    "dual_coloring",
    "exists_good_coloring",
    "export_edges",
    "find_copy",
    "is_flip_susceptible",
    "is_restrictive",
    "load_coloring",
    "make_c0",
    "make_c3",
    "make_layered",
    "parse_coloring",
    "parse_set",
    "ramsey_bruteforce",
    "render_coloring",
    "save_coloring",
    "verify_embedding",
]
