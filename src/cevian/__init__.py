"""Triangle and tetrahedron centers as normalized vertex weights, with
closed-form metrics in side/edge lengths and a coordinate oracle to certify
them."""

__version__ = "0.1.0"

from .core_model import (  # noqa: F401
    Components,
    GeometryError,
    IRVector3,
    PowerIncenter,
    TetraEdges,
    Tolerance,
    TriangleSides,
    validate_tetrahedron,
    validate_triangle,
)
