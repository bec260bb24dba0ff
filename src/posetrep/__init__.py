"""posetrep: exact representations of finite posets.

Core layers: poset combinatorics (poset), exact linear algebra (linalg),
the category of S-spaces (sspace), restriction/induction/coinduction and
projectivization (functors), the two differentiation algorithms
(differentiation), and a brute-force census oracle (oracle).
"""

from .linalg import Field, Matrix, QQ, Subspace
from .poset import Poset, derived_carrier
from .sspace import SMorphism, SSpace, hom_space

__all__ = [
    "Field", "Matrix", "QQ", "Subspace",
    "Poset", "derived_carrier",
    "SMorphism", "SSpace", "hom_space",
]
