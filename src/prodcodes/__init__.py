"""Finite-field laboratory for product codes: exact GF(p^e) linear algebra,
Reed-Solomon and evaluation codes, chain complexes and subsystem products,
product-expansion oracles, dual-tensor and quantum decoders, and machine
verification of transversal multi-controlled-Z gates."""

__version__ = "0.1.0"

from .gf import GF, Field
from .codes import LinearCode, ReedSolomon, EvalCode
from .subsystem import CssPair
from .complexes import SingleSectorComplex

__all__ = [
    "GF", "Field", "LinearCode", "ReedSolomon", "EvalCode", "CssPair",
    "SingleSectorComplex",
    "__version__",
]
