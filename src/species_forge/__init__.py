"""Exact-arithmetic Hopf monoids in species, degree by degree.

Combinatorial ground objects (set compositions, decompositions, partitions,
the Tits product), concrete models with products, coproducts and antipodes in
several bases, the Tits algebra of characteristic operations with its
classical idempotents, and series functional calculus; every closed form is
cross-checked against brute-force oracles in the test suite.
"""

from .exactlin import LinComb, LinMap, Rational, SingularMapError
from .kernels import BACKEND
from .species import (
    NotHopfError,
    SpeciesModel,
    UnsupportedOperation,
    dual_model,
    hadamard,
    higher_delta,
    higher_mu,
    orbit_count,
)
from .models import build_model, UnknownModelError

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "LinComb", "LinMap", "Rational", "SingularMapError",
    "SpeciesModel", "NotHopfError", "UnsupportedOperation",
    "dual_model", "hadamard", "higher_mu", "higher_delta", "orbit_count",
    "build_model", "UnknownModelError",
]
