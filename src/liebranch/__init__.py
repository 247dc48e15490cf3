"""Exact computations with simple Lie algebras.

Modules cover root-system combinatorics, Chevalley bases with integer
structure constants, explicit reductive subalgebra embeddings,
sphericity tests for flag varieties, weight-multiplicity and branching
computations, and a command line front end.
"""

from .branching import discover_generators, load_rules, verify_rule
from .characters import (
    decompose,
    dominant_character,
    module_dimension,
    multiplicity_of,
    restrict_collapsed,
)
from .embeddings import load_catalog
from .rootsys import LieError, RootSystem, SimpleType, TypeSpec, root_system
from .sphericity import SphericitySetup, classify_group, classify_pair, flag_dimension

__version__ = "0.1.0"

__all__ = [
    "LieError",
    "RootSystem",
    "SimpleType",
    "SphericitySetup",
    "TypeSpec",
    "classify_group",
    "classify_pair",
    "decompose",
    "discover_generators",
    "dominant_character",
    "flag_dimension",
    "load_catalog",
    "load_rules",
    "module_dimension",
    "multiplicity_of",
    "restrict_collapsed",
    "root_system",
    "verify_rule",
]
