"""Computational toolkit for finite relational structures and the
semilattice-collapse constructions built on them.

Modules:
    structures  finite relational structures and combinators
    homsearch   homomorphism search and operation tables
    semilat     partial semilattices, decision procedure, decompositions
    freecons    free algebras, the collapse pipeline, verification suites
    gadget      the hom-set gadget and its component analysis
    identlang   linear identity systems and semilattice interpretations
    cli         command-line front end
"""

__version__ = "0.1.0"

from .structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    StructureError,
    two_element_semilattice,
)
from .homsearch import OperationTable, find_homs, polymorphisms

__all__ = [
    "Homomorphism",
    "OperationTable",
    "Relation",
    "RelationalStructure",
    "StructureError",
    "find_homs",
    "polymorphisms",
    "two_element_semilattice",
    "__version__",
]
