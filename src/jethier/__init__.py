"""jethier: exact variational calculus on jet spaces and hierarchy deformations.

Submodules by function:

  jetcalc   exact Laurent differential polynomials, derivations, hbar series
  diffop    matrix differential operators and (quasi-)Miura conjugation
  genus0    dispersionless tables from a Hessian via the descendant recursion
  givental  symmetry generators and first-order deformations of the tables
  bracket   Poisson-operator deformations, residual and homogeneity checks
  kdvbase   the explicit KdV base point and its tensor powers
  suites    named verification suites shared by the CLI and the tests
  cli       command-line front end (generate | deform | verify | dump)
"""

from .jetcalc import (
    HbarSeries,
    JetPoly,
    NotExact,
    dx,
    evolve,
    formal_integrate,
    rat,
    substitute,
)
from .diffop import (
    DiffOperator,
    MiuraChange,
    adjoint,
    apply_op,
    compose,
    conjugate_by_miura,
    is_skew,
)
from .genus0 import Genus0Data, NotClosed, trr_extend
from .givental import GiventalGen, InconsistentTable, OmegaTable
from .kdvbase import OutOfDerivableRange, kdv_omega_table, quasi_miura

__version__ = "0.1.0"

__all__ = [
    "DiffOperator",
    "Genus0Data",
    "GiventalGen",
    "HbarSeries",
    "InconsistentTable",
    "JetPoly",
    "MiuraChange",
    "NotClosed",
    "NotExact",
    "OmegaTable",
    "OutOfDerivableRange",
    "adjoint",
    "apply_op",
    "compose",
    "conjugate_by_miura",
    "dx",
    "evolve",
    "formal_integrate",
    "is_skew",
    "kdv_omega_table",
    "quasi_miura",
    "rat",
    "substitute",
    "trr_extend",
    "__version__",
]
