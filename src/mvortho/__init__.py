"""Recurrence matrices and stable evaluation for multivariate orthogonal
polynomials with respect to user-supplied discrete measures."""

__version__ = "0.1.0"

from .indexing import MultiIndexSet
from .measures import DiscreteMeasure
from .recurrence import RecurrenceData
from .evaluation import BasisEvaluation, evaluate, to_canonical
from .tensor_product import tensor_recurrence
from .stieltjes import stieltjes_recurrence

__all__ = [
    "BasisEvaluation",
    "DiscreteMeasure",
    "MultiIndexSet",
    "RecurrenceData",
    "evaluate",
    "stieltjes_recurrence",
    "tensor_recurrence",
    "to_canonical",
]
