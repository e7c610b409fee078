"""Toolkit for a conditional knowing-how modality over labelled transition
systems: formula parsing and evaluation, uniform plan search and
verification, Hilbert-style proof checking, and bounded countermodel
search."""

from . import modelgen, models, planning, proofs, semantics, syntax
from .modelgen import *
from .models import *
from .planning import *
from .proofs import *
from .semantics import *
from .syntax import *

__version__ = "0.1.0"

__all__ = [
    "__version__", *syntax.__all__, *models.__all__, *planning.__all__,
    *semantics.__all__, *proofs.__all__, *modelgen.__all__,
]
