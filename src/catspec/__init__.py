"""Numerical resonance spectra for time-changed cat-map suspension flows."""

from .model import BasePoint, CatMap, MappingTorusFlow, TimeChange
from .cotangent import CotangentPoint
from .escape import EscapeFunction, OrderParams

__all__ = [
    "BasePoint",
    "CatMap",
    "CotangentPoint",
    "EscapeFunction",
    "MappingTorusFlow",
    "OrderParams",
    "TimeChange",
]

__version__ = "0.1.0"
