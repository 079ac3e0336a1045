"""Toolkit for mod-p representation fingerprints of elliptic curves over Q."""

from .arith import Factorization, factor, legendre_symbol, valuation
from .weierstrass import WeierstrassModel, invariants, minimal_model, parse_curve
from .tate import LocalData, conductor, tate_local
from .frobenius import ap

__all__ = [
    "Factorization", "factor", "legendre_symbol", "valuation",
    "WeierstrassModel", "invariants", "minimal_model", "parse_curve",
    "LocalData", "conductor", "tate_local", "ap",
]
