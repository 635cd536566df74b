"""Exact arithmetic references for the tests, standard library only.

Each helper computes with fractions.Fraction and rounds once to a float,
so a test that uses one checks rsskit's float arithmetic against the
correctly rounded value instead of repeating that arithmetic.  Nothing in
src/ imports this module.
"""
import math
from fractions import Fraction


def square(x) -> float:
    """x * x correctly rounded to a float, inf where that overflows."""
    try:
        return float(Fraction(x) ** 2)
    except OverflowError:
        return math.inf
