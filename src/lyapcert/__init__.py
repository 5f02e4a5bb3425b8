"""Lyapunov certificates for normal-cone constrained dynamics.

Two certification routes: a linear-programming hierarchy over simplicial
partitions of polyhedral-cone sections, and a sum-of-squares hierarchy with
Putinar multipliers over compact semialgebraic sets.  Both come with an
independent sampling oracle, a projected time-stepping simulator, and a CLI.
"""

from .poly import Polynomial, parse_polynomial, format_polynomial

__all__ = [
    "Polynomial",
    "parse_polynomial",
    "format_polynomial",
]

__version__ = "0.1.0"
