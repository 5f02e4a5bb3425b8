"""Polyhedral cone geometry: face sections, simplicial partitions.

A cone {x : Cx >= 0} is cut by each closed orthant and by the unit l1
sphere; inside one orthant the l1 norm is linear, so every such section is
a polytope whose vertices are the l1-normalized extreme rays of the
orthant piece.  Sections are built in exact integer arithmetic: each
extreme ray is the integer null vector of n-1 primitive integer rows, kept
with the rows tight at it, and a section with more vertices than its
affine dimension plus one is cut by a pulling triangulation of those tight
sets (no qhull), so downstream code only ever sees simplices.

One function cuts every section: a face of the cone is named by the tuple
of cone rows tight on it, () for the cone itself, and its cells come from
the rays of each orthant piece at which all of those rows are tight.
section_table holds the cells of () and of each single row (i,), each
with the id of the closed orthant it lies in.  The cells keep their
vertices as Fractions, and the table of a cone is built once per process,
cached by the cone's primitive integer rows, and read-only.

Refinement is exact longest-edge bisection.  Every cell lies in one
closed orthant, where the l1 norm is linear, so the midpoint of an edge is
on the l1 sphere without renormalization; the cells of a refined
partition cover its parent exactly, and the partition diameter goes to
zero.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import InputError, NumericalError
# unused here; perfbench/tracing.py patches `solve` on this module by name
from .linprog import solve  # noqa: F401

MAX_ORTHANT_DIMENSION = 12  # 2^n orthant enumeration; cost is exponential in n


@dataclass
class PolyhedralCone:
    """Cone {x : Cx >= 0}; rows are stored exactly as given.

    An empty row block (m = 0) means the whole space.  rows holds C's rows
    as tuples of floats, for checks at one point without numpy.
    """

    C: np.ndarray
    dimension: int
    rows: tuple[tuple[float, ...], ...]

    def __init__(self, C, dimension: int | None = None):
        C = np.asarray(C, dtype=float)
        if C.size == 0:
            if dimension is None:
                raise InputError("dimension required for a row-free cone")
            C = C.reshape(0, dimension)
        if C.ndim != 2:
            raise InputError("C must be a matrix")
        if dimension is not None and C.shape[1] != dimension:
            raise InputError(
                f"C has {C.shape[1]} columns, expected {dimension}")
        for i, row in enumerate(C):
            if not np.any(row):
                raise InputError(f"zero row {i + 1} in cone matrix")
        self.C = C
        self.dimension = C.shape[1]
        self.rows = tuple(map(tuple, C.tolist()))

    @property
    def num_rows(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Simplex:
    """Simplex on the l1 sphere: convex hull of affinely independent vertices.

    points holds the exact vertices; vertices is their float view, each
    coordinate correctly rounded, derived once per cell.
    """

    points: tuple[tuple[Fraction, ...], ...]
    vertices: tuple[tuple[float, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(
            tuple(map(float, p)) for p in self.points))

    @staticmethod
    def from_rows(rows) -> "Simplex":
        """The simplex whose vertices are the exact values of rows."""
        return Simplex(tuple(tuple(map(Fraction, row)) for row in rows))

    @property
    def num_vertices(self) -> int:
        return len(self.points)

    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)


def bisect_longest_edge(simplex: Simplex) -> tuple[Simplex, Simplex]:
    """Split at the exact midpoint (a + b)/2 of the longest edge.

    Edges compare by exact squared length, ties going to the lowest
    vertex-index pair.  The simplex lies in one closed orthant, so the
    midpoint is on the l1 sphere as it is.  Singleton simplices cannot be
    refined.
    """
    P = simplex.points
    if len(P) < 2:
        raise NumericalError("cannot refine a singleton simplex")
    i, j = max(itertools.combinations(range(len(P)), 2), key=lambda e: sum(
        (a - b) ** 2 for a, b in zip(P[e[0]], P[e[1]])))
    mid = (tuple((a + b) / 2 for a, b in zip(P[i], P[j])),)
    return Simplex(P[:j] + mid + P[j + 1:]), Simplex(P[:i] + mid + P[i + 1:])


@dataclass
class SimplicialPartition:
    """Cells covering a parent simplex with pairwise disjoint interiors."""

    parent: Simplex
    cells: list[Simplex] = field(default_factory=list)

    def __post_init__(self):
        if not self.cells:
            self.cells = [self.parent]

    def refine_cells(self, indices) -> "SimplicialPartition":
        """Bisect the listed cells once each; other cells are kept."""
        chosen = set(int(i) for i in indices)
        new_cells: list[Simplex] = []
        for i, cell in enumerate(self.cells):
            if i in chosen and cell.num_vertices >= 2:
                a, b = bisect_longest_edge(cell)
                new_cells.extend([a, b])
            else:
                new_cells.append(cell)
        return SimplicialPartition(self.parent, new_cells)

    def refine_all(self) -> "SimplicialPartition":
        return self.refine_cells(range(len(self.cells)))


# -- orthant and face sections -------------------------------------------------


def _coprime(ints) -> tuple[int, ...]:
    g = math.gcd(*ints) or 1
    return tuple(a // g for a in ints)


def _primitive(row) -> tuple[int, ...]:
    """The coprime integer row with the direction of the exact stored floats."""
    fracs = [Fraction(float(v)) for v in row]
    den = math.lcm(*(f.denominator for f in fracs))
    return _coprime([int(f * den) for f in fracs])


def _echelon(rows) -> list[tuple[int, tuple[int, ...]]]:
    """Fraction-free Gauss-Jordan form of integer rows: (pivot, row) pairs."""
    done, todo = [], [r for r in rows if any(r)]
    while todo:
        p = todo.pop()
        col = next(j for j, a in enumerate(p) if a)

        def clear(r):
            return _coprime([a * p[col] - r[col] * b for a, b in zip(r, p)])

        todo = [r for r in map(clear, todo) if any(r)]
        done = [(c, clear(r)) for c, r in done] + [(col, p)]
    return done


def _rank(vectors) -> int:
    return len(_echelon(vectors))


def _null_ray(rows, n: int) -> tuple[int, ...] | None:
    """Primitive integer null vector of n-1 rows; None when their rank is lower."""
    done = _echelon(rows)
    if len(done) != n - 1:
        return None
    free = (set(range(n)) - {c for c, _ in done}).pop()
    scale = math.lcm(*(r[c] for c, r in done))
    x = [0] * n
    x[free] = scale
    for c, r in done:
        x[c] = -r[free] * (scale // r[c])
    return _coprime(x)


def _l1_point(ray) -> tuple[Fraction, ...]:
    norm = sum(abs(a) for a in ray)
    return tuple(Fraction(a, norm) for a in ray)


def _pieces(cone_rows: tuple[tuple[int, ...], ...], n: int):
    """Orthant pieces with interior, as (orthant id, rays, tight) triples.

    A ray is the primitive null vector of n-1 rows; rays are sorted by their
    exact l1 points, and tight[k] holds the rows tight at ray k (cone rows,
    then sign rows).  The cone and face sections all start here.
    """
    if n > MAX_ORTHANT_DIMENSION:
        raise InputError(
            f"dimension {n} exceeds the orthant-enumeration cap "
            f"{MAX_ORTHANT_DIMENSION}")
    pieces = []
    for oid, signs in enumerate(itertools.product((1, -1), repeat=n)):
        rows = cone_rows + tuple(tuple(s * (j == k) for j in range(n))
                                 for k, s in enumerate(signs))
        rays = {}
        for combo in itertools.combinations(rows, n - 1):
            u = _null_ray(combo, n)
            if u is None:
                continue
            dots = [sum(map(operator.mul, row, u)) for row in rows]
            if min(dots) < 0:
                u, dots = tuple(-a for a in u), [-d for d in dots]
            if min(dots) >= 0:
                rays[u] = frozenset(i for i, d in enumerate(dots) if d == 0)
        # a pointed piece has interior exactly when its rays span R^n; a
        # thinner piece lies in the pieces of neighboring orthants
        if _rank(list(rays)) == n:
            order = tuple(sorted(rays, key=_l1_point))
            pieces.append((oid, order, tuple(rays[r] for r in order)))
    return tuple(pieces)


def _pull(rays, tight, members: tuple[int, ...], rank: int
          ) -> list[tuple[int, ...]]:
    """Pulling triangulation of the face spanned by rays[members].

    Cones from the first member over the facets that miss it, each pulled
    the same way; a facet is the set of members tight at one row whose
    rank is one less than rank, the rank of the face's rays.
    """
    if len(members) == rank:
        return [members]
    facets = {tuple(m for m in members if row in tight[m])
              for m in members for row in tight[m] - tight[members[0]]}
    return [members[:1] + cell for facet in facets
            if _rank([rays[m] for m in facet]) == rank - 1
            for cell in _pull(rays, tight, facet, rank - 1)]


def _cells(rays, tight, members: tuple[int, ...], rank: int) -> list[Simplex]:
    return [Simplex.from_rows(_l1_point(rays[k]) for k in cell)
            for cell in sorted(_pull(rays, tight, members, rank))]


def _face_cells(pieces, rows: tuple[int, ...]
                ) -> tuple[tuple[int, Simplex], ...]:
    """Cells of the face of the cone where the cone rows `rows` (0-based)
    are tight, as (orthant id, simplex) pairs; rows = () gives the cells
    of the whole cone.

    The face is cut by the orthant pieces with interior, each part keeping
    the id of the first piece it comes from, whose closed orthant holds
    it; a part of lower rank than the largest lies inside the others, and
    a part on an orthant boundary can come from two pieces, so both are
    dropped.
    """
    parts = {}
    for oid, rays, tight in pieces:
        members = tuple(k for k, t in enumerate(tight) if t.issuperset(rows))
        if members:
            parts.setdefault(frozenset(rays[k] for k in members), (
                oid, rays, tight, members, _rank([rays[k] for k in members])))
    top = max((part[-1] for part in parts.values()), default=0)
    return tuple((oid, cell) for oid, *part in parts.values()
                 if part[-1] == top for cell in _cells(*part))


@functools.lru_cache(maxsize=16)
def _build(cone_rows: tuple[tuple[int, ...], ...], n: int):
    """The section table of the cone with these primitive rows: built once
    per process and shared, so read-only."""
    pieces = _pieces(cone_rows, n)
    return MappingProxyType({rows: _face_cells(pieces, rows) for rows in
                             [(), *((i,) for i in range(len(cone_rows)))]})


def section_table(cone: PolyhedralCone) -> Mapping[
        tuple[int, ...], tuple[tuple[int, Simplex], ...]]:
    """The l1-sphere sections of the cone and of each face, as simplices.

    Keys are the tuples of cone rows (0-based) tight on a face: () for the
    cone itself, then (i,) for each row i.  Each value holds the face's
    (orthant id, simplex) pairs, every simplex inside that closed orthant;
    one orthant can contribute several simplices when its section needs
    triangulation.  Orthants whose intersection with the cone has empty
    interior are omitted, so an empty () entry signals that the cone
    itself has empty interior (a trivial problem).
    """
    return _build(tuple(_primitive(row) for row in cone.C), cone.dimension)


def dump_partition_lines(partitions: list[SimplicialPartition]) -> list[str]:
    """One line per cell: vertices semicolon-separated, coordinates comma-separated."""
    lines = []
    for part in partitions:
        for cell in part.cells:
            lines.append(";".join(
                ",".join(repr(c) for c in v) for v in cell.vertices))
    return lines
