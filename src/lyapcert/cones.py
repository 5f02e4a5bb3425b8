"""Polyhedral cone geometry: orthant sections, faces, simplicial partitions.

A cone {x : Cx >= 0} is cut by each closed orthant and by the unit l1
sphere; inside one orthant the l1 norm is linear, so every such section is
a polytope whose vertices are the l1-normalized extreme rays of the
orthant piece.  Sections are built in exact integer arithmetic: each
extreme ray is the integer null vector of n-1 primitive integer rows, kept
with the rows tight at it, and a section with more vertices than its
affine dimension plus one is cut by a pulling triangulation of those tight
sets (no qhull), so downstream code only ever sees simplices.

Refinement is longest-edge bisection with l1 renormalization of the
midpoint; it keeps all partition vertices on the l1 sphere and drives the
partition diameter to zero.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# unused here; perfbench/tracing.py patches `solve` on this module by name
from .linprog import solve  # noqa: F401

MAX_ORTHANT_DIMENSION = 12  # 2^n orthant enumeration; cost is exponential in n


class ConeGeometryError(ValueError):
    pass


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
                raise ConeGeometryError("dimension required for a row-free cone")
            C = C.reshape(0, dimension)
        if C.ndim != 2:
            raise ConeGeometryError("C must be a matrix")
        if dimension is not None and C.shape[1] != dimension:
            raise ConeGeometryError(
                f"C has {C.shape[1]} columns, expected {dimension}")
        for i, row in enumerate(C):
            if not np.any(row):
                raise ConeGeometryError(f"zero row {i + 1} in cone matrix")
        self.C = C
        self.dimension = C.shape[1]
        self.rows = tuple(map(tuple, C.tolist()))

    @property
    def num_rows(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Simplex:
    """Simplex on the l1 sphere: convex hull of affinely independent vertices."""

    vertices: tuple[tuple[float, ...], ...]

    @staticmethod
    def from_rows(rows) -> "Simplex":
        # adding 0.0 normalizes -0.0, keeping vertex text deterministic
        return Simplex(tuple(tuple(float(v) + 0.0 for v in row) for row in rows))

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=float)


def bisect_longest_edge(simplex: Simplex) -> tuple[Simplex, Simplex]:
    """Split at the midpoint of the longest edge, renormalized to the l1 sphere.

    Ties go to the lowest vertex-index pair.  Singleton simplices cannot be
    refined.
    """
    k = simplex.num_vertices
    if k < 2:
        raise ConeGeometryError("cannot refine a singleton simplex")
    V = simplex.vertex_array()
    best = (-1.0, (0, 1))
    for i, j in itertools.combinations(range(k), 2):
        d = float(np.linalg.norm(V[i] - V[j]))
        if d > best[0] + 1e-15:
            best = (d, (i, j))
    i, j = best[1]
    mid = 0.5 * (V[i] + V[j])
    norm1 = float(np.abs(mid).sum())
    if norm1 <= 0:
        raise ConeGeometryError("degenerate edge midpoint at the origin")
    mid = mid / norm1
    child_a = V.copy()
    child_a[j] = mid
    child_b = V.copy()
    child_b[i] = mid
    return Simplex.from_rows(child_a), Simplex.from_rows(child_b)


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


def _full_pieces(cone: PolyhedralCone):
    return _pieces(tuple(_primitive(row) for row in cone.C), cone.dimension)


@functools.lru_cache(maxsize=16)
def _pieces(cone_rows: tuple[tuple[int, ...], ...], n: int):
    """Orthant pieces with interior, as (orthant id, rays, tight) triples.

    A ray is the primitive null vector of n-1 rows; rays are sorted by their
    exact l1 points, and tight[k] holds the rows tight at ray k (cone rows,
    then sign rows).  Cached: the cone and face sections all start here.
    """
    if n > MAX_ORTHANT_DIMENSION:
        raise ConeGeometryError(
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


def cone_orthant_sections(cone: PolyhedralCone
                          ) -> list[tuple[int, Simplex]]:
    """l1-sphere sections of the cone within each orthant, as simplices.

    Returns (orthant id, simplex) pairs; one orthant can contribute several
    simplices when its section needs triangulation.  Orthants whose
    intersection has empty interior are omitted; an empty result signals
    that the cone itself has empty interior (a trivial problem).
    """
    return [(oid, cell) for oid, rays, tight in _full_pieces(cone)
            for cell in _cells(rays, tight, tuple(range(len(rays))),
                               cone.dimension)]


def face_sections(cone: PolyhedralCone, face_index: int) -> list[Simplex]:
    """l1 sections of the face {x in K : (Cx)_i = 0}, as simplices.

    face_index is 1-based to match the row numbering of C.  The face is
    cut by the orthant pieces with interior; a part of lower rank than the
    largest lies inside the others, and a part on an orthant boundary can
    come from two pieces, so both are dropped.
    """
    if not 1 <= face_index <= cone.num_rows:
        raise ConeGeometryError(f"face index {face_index} out of range")
    parts = {}
    for _, rays, tight in _full_pieces(cone):
        members = tuple(k for k, t in enumerate(tight) if face_index - 1 in t)
        if members:
            parts.setdefault(frozenset(rays[k] for k in members), (
                rays, tight, members, _rank([rays[k] for k in members])))
    top = max((part[3] for part in parts.values()), default=0)
    return [cell for part in parts.values() if part[3] == top
            for cell in _cells(*part)]


def dump_partition_lines(partitions: list[SimplicialPartition]) -> list[str]:
    """One line per cell: vertices semicolon-separated, coordinates comma-separated."""
    lines = []
    for part in partitions:
        for cell in part.cells:
            lines.append(";".join(
                ",".join(repr(c) for c in v) for v in cell.vertices))
    return lines
