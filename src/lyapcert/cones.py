"""Polyhedral cone geometry: orthant sections, faces, simplicial partitions.

A cone {x : Cx >= 0} is cut by each closed orthant and by the unit l1
sphere; inside one orthant the l1 norm is linear, so every such section is
a polytope whose vertices are the l1-normalized extreme rays of the
orthant piece.  Sections with more vertices than their affine dimension
plus one are triangulated, so downstream code only ever sees simplices.

Refinement is longest-edge bisection with l1 renormalization of the
midpoint; it keeps all partition vertices on the l1 sphere and drives the
partition diameter to zero.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

# unused here; perfbench/tracing.py patches `solve` on this module by name
from .linprog import solve  # noqa: F401

logger = logging.getLogger(__name__)

FEAS_TOL = 1e-9
MAX_ORTHANT_DIMENSION = 12  # 2^n orthant enumeration; cost is exponential in n


class ConeGeometryError(ValueError):
    pass


@dataclass
class PolyhedralCone:
    """Cone {x : Cx >= 0}; rows are stored exactly as given.

    An empty row block (m = 0) means the whole space.
    """

    C: np.ndarray
    dimension: int

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

    @property
    def num_rows(self) -> int:
        return self.C.shape[0]

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.num_rows == 0:
            return True
        return bool((self.C @ x >= -tol).all())


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

    def diameter(self) -> float:
        V = self.vertex_array()
        if len(V) == 1:
            return 0.0
        diffs = V[:, None, :] - V[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def barycentric(x, simplex: Simplex, residual_tol: float = 1e-8) -> np.ndarray:
    """Barycentric coordinates of x with respect to the simplex vertices.

    Least-squares solve of [V^T; 1] lam = [x; 1]; a residual above
    residual_tol means x is outside the affine hull and is an error.
    Coordinates sum to one; they are >= -1e-9 exactly when x is in the
    simplex.
    """
    x = np.asarray(x, dtype=float)
    V = simplex.vertex_array()
    A = np.vstack([V.T, np.ones(len(V))])
    rhs = np.concatenate([x, [1.0]])
    lam, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = np.linalg.norm(A @ lam - rhs)
    if residual > residual_tol:
        raise ConeGeometryError(
            f"point is outside the affine hull (residual {residual:.3e})")
    return lam


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

    def diameter(self) -> float:
        return max((cell.diameter() for cell in self.cells), default=0.0)

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


def _orthant_signs(dimension: int):
    if dimension > MAX_ORTHANT_DIMENSION:
        raise ConeGeometryError(
            f"dimension {dimension} exceeds the orthant-enumeration cap "
            f"{MAX_ORTHANT_DIMENSION}")
    return list(itertools.product((1.0, -1.0), repeat=dimension))


def _extreme_rays(ineq_rows: np.ndarray, eq_rows: np.ndarray,
                  tol: float = 1e-9) -> list[np.ndarray]:
    """Extreme rays of the pointed cone {x : ineq x >= 0, eq x = 0}.

    Enumerates active sets: an extreme ray is the one-dimensional nullspace
    of the equality rows plus n-1-rank(eq) active inequality rows.  Cost is
    combinatorial in the row count, which the orthant cap keeps small.
    """
    n = ineq_rows.shape[1]
    rank_eq = 0
    if eq_rows.size:
        rank_eq = int(np.linalg.matrix_rank(eq_rows, tol=1e-11))
    need = n - 1 - rank_eq
    if need < 0:
        return []
    rays: list[np.ndarray] = []
    seen: set[tuple] = set()
    for combo in itertools.combinations(range(len(ineq_rows)), need):
        block = [eq_rows] if eq_rows.size else []
        if combo:
            block.append(ineq_rows[list(combo)])
        if block:
            mat = np.vstack(block)
        else:
            mat = np.zeros((0, n))
        if mat.shape[0] == 0:
            continue  # need >= 1 whenever n >= 2; n == 1 handled below
        _, sv, vt = np.linalg.svd(mat)
        null_dim = n - int((sv > 1e-11 * max(1.0, sv[0] if sv.size else 1.0)).sum())
        if null_dim != 1:
            continue
        u = vt[-1]
        for cand in (u, -u):
            if (ineq_rows @ cand >= -tol).all() and \
                    (not eq_rows.size or np.abs(eq_rows @ cand).max() <= tol):
                norm1 = float(np.abs(cand).sum())
                if norm1 <= tol:
                    continue
                ray = cand / norm1
                key = tuple(np.round(ray, 11))
                if key not in seen:
                    seen.add(key)
                    rays.append(ray)
    if n == 1:
        for cand in (np.array([1.0]), np.array([-1.0])):
            if (ineq_rows @ cand >= -tol).all() and \
                    (not eq_rows.size or np.abs(eq_rows @ cand).max() <= tol):
                key = tuple(np.round(cand, 11))
                if key not in seen:
                    seen.add(key)
                    rays.append(cand)
    return rays


def _triangulate_vertices(rays: list[np.ndarray]) -> list[Simplex]:
    """Split conv(rays) into simplices; rays are polytope vertices."""
    V = np.array(rays)
    k = len(rays)
    if k == 0:
        return []
    if k == 1:
        return [Simplex.from_rows(V)]
    base = V[0]
    diffs = V[1:] - base
    u, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    dim = int((sv > 1e-10 * max(1.0, sv[0])).sum())
    if k == dim + 1:
        return [Simplex.from_rows(V)]
    frame = vt[:dim]
    coords = (V - base) @ frame.T
    if dim == 1:
        order = np.argsort(coords[:, 0])
        return [Simplex.from_rows(V[[order[i], order[i + 1]]])
                for i in range(k - 1)]
    from scipy.spatial import Delaunay

    tri = Delaunay(coords, qhull_options="QJ")
    cells = []
    for simplex_idx in sorted(tuple(sorted(s)) for s in tri.simplices):
        sub = V[list(simplex_idx)]
        d = np.linalg.matrix_rank(sub[1:] - sub[0], tol=1e-10)
        if d == len(simplex_idx) - 1:
            cells.append(Simplex.from_rows(sub))
    return cells


def cone_orthant_sections(cone: PolyhedralCone
                          ) -> list[tuple[int, Simplex]]:
    """l1-sphere sections of the cone within each orthant, as simplices.

    Returns (orthant id, simplex) pairs; one orthant can contribute several
    simplices when its section needs triangulation.  Orthants whose
    intersection has empty interior are omitted; an empty result signals
    that the cone itself has empty interior in every orthant (a trivial
    problem).
    """
    n = cone.dimension
    sections: list[tuple[int, Simplex]] = []
    for oid, signs in enumerate(_orthant_signs(n)):
        ineq = np.vstack([cone.C, np.diag(signs)]) if cone.num_rows \
            else np.diag(signs)
        rays = _extreme_rays(ineq, np.zeros((0, n)))
        # the orthant piece is pointed, so it has interior exactly when its
        # extreme rays span R^n; a thinner piece reappears in a neighbor
        if not rays or \
                np.linalg.matrix_rank(np.array(rays), tol=FEAS_TOL) < n:
            continue
        rays.sort(key=lambda r: tuple(np.round(r, 11)))
        for cell in _triangulate_vertices(rays):
            sections.append((oid, cell))
    return sections


def face_sections(cone: PolyhedralCone, face_index: int) -> list[Simplex]:
    """l1 sections of the face {x in K : (Cx)_i = 0} across orthants.

    face_index is 1-based to match the row numbering of C.  Duplicate
    sections arising from points shared by adjacent orthants are removed.
    """
    if not 1 <= face_index <= cone.num_rows:
        raise ConeGeometryError(f"face index {face_index} out of range")
    n = cone.dimension
    eq = cone.C[face_index - 1].reshape(1, n)
    keyed: list[tuple[frozenset, Simplex]] = []
    seen: set[frozenset] = set()
    for signs in _orthant_signs(n):
        ineq = np.vstack([cone.C, np.diag(signs)])
        rays = _extreme_rays(ineq, eq)
        if not rays:
            continue
        rays.sort(key=lambda r: tuple(np.round(r, 11)))
        for cell in _triangulate_vertices(rays):
            key = frozenset(tuple(np.round(np.array(v), 10)) for v in cell.vertices)
            if key not in seen:
                seen.add(key)
                keyed.append((key, cell))
    # orthant-boundary traces duplicate part of an adjacent full piece;
    # drop any section whose vertex set is contained in another's
    out = [cell for key, cell in keyed
           if not any(key < other for other, _ in keyed)]
    return out


def dump_partition_lines(partitions: list[SimplicialPartition]) -> list[str]:
    """One line per cell: vertices semicolon-separated, coordinates comma-separated."""
    lines = []
    for part in partitions:
        for cell in part.cells:
            lines.append(";".join(
                ",".join(repr(c) for c in v) for v in cell.vertices))
    return lines
