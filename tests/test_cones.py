import itertools
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lyapcert import cones
from lyapcert.cli import parse_spec
from lyapcert.cones import (PolyhedralCone, Simplex, SimplicialPartition,
                            bisect_longest_edge, dump_partition_lines,
                            section_table)
from lyapcert.errors import InputError, NumericalError
from reference import (cone_contains, face_cells_by_row,
                       orthant_cells_by_pieces, partition_diameter,
                       simplex_diameter)

WEDGE = PolyhedralCone([[-0.25, 1.0], [1.0, -0.25]])


def vertex_set(simplex, digits=9):
    return {tuple(round(v, digits) for v in vert) for vert in simplex.vertices}


# -- orthant sections ------------------------------------------------------------

def test_positive_orthant_single_section():
    secs = section_table(PolyhedralCone(np.eye(2)))[()]
    assert len(secs) == 1
    oid, simplex = secs[0]
    assert vertex_set(simplex) == {(1.0, 0.0), (0.0, 1.0)}


def test_wedge_cone_section_from_extreme_rays():
    secs = section_table(WEDGE)[()]
    assert len(secs) == 1
    _, simplex = secs[0]
    assert vertex_set(simplex) == {(0.8, 0.2), (0.2, 0.8)}


def test_full_plane_four_sections():
    cone = PolyhedralCone(np.zeros((0, 2)), dimension=2)
    secs = section_table(cone)[()]
    assert len(secs) == 4
    for _, simplex in secs:
        V = simplex.vertex_array()
        assert np.allclose(np.abs(V).sum(axis=1), 1.0)


def test_degenerate_cone_reports_empty():
    hyperplane = PolyhedralCone([[1.0, 0.0], [-1.0, 0.0]])
    assert section_table(hyperplane)[()] == ()


def test_square_based_cone_sections_are_triangulated():
    # four extreme rays per orthant piece: each quadrilateral section must
    # arrive as two plain simplices
    cone = PolyhedralCone([[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]])
    secs = section_table(cone)[()]
    per_orthant: dict[int, int] = {}
    for oid, simplex in secs:
        per_orthant[oid] = per_orthant.get(oid, 0) + 1
        assert simplex.num_vertices == 3
        V = simplex.vertex_array()
        assert np.linalg.matrix_rank(V[1:] - V[0]) == 2
        for v in simplex.vertices:
            assert cone_contains(cone, np.array(v), tol=1e-9)
    assert all(count == 2 for count in per_orthant.values())
    assert len(per_orthant) == 4


def test_section_vertices_feasible_and_normalized():
    for cone in (WEDGE, PolyhedralCone(np.eye(3)),
                 PolyhedralCone([[1.0, 1.0, 0.2], [0.3, 1.0, 1.0]])):
        for _, simplex in section_table(cone)[()]:
            for v in simplex.vertices:
                v = np.array(v)
                assert cone_contains(cone, v, tol=1e-9)
                assert abs(np.abs(v).sum() - 1.0) <= 1e-12


def test_extreme_ray_active_sets_scale_invariant():
    for _, simplex in section_table(WEDGE)[()]:
        for v in simplex.vertices:
            v = np.array(v)
            base = np.abs(WEDGE.C @ v) <= 1e-9
            for t in (0.3, 2.0, 17.5):
                scaled = np.abs(WEDGE.C @ (t * v)) <= 1e-9 * t
                assert (base == scaled).all()


# -- face sections -----------------------------------------------------------------

def test_section_table_keys_are_the_tight_rows():
    table = section_table(WEDGE)
    assert list(table) == [(), (0,), (1,)]
    with pytest.raises(TypeError):
        table[(0, 1)] = ()
    plane = PolyhedralCone(np.zeros((0, 2)), dimension=2)
    assert list(section_table(plane)) == [()]


def test_wedge_face_is_singleton_ray():
    table = section_table(WEDGE)
    assert len(table[(0,)]) == 1
    assert vertex_set(table[(0,)][0][1]) == {(0.8, 0.2)}
    assert vertex_set(table[(1,)][0][1]) == {(0.2, 0.8)}


def test_orthant_face_singleton():
    secs = section_table(PolyhedralCone(np.eye(2)))[(0,)]
    assert len(secs) == 1
    assert vertex_set(secs[0][1]) == {(0.0, 1.0)}


def test_three_dimensional_face_segment():
    secs = section_table(PolyhedralCone(np.eye(3)))[(0,)]
    assert len(secs) == 1
    assert vertex_set(secs[0][1]) == {(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_face_touching_an_orthant_only_at_a_ray():
    # the face x1 = x2 meets the orthant (+, -, +) only in the x3 axis; that
    # ray already ends both segments of the face, so it adds no cell
    cone = PolyhedralCone([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    secs = section_table(cone)[(0,)]
    assert len(secs) == 2
    assert {frozenset(vertex_set(s)) for _, s in secs} == {
        frozenset({(0.5, 0.5, 0.0), (0.0, 0.0, 1.0)}),
        frozenset({(-0.5, -0.5, 0.0), (0.0, 0.0, 1.0)})}


# -- exact sections ----------------------------------------------------------------

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.spec"))
EXACT_CONES = {
    **{path.stem: spec.system.cone for path in SPECS
       if (spec := parse_spec(path)).is_conic},
    "wedge": WEDGE,
    "quadrant": PolyhedralCone(np.eye(2)),
    "octant": PolyhedralCone(np.eye(3)),
    "two-rows": PolyhedralCone([[1.0, 1.0, 0.2], [0.3, 1.0, 1.0]]),
    "square": PolyhedralCone([[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]]),
    "plane": PolyhedralCone(np.zeros((0, 2)), dimension=2),
    # the benchmark's square cone x3 >= 2|x1|, x3 >= 2|x2|
    "bench-sq3d": PolyhedralCone([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5],
                                  [0, -1, 0.5]]),
    # a cube-based cone: its sections are cubes, three pulling levels deep
    "cube4": PolyhedralCone([[s * (i == j) for j in range(3)] + [0.5]
                             for i in range(3) for s in (1, -1)]),
}


def det(M):
    """Exact determinant by expansion along the first row."""
    if not M:
        return Fraction(1)
    return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1:]
                                          for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def projected_edges(points, cell, coords):
    return [[points[v][j] - points[cell[0]][j] for j in coords]
            for v in cell[1:]]


def exact_parts(cone):
    """Every orthant piece and every face part of it, as pulling inputs."""
    rows = tuple(map(cones._primitive, cone.C))
    for _, rays, tight in cones._pieces(rows, cone.dimension):
        yield rays, tight, tuple(range(len(rays))), cone.dimension
        for row in range(cone.num_rows):
            members = tuple(k for k, t in enumerate(tight) if row in t)
            if members:
                yield rays, tight, members, cones._rank(
                    [rays[k] for k in members])


@pytest.mark.parametrize("name", sorted(EXACT_CONES))
def test_exact_sections_cover_by_volume_and_barycentric(name):
    cone = EXACT_CONES[name]
    rows = [[Fraction(float(c)) for c in row] for row in cone.C]
    rng = random.Random(15)
    exact_vertices = set()
    for rays, tight, members, rank in exact_parts(cone):
        points = {k: cones._l1_point(rays[k]) for k in members}
        for p in points.values():
            assert all(sum(c * x for c, x in zip(row, p)) >= 0 for row in rows)
            assert sum(abs(x) for x in p) == 1
            exact_vertices.add(tuple(float(x) for x in p))
        pulled = cones._pull(rays, tight, members, rank)
        other = cones._pull(rays, tight, members[-1:] + members[:-1], rank)
        assert all(len(cell) == rank for cell in pulled + other)
        # coordinates on which the projection of the affine hull is injective
        coords = next(c for c in itertools.combinations(range(cone.dimension),
                                                        rank - 1)
                      if det(projected_edges(points, pulled[0], c)))
        volumes = [[abs(det(projected_edges(points, cell, coords)))
                    for cell in cells] for cells in (pulled, other)]
        assert min(volumes[0] + volumes[1]) > 0
        assert sum(volumes[0]) == sum(volumes[1])
        frames = [barycentric_frame(points, cell, coords) for cell in pulled]
        for _ in range(200):
            weights = [rng.randint(0, 9) for _ in members]
            weights[rng.randrange(len(members))] += 1
            x = [sum(w * points[k][j] for w, k in zip(weights, members))
                 / sum(weights) for j in range(cone.dimension)]
            assert any(in_cell(frame, coords, x) for frame in frames)
    floats = {v for cells in section_table(cone).values()
              for _, s in cells for v in s.vertices}
    assert floats <= exact_vertices


def random_cone(seed):
    """A seeded cone in 2 + seed % 3 dimensions, with interior: n to n + 2
    rows of small integers and halves, each positive at one integer point."""
    rng = random.Random(seed)
    n = 2 + seed % 3
    x0 = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n)]
    rows = []
    for _ in range(n + rng.randint(0, 2)):
        row = [0] * n
        while sum(map(operator.mul, row, x0)) <= 0:
            row = [rng.randint(-3, 3) / rng.choice((1, 2)) for _ in range(n)]
        rows.append(row)
    return PolyhedralCone(rows)


COVER_CONES = {"cone2d": EXACT_CONES["cone2d"], "sq3d": EXACT_CONES["sq3d"],
               **{f"random{seed}": random_cone(seed) for seed in range(6)}}


@pytest.mark.parametrize("name", sorted(COVER_CONES))
def test_refined_cells_cover_sections_exactly(name):
    # 5 uniform sweeps in 2-D, 4 in 3-D, 3 in 4-D; every vertex is an exact
    # point of the cone (of its face on a face section) on the l1 sphere,
    # and bisection keeps each orthant section's volume exactly
    cone = COVER_CONES[name]
    rows = [cones._primitive(row) for row in cone.C]
    sweeps = 6 - cone.dimension
    table = section_table(cone)
    assert table[()]
    for face, section in [(key, s) for key, cells in table.items()
                          for _, s in cells]:
        part = SimplicialPartition(section)
        for _ in range(sweeps):
            part = part.refine_all()
        for cell in part.cells:
            for p in cell.points:
                assert sum(map(abs, p)) == 1
                dots = [sum(map(operator.mul, row, p)) for row in rows]
                assert min(dots) >= 0
                assert all(dots[i] == 0 for i in face)
        if not face:
            assert len(part.cells) == 2 ** sweeps
            assert sum(abs(det(list(map(list, cell.points))))
                       for cell in part.cells) == abs(
                det(list(map(list, section.points))))


DIFFERENTIAL_CONES = {**EXACT_CONES, **COVER_CONES,
                      **{f"random{seed}": random_cone(seed)
                         for seed in range(80)}}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONES))
def test_section_table_matches_the_paths_it_replaced(name):
    # the same exact cells in the same order as the orthant path and the
    # one-row face path; the table's orthant ids match the orthant path's,
    # and every face cell lies in the closed orthant its id names
    cone = DIFFERENTIAL_CONES[name]
    table = section_table(cone)
    assert [(oid, s.points) for oid, s in table[()]] == [
        (oid, s.points) for oid, s in orthant_cells_by_pieces(cone)]
    for i in range(cone.num_rows):
        assert [s.points for _, s in table[(i,)]] == [
            s.points for s in face_cells_by_row(cone, i)]
    signs = list(itertools.product((1, -1), repeat=cone.dimension))
    for cells in table.values():
        for oid, s in cells:
            assert all(sign * x >= 0 for p in s.points
                       for sign, x in zip(signs[oid], p))


def barycentric_frame(points, cell, coords):
    """The cell's base vertex and the exact matrix taking x - base to the
    coordinates of its edges (cofactors over the determinant)."""
    edges = projected_edges(points, cell, coords)
    full = det(edges)
    d = len(edges)
    return points[cell[0]], [
        [(-1) ** (i + j) * det([row[:j] + row[j + 1:]
                                for k, row in enumerate(edges) if k != i])
         / full for j in range(d)] for i in range(d)]


def in_cell(frame, coords, x):
    """Whether x has nonnegative exact barycentric coordinates in the cell."""
    base, inverse = frame
    y = [x[j] - base[j] for j in coords]
    lam = [sum(a * b for a, b in zip(row, y)) for row in inverse]
    return min(lam, default=0) >= 0 and sum(lam) <= 1


# -- barycentric coordinates --------------------------------------------------------

def test_barycentric_midpoint():
    s = Simplex.from_rows([[1, 0], [0, 1]])
    lam = barycentric([0.5, 0.5], s)
    assert np.allclose(lam, [0.5, 0.5])


def test_barycentric_vertex_identity():
    s = Simplex.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    lam = barycentric([1, 0, 0], s)
    assert np.allclose(lam, [1.0, 0.0, 0.0], atol=1e-12)


def test_barycentric_reconstruction_oracle():
    rng = np.random.default_rng(11)
    s = Simplex.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    V = s.vertex_array()
    for _ in range(100):
        lam = rng.dirichlet([1.0, 1.0, 1.0])
        x = lam @ V
        back = barycentric(x, s)
        assert np.linalg.norm(back @ V - x) <= 1e-10
        assert back.min() >= -1e-9


def test_barycentric_outside_affine_hull():
    s = Simplex.from_rows([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(InputError, match="point is outside the affine hull"):
        barycentric([0.3, 0.3, 0.4], s)


# -- refinement --------------------------------------------------------------------

def test_bisect_standard_segment():
    s = Simplex.from_rows([[1, 0], [0, 1]])
    a, b = bisect_longest_edge(s)
    assert vertex_set(a) == {(1.0, 0.0), (0.5, 0.5)}
    assert vertex_set(b) == {(0.5, 0.5), (0.0, 1.0)}


def test_bisect_singleton_errors():
    with pytest.raises(NumericalError,
                       match="cannot refine a singleton simplex"):
        bisect_longest_edge(Simplex.from_rows([[0.8, 0.2]]))


def test_midpoints_stay_on_l1_sphere():
    part = SimplicialPartition(Simplex.from_rows(np.eye(3)))
    for _ in range(4):
        part = part.refine_all()
    for cell in part.cells:
        for v in cell.vertices:
            assert abs(np.abs(np.array(v)).sum() - 1.0) <= 1e-12


def halve_diameter(part):
    """Bisect every cell above half the entry diameter until none is left."""
    target = 0.5 * partition_diameter(part) + 1e-12
    while partition_diameter(part) > target:
        part = part.refine_cells([i for i, cell in enumerate(part.cells)
                                  if simplex_diameter(cell) > target])
    return part


def barycentric(x, simplex, residual_tol=1e-8):
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
        raise InputError(
            f"point is outside the affine hull (residual {residual:.3e})")
    return lam


def locate(part, x, tol=1e-9):
    """Index of a cell containing x (barycentric test), or None."""
    for i, cell in enumerate(part.cells):
        try:
            lam = barycentric(x, cell)
        except InputError:
            continue
        if lam.min() >= -tol:
            return i
    return None


def test_uniform_sweeps_halve_diameter():
    part = SimplicialPartition(Simplex.from_rows(np.eye(3)))
    d0 = partition_diameter(part)
    assert abs(d0 - math.sqrt(2)) <= 1e-15
    for k in range(1, 4):
        part = halve_diameter(part)
        assert partition_diameter(part) <= d0 / 2 ** k + 1e-12


# -- partitions ---------------------------------------------------------------------

def test_partition_diameter_values():
    one = SimplicialPartition(Simplex.from_rows([[1, 0], [0, 1]]))
    assert abs(partition_diameter(one) - math.sqrt(2)) <= 1e-15
    refined = one.refine_all()
    assert abs(partition_diameter(refined) - math.sqrt(0.5)) <= 1e-12
    singleton = SimplicialPartition(Simplex.from_rows([[0.8, 0.2]]))
    assert partition_diameter(singleton) == 0.0


def test_partition_diameter_brute_force_oracle():
    rng = np.random.default_rng(12)
    part = SimplicialPartition(Simplex.from_rows(np.eye(3)))
    for _ in range(3):
        part = part.refine_cells(rng.choice(len(part.cells),
                                            size=max(1, len(part.cells) // 2),
                                            replace=False))
    best = 0.0
    for cell in part.cells:
        V = cell.vertex_array()
        for i in range(len(V)):
            for j in range(len(V)):
                best = max(best, float(np.linalg.norm(V[i] - V[j])))
    assert abs(partition_diameter(part) - best) <= 1e-15


def test_cover_property_after_refinement():
    rng = np.random.default_rng(13)
    parent = Simplex.from_rows(np.eye(3))
    part = SimplicialPartition(parent)
    for _ in range(5):
        part = part.refine_cells(
            rng.choice(len(part.cells), size=max(1, len(part.cells) // 3),
                       replace=False))
    V = parent.vertex_array()
    for _ in range(1000):
        x = rng.dirichlet([1.0, 1.0, 1.0]) @ V
        assert locate(part, x) is not None


def test_interiors_disjoint_by_sampling():
    rng = np.random.default_rng(14)
    part = SimplicialPartition(Simplex.from_rows(np.eye(2 + 1))).refine_all()
    part = part.refine_all()
    V = part.parent.vertex_array()
    for _ in range(300):
        x = rng.dirichlet([1.0] * 3) @ V
        hits = 0
        for cell in part.cells:
            try:
                lam = barycentric(x, cell)
            except InputError:
                continue
            if lam.min() > 1e-7:  # strictly interior
                hits += 1
        assert hits <= 1


def test_dump_partition_lines_shape():
    part = SimplicialPartition(Simplex.from_rows([[1, 0], [0, 1]])).refine_all()
    lines = dump_partition_lines([part])
    assert len(lines) == 2
    assert lines[0] == "1.0,0.0;0.5,0.5"
