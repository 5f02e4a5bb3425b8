"""LP hierarchy for rational Lyapunov functions on polyhedral cones.

The candidate V = h / |x|^(2r) with h homogeneous of degree d is certified
by three families of inequalities: h >= 0 on the cone, the interior
decrease polynomial s0 >= 0 on the cone, and the face decrease s_i >= 0 on
each cone face.  By homogeneity everything is checked on l1-sphere
sections, the cells of cones.section_table, each one a SectionState
named by the cone rows tight on its face.  Each section is partitioned
into simplices, and on every cell nonnegativity of the polynomial's
Bernstein coefficients (its polar-form values at the vertex multisets,
solved from its values at the simplicial lattice points) implies
nonnegativity of the polynomial on the cell.  Those coefficients are
linear in the coefficients of h, which yields one LP per partition.
Beside the LP, assembly returns one (rows, 2) integer array whose row k
is the (section, cell) pair that owns LP row k; the cells whose rows bind
at the optimum are read from it with one mask, bisected, and the LP is
re-solved, driving the partition diameter down until the margin clears
the acceptance threshold or the sweep budget runs out.

On face i the velocity that the normal cone selects is f where
w_i = <c_i, f> >= 0 and the projection f - (w_i/|c_i|^2) c_i where
w_i <= 0 (face_polynomials).  A face cell reads w_i's sign from its
Bernstein coefficients, the same test, and takes s0's rows, the
projection's, or both when the sign is not certified there, which is
conservative but sound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import add

import numpy as np

from . import linprog
from .cones import PolyhedralCone, SimplicialPartition, Simplex, section_table
from .errors import OUT_OF_FLOAT_RANGE, InputError, NumericalError
from .poly import (Mono, MonomialTable, Polynomial, bernstein_coefficients,
                   euler_kernel, monomials_of_degree, norm_squared)

logger = logging.getLogger(__name__)

ACCEPT_MARGIN = 1e-6     # a level certifies once the LP margin reaches it
ACTIVE_ROW_TOL = 1e-7
ROW_RECHECK_TOL = 1e-8
W_SIGN_TOL = 1e-12       # a Bernstein coefficient of w within it has no sign


@dataclass
class ConicSystem:
    """Homogeneous vector field on a polyhedral cone."""

    f: list[Polynomial]
    cone: PolyhedralCone
    field_degree: int = field(init=False)

    def __post_init__(self):
        n = self.cone.dimension
        if len(self.f) != n:
            raise InputError("vector field arity must match the dimension")
        degrees = set()
        for i, comp in enumerate(self.f):
            if comp.dimension != n:
                raise InputError(f"component {i + 1} has wrong dimension")
            deg = comp.is_homogeneous()
            if deg is None:
                raise InputError(
                    f"component {i + 1} is not homogeneous; cone mode requires "
                    "a homogeneous field")
            if not comp.is_zero():
                if deg == 0:
                    raise InputError(
                        f"component {i + 1} has a constant term, so f(0) != 0")
                degrees.add(deg)
        if not degrees:
            raise InputError("vector field is identically zero")
        if len(degrees) > 1:
            raise InputError(
                f"components have mixed homogeneity degrees {sorted(degrees)}")
        self.field_degree = degrees.pop()

    @property
    def dimension(self) -> int:
        return self.cone.dimension

    @cached_property
    def euler_kernel(self):
        """poly.euler_kernel of f with the rows of C, built on first use."""
        return euler_kernel(self.f, self.cone.rows)


@dataclass
class RationalLyapunovCandidate:
    """V(x) = h(x) / |x|_2^(2r) with h homogeneous."""

    h: Polynomial
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise InputError("r must be a nonnegative integer")
        deg = self.h.is_homogeneous()
        if deg is None:
            raise InputError("h must be homogeneous")
        self.degree = deg

    def value(self, x):
        """V at one point (n,), as a float, or at each row of an (m, n) array.

        At the origin V takes its limit 0 when deg h > 2r; when
        deg h <= 2r it has none, and a point at the origin is an InputError.
        """
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        nrm2 = np.einsum("ij,ij->i", pts, pts)
        away = nrm2 != 0.0
        if not away.all() and self.degree <= 2 * self.r:
            raise InputError(f"V = h/|x|^{2 * self.r} has no value at the "
                             f"origin: deg h = {self.degree} <= 2r")
        values = np.zeros(len(pts))
        values[away] = MonomialTable([self.h])(pts[away])[:, 0] \
            / nrm2[away] ** self.r
        return float(values[0]) if x.ndim == 1 else values


@dataclass
class SectionState:
    """One section simplex and its evolving partition.

    rows are the cone rows (0-based) tight on the section's face, () on a
    section of the cone itself, and orthant the id of the closed orthant
    that holds it: its key and orthant id in cones.section_table.
    """

    rows: tuple[int, ...]
    orthant: int
    partition: SimplicialPartition


@dataclass
class ConicCertificate:
    candidate: RationalLyapunovCandidate
    margin: float
    sections: list[SectionState]
    degree: int
    r: int
    sweeps_used: int
    lp_rows: int
    lp_pivots: int


@dataclass
class LevelReport:
    degree: int
    r: int
    sweeps_done: int
    best_margin: float


@dataclass
class HierarchyOutcome:
    certificate: ConicCertificate | None
    levels: list[LevelReport]
    solver_failure: str | None = None  # first margin LP that did not solve

    @property
    def found(self) -> bool:
        return self.certificate is not None


def decrease_polynomials(hs: list[Polynomial], r: int,
                         velocity: list[Polynomial]) -> list[Polynomial]:
    """-|x|^2 <grad h, v> + 2 r h <x, v> for each h, along the field v.

    This is |x|^(2r+2) times the derivative of V = h / |x|^(2r) along v,
    so it has V's decrease sign.  It is linear in h: with P_i = -|x|^2 v_i
    and Q = 2r <x, v>, formed once, a term c x^m of h contributes
    sum_i c m_i x^(m - e_i) P_i + c x^m Q, which shifts the exponents of
    P_i and Q and takes one coefficient product per term.  With v = f it
    is the interior decrease s0.  With r = 0, Q is 0 and is not formed.
    """
    n = velocity[0].dimension
    nrm = norm_squared(n)
    P = [(-(nrm * vi)).terms for vi in velocity]
    Q = sum((Polynomial.variable(n, i) * vi for i, vi in enumerate(velocity)),
            Polynomial.zero(n)).scale(2 * r).terms if r else {}
    out = []
    for h in hs:
        acc: dict[Mono, Fraction] = {}
        for m, c in h.terms.items():
            parts = [(m[:i] + (e - 1,) + m[i + 1:], c * e, P[i])
                     for i, e in enumerate(m) if e]
            for shift, coeff, terms in parts + [(m, c, Q)]:
                for mono, p in terms.items():
                    key = tuple(map(add, shift, mono))
                    prev = acc.get(key)
                    acc[key] = coeff * p if prev is None else prev + coeff * p
        out.append(Polynomial.trusted(n, acc))
    return out


def face_polynomials(cone: PolyhedralCone, i: int, f: list[Polynomial]
                     ) -> tuple[Polynomial, list[Polynomial]]:
    """The switching polynomial w = <c_i, f> of the face of cone row i
    (0-based) and the velocity |c_i|^2 f - w c_i of the projection branch,
    both exact.

    The projection f - (w/|c_i|^2) c_i acts where w <= 0; scaled by
    |c_i|^2 it keeps rational coefficients and its decrease sign.  Where
    w >= 0 the velocity is f itself, and the two agree where w = 0.
    """
    c = [Fraction(v) for v in cone.rows[i]]
    w = sum((fk.scale(ck) for ck, fk in zip(c, f)), Polynomial.zero(len(f)))
    c_norm_sq = sum((ck * ck for ck in c), Fraction(0))
    return w, [fk.scale(c_norm_sq) + w.scale(-ck) for ck, fk in zip(c, f)]


class _LevelData:
    """Per-(d, r) bases and the monomial tables of the row polynomials,
    reused across sweeps: one table each for h and s0, and in faces[i],
    for the face of cone row i (0-based), one of w and one of the decrease
    along the projection branch."""

    def __init__(self, system: ConicSystem, degree: int, r: int):
        n = system.dimension
        self.degree = degree
        self.r = r
        self.h_basis = monomials_of_degree(n, degree)
        self.s0_order = degree + system.field_degree + 1
        h_polys = [Polynomial.monomial(m) for m in self.h_basis]
        # w = <c_i, f> is zero or homogeneous of the field's degree
        self.w_order = system.field_degree
        self.faces: list[tuple[MonomialTable, MonomialTable]] = []
        try:   # a table holds each coefficient as a float
            self.h_table = MonomialTable(h_polys)
            self.s0_table = MonomialTable(decrease_polynomials(h_polys, r,
                                                               system.f))
            for i in range(system.cone.num_rows):
                w, velocity = face_polynomials(system.cone, i, system.f)
                self.faces.append((MonomialTable([w]), MonomialTable(
                    decrease_polynomials(h_polys, r, velocity))))
        except OverflowError:
            raise NumericalError(f"cone LP tables: {OUT_OF_FLOAT_RANGE}") \
                from None


def _cell_rows(level: _LevelData, state: SectionState, cell: Simplex
               ) -> list[np.ndarray]:
    """The Bernstein coefficient blocks of one cell's rows: h and s0 on a
    cone cell; on a face cell, s0 where w >= 0, the projection's where
    w <= 0, and both where w's Bernstein coefficients certify neither.

    That sign test is exact for linear fields and sound for higher-degree
    ones; a zero w takes s0's rows only.
    """
    order = level.s0_order
    if not state.rows:
        tables = [(level.h_table, level.degree), (level.s0_table, order)]
    else:
        (row,) = state.rows
        w_table, b_table = level.faces[row]
        w = bernstein_coefficients(w_table, cell.vertices,
                                   level.w_order)[:, 0]
        if (w >= -W_SIGN_TOL).all():
            picked = [level.s0_table]
        elif (w <= W_SIGN_TOL).all():
            picked = [b_table]
        else:
            picked = [level.s0_table, b_table]
        tables = [(table, order) for table in picked]
    return [bernstein_coefficients(table, cell.vertices, k)
            for table, k in tables]


def assemble_lp(system: ConicSystem, degree: int, r: int,
                sections: list[SectionState], level: _LevelData | None = None
                ) -> tuple[linprog.LinearProgram, np.ndarray]:
    """The margin LP: maximize t subject to every tuple row >= t, |coeffs| <= 1,
    and the (rows, 2) integer array whose row k is the (section, cell) pair
    that owns LP row k.

    The normalization box on the h coefficients excludes h = 0 (whose
    margin is exactly 0) whenever the acceptance threshold is positive.
    """
    if not sections:
        raise InputError("empty partition: no sections to constrain")
    if level is None:
        level = _LevelData(system, degree, r)
    ncoef = len(level.h_basis)

    blocks, cells = [], []
    # a field past the float range overflows here; linprog.solve's
    # finiteness check reports it as a solver failure
    with np.errstate(over="ignore"):
        for sec_idx, state in enumerate(sections):
            for cell_idx, cell in enumerate(state.partition.cells):
                blocks.append(np.vstack(_cell_rows(level, state, cell)))
                cells.append((sec_idx, cell_idx))
    owner = np.repeat(cells, [len(block) for block in blocks], axis=0)

    coeffs = np.vstack(blocks)
    A = np.hstack([coeffs, -np.ones((len(coeffs), 1))])
    objective = np.zeros(ncoef + 1)
    objective[ncoef] = 1.0
    bounds = [(-1.0, 1.0)] * ncoef + [(None, None)]
    lp = linprog.LinearProgram(
        objective=objective, A=A, relations=[linprog.GE] * len(A),
        b=np.zeros(len(A)), bounds=bounds, maximize=True)
    return lp, owner


def initial_sections(system: ConicSystem) -> list[SectionState]:
    """Fresh single-cell partitions of every cell of the cone's section
    table, in its order: the cone's cells, then each face's."""
    table = section_table(system.cone)
    if not table[()]:
        raise InputError(
            "cone has empty interior in every orthant (trivial problem)")
    return [SectionState(rows, oid, SimplicialPartition(simplex))
            for rows, cells in table.items() for oid, simplex in cells]


def run_hierarchy(system: ConicSystem,
                  schedule: list[tuple[int, int, int]],
                  lp_dump=None) -> HierarchyOutcome:
    """Algorithm over (degree, r, sweep budget) levels.

    Each level starts from the unrefined sections, solves the margin LP,
    and computes every row's value at the optimum once.  It accepts as soon
    as the optimal margin reaches ACCEPT_MARGIN and no row value falls
    below it by more than ROW_RECHECK_TOL; otherwise the rows within
    ACTIVE_ROW_TOL of the margin pick, through assemble_lp's owner array,
    the cells to bisect (all refinable cells when none of those can be),
    until the sweep budget is exhausted.  Sections and partitions are never
    modified in place, so every level shares the initial ones.  Returns the
    first certificate or a per-level report of best margins; a level whose
    LP fails to solve ends early and is named in solver_failure.
    """
    levels: list[LevelReport] = []
    failure = None
    base_sections = initial_sections(system)
    for degree, r, max_sweeps in schedule:
        level = _LevelData(system, degree, r)
        sections = base_sections
        best_margin = -np.inf
        sweeps = 0
        while True:
            lp, owner = assemble_lp(system, degree, r, sections, level)
            if lp_dump is not None:
                lp_dump(lp, degree, r, sweeps)
            result = linprog.solve(lp)
            if result.status != "optimal":
                # the LP is feasible (h = 0, t = 0) and bounded by
                # construction, so any other status is a solver failure
                logger.warning("margin LP returned %s at level (%d, %d)",
                               result.status, degree, r)
                failure = failure or (f"margin LP {result.status} at d={degree}"
                                      f" r={r} sweep={sweeps}")
                break
            margin = float(result.value)
            best_margin = max(best_margin, margin)
            logger.info("level d=%d r=%d sweep %d: margin %.3e (%d rows)",
                        degree, r, sweeps, margin, len(lp.b))
            rows = lp.A[:, :-1] @ result.x[:-1]
            if margin >= ACCEPT_MARGIN:
                if rows.min() < margin - ROW_RECHECK_TOL:
                    logger.warning("row recheck failed by %.3e; not accepting",
                                   margin - rows.min())
                else:
                    h = Polynomial(system.dimension, {
                        m: Fraction(c) for m, c in
                        zip(level.h_basis, result.x[:-1]) if c != 0.0})
                    cert = ConicCertificate(
                        candidate=RationalLyapunovCandidate(h, r),
                        margin=margin, sections=sections, degree=degree, r=r,
                        sweeps_used=sweeps, lp_rows=len(lp.b),
                        lp_pivots=result.pivots)
                    levels.append(LevelReport(degree, r, sweeps, margin))
                    return HierarchyOutcome(cert, levels)
            if sweeps >= max_sweeps:
                break
            sections = _refine(sections, owner[rows - margin <= ACTIVE_ROW_TOL])
            sweeps += 1
        levels.append(LevelReport(degree, r, sweeps, best_margin))
    return HierarchyOutcome(None, levels, failure)


def _refine(sections: list[SectionState], active: np.ndarray
            ) -> list[SectionState]:
    """Bisect the cells named by the (section, cell) rows of active, in new
    sections; when none of them can be bisected, bisect every cell that can."""
    sizes = [len(state.partition.cells) for state in sections]
    starts = np.cumsum([0] + sizes[:-1])
    refinable = np.array([cell.num_vertices >= 2 for state in sections
                          for cell in state.partition.cells])
    chosen = np.zeros(len(refinable), dtype=bool)
    chosen[starts[active[:, 0]] + active[:, 1]] = True
    chosen &= refinable
    if not chosen.any():
        chosen = refinable
    out = []
    for state, picks in zip(sections, np.split(chosen, starts[1:])):
        if picks.any():
            state = replace(state, partition=state.partition.refine_cells(
                np.flatnonzero(picks)))
        out.append(state)
    return out
