"""Independent brute-force verification of certificates.

Everything here is deliberately redundant with the construction code:
inequalities are sampled on dense deterministic grids (on a cell, the
simplicial lattice of poly.simplex_lattice), eta comes from the
projection tangency.eta_projection (never from the face polynomials of
cop_lp's rows), and the cone decrease is computed point by point from
the values of f, grad h and h (never from the decrease polynomials that
cop_lp expands for its LP rows).  The face grids of all faces are
projected together, once per pattern of active cone rows: the closed
form where one row is active, nonnegative least squares at corners.  The
boundary bands of the semialgebraic checks come from one Newton
iteration over all samples at once, on a compact array of the live
points that retires converged points and drops those whose gradient
vanishes or that do not converge in 50 passes.  A certificate is
accepted only when this module agrees, so a fault in the construction's
refinement, face-row selection, decrease expansion or solvers cannot
self-certify.  The unrefined sections are the one thing shared: the grids
cover the sections of cop_lp.initial_sections, the list the LP starts
from, one per cell of cones.section_table, and the tests check in exact
arithmetic that those cells and their refinements cover the cone and its
faces.  Each check reports one minimum, with its witness, over all of its
grids.

Every polynomial value comes from a poly.MonomialTable, built once per
call for each list of polynomials that a check needs: one of
[*f, *grad h, h] for the cone check, one of grad V, f and every
generator's gradient for the SOS decrease and alignment checks.  The LP
rows come from the same evaluator, so it is not checked here: the tests
hold it to the exact rational values within a rounding bound, and the
benchmark's checker evaluates certificates again with sympy, apart from
lyapcert.

All randomized sampling uses a caller-fixed seed (default 0); reports are
byte-stable for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .cones import Simplex
# initial_sections by name: the benchmark's tracer times the LP's calls
# through cop_lp.initial_sections, and these stay out of that span
from .cop_lp import ConicSystem, RationalLyapunovCandidate, initial_sections
from .errors import InputError
from .poly import MonomialTable, Polynomial, simplex_lattice
from .sos_cert import SemialgebraicSystem
from .tangency import eta_projection

PASS_TOL = 1e-9
BAND_WIDTH = 1e-6
ACTIVATION_TOL = 1e-8   # a cone row with |<c, x>|/|c| at most this is active


@dataclass
class CheckResult:
    name: str
    min_value: float
    witness: tuple[float, ...] | None
    samples: int
    strict: bool = False  # strict checks need min > 0, not just >= -tol

    def passes(self, tol: float) -> bool:
        if self.strict:
            return self.min_value > 0.0
        return self.min_value >= -tol

    def add_grid(self, values: np.ndarray, points: np.ndarray
                 ) -> "CheckResult":
        """Count the values of one grid, at the rows of points, into this
        check, and return it.

        The minimum moves to the grid's first smallest value when that is
        below it or NaN, so grids added in turn give the minimum and
        witness of one argmin over all of them, and no grid's arrays
        outlive its turn.
        """
        idx = int(np.argmin(values))
        if self.witness is None or np.argmin([self.min_value, values[idx]]):
            self.min_value = float(values[idx])
            self.witness = tuple(float(v) for v in points[idx])
        self.samples += len(values)
        return self


@dataclass
class Report:
    kind: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    sample_rows: list[tuple[tuple, str, float]] | None = None

    @property
    def passed(self) -> bool:
        return all(c.passes(PASS_TOL) for c in self.checks)

    def worst(self) -> CheckResult | None:
        return min(self.checks, key=lambda c: c.min_value, default=None)

    def to_text(self) -> str:
        lines = [f"oracle-report: {self.kind}",
                 f"pass-tolerance: {PASS_TOL!r}"]
        for c in self.checks:
            wit = "-" if c.witness is None else \
                "(" + ", ".join(repr(v) for v in c.witness) + ")"
            lines.append(f"check {c.name}: min {c.min_value!r} over "
                         f"{c.samples} samples, witness {wit}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def record(self, points, name: str, values) -> None:
        """Keep each (point, name, value) when samples are collected."""
        if self.sample_rows is not None:
            for point, value in zip(points, values):
                self.sample_rows.append((tuple(point), name, float(value)))

    def to_csv(self) -> str:
        """The collected samples, one line each (collect_samples=True)."""
        lines = ["quantity,value,point"]
        for point, quantity, value in self.sample_rows:
            coords = ";".join(repr(float(v)) for v in point)
            lines.append(f"{quantity},{value!r},{coords}")
        return "\n".join(lines) + "\n"


def barycentric_grid(simplex: Simplex, density: int) -> np.ndarray:
    """Deterministic grid of about `density` points covering the simplex.

    On three or more vertices it is poly.simplex_lattice at the finest
    resolution whose point count stays within `density` (_resolution), in
    reverse (lexicographic) order.
    """
    k = simplex.num_vertices
    V = simplex.vertex_array()
    if k == 1:
        return V.copy()
    if k == 2:
        lam = np.linspace(0.0, 1.0, max(density, 2))
        return np.outer(lam, V[0]) + np.outer(1.0 - lam, V[1])
    return simplex_lattice(k, _resolution(k, density))[::-1] @ V


def _resolution(k: int, density: int) -> int:
    """The largest t >= 1 whose lattice on k >= 2 vertices,
    comb(t + k - 1, k - 1) points, has at most `density` points; 1 when
    none has.

    The count exceeds t^(k-1) / (k-1)! and is at most
    (t + k - 1)^(k-1) / (k-1)!, so the answer lies below the root
    ((k-1)! density)^(1/(k-1)) and within k of it: the search steps down
    from just above the root, in at most k + 1 comb calls.  The float
    root is within 1 of the root for any density a grid could fill.
    """
    t = int((factorial(k - 1) * density) ** (1.0 / (k - 1))) + 1
    while t > 1 and comb(t + k - 1, k - 1) > density:
        t -= 1
    return t


def _min_with_witness(name: str, values: np.ndarray, points: np.ndarray,
                      strict: bool = False) -> CheckResult:
    """A check of one grid: its smallest value, first in order, and point."""
    return CheckResult(name, np.inf, None, 0, strict).add_grid(values, points)


def verify_conic(candidate: RationalLyapunovCandidate, system: ConicSystem,
                 grid_density: int = 10_000, collect_samples: bool = False
                 ) -> Report:
    """Grid verification of the three cone inequalities.

    The grids cover the LP's unrefined sections (initial_sections): h and
    the interior decrease are sampled on every section of the cone (rows
    ()); the face decrease is sampled on every section of a face (rows
    (i,)) with eta recomputed by projection at each point, independent of
    the LP's face polynomials.
    All three must be positive (strict), as V and its decrease are in
    verify_sos: an h that is zero somewhere on a section, such as the zero
    polynomial, is no certificate, and neither is a decrease that is only
    weak (min 0), which a system that is not asymptotically stable, such
    as a rotation, can have.  Each check is one minimum, with its witness,
    over all of its grids.

    One table of [*f, *grad h, h] gives every value: each cone grid's rows
    are read once, and both decreases come from them point by point
    (_decrease).  The face grids of all faces are evaluated and projected
    together.
    """
    h, r = candidate.h, candidate.r
    n = len(system.f)
    table = MonomialTable([*system.f, *h.gradient(), h])
    report = Report(kind="conic",
                    sample_rows=[] if collect_samples else None)
    sections = initial_sections(system)

    h_check = CheckResult("h-on-sections", np.inf, None, 0, strict=True)
    s0_check = CheckResult("s0-on-sections", np.inf, None, 0, strict=True)
    for state in (s for s in sections if not s.rows):
        pts = barycentric_grid(state.partition.parent, grid_density)
        vals = table(pts).T
        h_vals, s0_vals = vals[-1], _decrease(pts, vals, r)
        report.record(pts, f"h:orthant{state.orthant}", h_vals)
        report.record(pts, f"s0:orthant{state.orthant}", s0_vals)
        h_check.add_grid(h_vals, pts)
        s0_check.add_grid(s0_vals, pts)
    report.checks += [h_check, s0_check]

    faces = [(s.rows[0] + 1, barycentric_grid(s.partition.parent,
                                              max(grid_density // 10, 100)))
             for s in sections if s.rows]
    if faces:
        pts = np.concatenate([grid for _, grid in faces])
        vals = table(pts).T
        decrease = _decrease(pts, vals, r,
                             _face_eta(pts, vals[:n], system.cone.C))
        stop = 0
        for i, grid in faces:
            start, stop = stop, stop + len(grid)
            report.record(grid, f"face{i}", decrease[start:stop])
        report.checks.append(_min_with_witness("face-decrease", decrease,
                                               pts, strict=True))
    report.notes.append(
        "eta taken from the projection at every face sample (independent "
        "of the branch polynomials)")
    return report


def _decrease(pts: np.ndarray, vals: np.ndarray, r: int,
              eta: np.ndarray | None = None) -> np.ndarray:
    """-<|x|^2 grad h - 2r h x, f + eta> at each point x of pts (m, n).

    vals holds the rows of the table of [*f, *grad h, h] at pts, and eta
    the n rows of eta on a face (None on a section, where eta = 0).  This
    is |x|^(2r+2) times the derivative of V = h / |x|^(2r) along f + eta,
    so it has the sign of V's decrease.  On a section the inner products
    are summed first, -(|x|^2 <grad h, f> - 2r h <x, f>), so a field
    tangent to the level sets of h, such as a rotation of |x|^2, gives
    exactly 0.  On a face the vector |x|^2 grad h - 2r h x is formed
    first: the face minima that certificates, reports and status lines
    print are that order's, bit for bit.  With r = 0 the h term is 0 and
    is not formed, and a zero value is 0.0, not -0.0.
    """
    n = pts.shape[1]
    x = pts.T
    f, grad_h, h_vals = vals[:n], vals[n:2 * n], vals[2 * n]
    nrm2 = np.einsum("ij,ij->i", pts, pts)
    if eta is None:
        total = nrm2 * _dot(grad_h, f)
        if r:
            total -= 2.0 * r * h_vals * _dot(x, f)
    else:
        lhs = nrm2 * grad_h
        if r:
            lhs -= 2.0 * r * h_vals * x
        total = _dot(lhs, f + eta)
    return -total + 0.0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a_j b_j over two stacks of n rows, summed in row order."""
    total = a[0] * b[0]
    for j in range(1, len(a)):
        total += a[j] * b[j]
    return total


def _face_eta(pts: np.ndarray, F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The n rows of eta at each point of the face grids pts, from the
    rows F of f there and the cone rows C.

    Rows with |<c, x>|/|c| <= ACTIVATION_TOL are active.  The points are
    sorted by their set of active rows, and eta is projected once for
    each run of points that share one.
    """
    scaled = np.abs(pts @ C.T) / np.linalg.norm(C, axis=1)
    patterns, which = _row_patterns(scaled <= ACTIVATION_TOL)
    order = np.argsort(which, kind="stable")
    field = F.T[order]
    eta = np.zeros_like(field)
    stop = 0
    for pattern, count in zip(patterns, np.bincount(which).tolist()):
        start, stop = stop, stop + count
        eta[start:stop] = eta_projection(field[start:stop], C[pattern])
    rows = np.empty_like(F)
    rows[:, order] = eta.T
    return rows


def _row_patterns(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean (m, k) matrix, and the index of each
    row's pattern among them.

    Rows are grouped by the integer whose bit j is column j, so a 1-D sort
    replaces the row-wise one; past 62 columns the codes would overflow and
    the rows are sorted whole.
    """
    if mask.shape[1] > 62:
        patterns, which = np.unique(mask, axis=0, return_inverse=True)
        return patterns, which.ravel()
    codes = mask @ (1 << np.arange(mask.shape[1]))
    _, first, which = np.unique(codes, return_index=True,
                                return_inverse=True)
    return mask[first], which


def verify_sos(V: Polynomial, system: SemialgebraicSystem,
               samples: int = 10_000, seed: int = 0,
               collect_samples: bool = False) -> Report:
    """Sampling verification of the three semialgebraic conditions.

    Feasible points come from rejection sampling of the bounding box;
    positivity is checked on radius shells, decrease on the interior
    sample set, and gradient alignment on thin bands around each g_j = 0.
    The outermost shell has radius min(1, 0.9 max |p|) over the feasible
    samples p: on a set such as the unit ball it then lies inside the set,
    not on its boundary, where rounding alone would decide which of its
    points count as feasible.
    """
    rng = np.random.default_rng(seed)
    S = system.S
    n = S.dimension
    pts = _rejection_sample(S, samples, rng)

    report = Report(kind="sos", sample_rows=[] if collect_samples else None)

    grad_v = V.gradient()

    # positivity on shells
    shells = CheckResult("V-positivity-shells", np.inf, None, 0, strict=True)
    generators_v = MonomialTable([*S.generators, V])
    outer = min(1.0, 0.9 * float(np.linalg.norm(pts, axis=1).max()))
    for radius in (1e-2, 1e-1, outer):
        dirs = rng.standard_normal((4 * max(len(pts) // 8, 64), n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        shell = radius * dirs
        vals = generators_v(shell)
        mask = (vals[:, :-1] >= 0.0).all(axis=1)
        shell, shell_vals = shell[mask], vals[mask, -1]
        if len(shell) == 0:
            continue
        report.record(shell, f"V-shell-{radius}", shell_vals)
        shells.add_grid(shell_vals, shell)
    if shells.samples:
        report.checks.append(shells)
    else:
        report.notes.append("no shell intersects the set; positivity "
                            "checked on interior samples only")
        inner = pts[np.linalg.norm(pts, axis=1) > 1e-6]
        report.checks.append(_min_with_witness(
            "V-positivity-interior", MonomialTable([V])(inner)[:, 0], inner,
            strict=True))

    # one table of n-value blocks: grad V, f, then each generator's
    # gradient, so grad V is laid out once
    grad_table = MonomialTable([*grad_v, *system.f,
                                *(d for grad in S.gradients for d in grad)])

    # strict decrease on the interior sample set (away from the origin)
    offorigin = pts[np.linalg.norm(pts, axis=1) > 1e-8]
    decrease = _inner_products(grad_table, 1, offorigin)
    report.record(offorigin, "decrease-strict", -decrease)
    report.checks.append(_min_with_witness("decrease-strict", -decrease,
                                           offorigin, strict=True))
    report.notes.append("decrease-strict is checked on samples only; a "
                        "sampled check is not a proof of strict decrease")

    # alignment <grad V, grad g_j> <= 0 on the active bands
    for j in range(1, len(S.generators) + 1):
        band_pts = _band_points(j - 1, S, pts)
        if len(band_pts) == 0:
            report.notes.append(f"band of g_{j} not reached by the sampler")
            continue
        align = _inner_products(grad_table, 1 + j, band_pts)
        report.record(band_pts, f"alignment-g{j}", -align)
        check = _min_with_witness(f"alignment-g{j}", -align, band_pts)
        report.checks.append(check)
    return report


def _rejection_sample(S, samples: int, rng: np.random.Generator
                      ) -> np.ndarray:
    """The first `samples` uniform draws from the bounding box that lie in
    the set, in draw order; fewer when 200 * samples draws do not find them.

    Draws come in batches of min(4096, 4 * samples) points; the accepted
    rows of each batch are kept and joined once at the end.
    """
    n = S.dimension
    lo = np.array([b[0] for b in S.box])
    hi = np.array([b[1] for b in S.box])
    generators = MonomialTable(S.generators)
    accepted: list[np.ndarray] = []
    count = attempts = 0
    max_attempts = 200 * samples
    while count < samples and attempts < max_attempts:
        batch = rng.uniform(lo, hi, size=(min(4096, samples * 4), n))
        attempts += len(batch)
        batch = batch[(generators(batch) >= 0.0).all(axis=1)]
        accepted.append(batch)
        count += len(batch)
    if not count:
        raise InputError(
            "empty sample: bounding box misconfigured for the set")
    return np.concatenate(accepted)[:samples]


def _inner_products(table: MonomialTable, k: int,
                    points: np.ndarray) -> np.ndarray:
    """sum_i u_i(x) w_i(x) at each point, where u is the table's first
    block of n polynomials and w its block k (the first is block 0)."""
    n = points.shape[1]
    vals = table(points)
    return np.einsum("ij,ij->i", vals[:, :n], vals[:, k * n:(k + 1) * n])


def _band_points(index: int, S, pts: np.ndarray) -> np.ndarray:
    """Newton-project all samples onto g = 0 at once, g = S.generators[index].

    Each pass evaluates g and its cached gradient (S.gradients[index]) in
    one table on a compact array of the points still live, and steps those
    points by
    y <- y - g(y) grad g(y) / |grad g(y)|^2.  A point retires as converged
    once |g(y)| <= BAND_WIDTH; it is dropped when |grad g(y)|^2 < 1e-30 or
    when it has not converged after 50 passes.  A converged point is kept
    if every other generator is >= -1e-9 there; kept points stay in input
    order.
    """
    g, grads = S.generators[index], S.gradients[index]
    g_grad = MonomialTable([g, *grads])
    y = np.array(pts, dtype=float)
    # the live points, compact and in input order, and their rows in y;
    # a converged point is written back to y once, when it retires
    live = np.arange(len(y))
    w = y.copy()
    converged = np.zeros(len(y), dtype=bool)
    for _ in range(50):
        vals = g_grad(w)
        done = np.abs(vals[:, 0]) <= BAND_WIDTH
        if done.any():
            y[live[done]] = w[done]
            converged[live[done]] = True
            live, w, vals = live[~done], w[~done], vals[~done]
        if len(live) == 0:
            break
        # row-major, as the boolean index leaves it: the reduction below
        # reads the same layout on every pass
        vals = np.ascontiguousarray(vals)
        val, grad = vals[:, 0], vals[:, 1:]
        nrm2 = np.einsum("ij,ij->i", grad, grad)
        moving = nrm2 >= 1e-30
        if not moving.all():
            live, w = live[moving], w[moving]
            val, grad, nrm2 = val[moving], grad[moving], nrm2[moving]
        w -= (val / nrm2)[:, None] * grad
    y = y[converged]
    others = MonomialTable([other for other in S.generators if other is not g])
    return y[(others(y) >= -1e-9).all(axis=1)]
