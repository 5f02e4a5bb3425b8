"""Independent brute-force verification of certificates.

Everything here is deliberately redundant with the construction code:
inequalities are sampled on dense deterministic grids (on a cell, the
simplicial lattice of poly.simplex_lattice), and eta comes from
the projection tangency.eta_projection (never from the branch polynomials
used in LP assembly).  Each face grid is projected once per pattern of
active cone rows: the closed form where one row is active, nonnegative
least squares at corners.  The boundary bands of the semialgebraic checks
come from one Newton iteration over all samples at once, with a per-point
mask that retires converged points and drops those whose gradient
vanishes or that do not converge in 50 passes.  A certificate is accepted
only when this module agrees, so a fault in the construction's geometry,
branch logic or solvers cannot self-certify.

Every polynomial value comes from a poly.MonomialTable, built once for
each list of polynomials that a check needs.  The LP rows come from the
same evaluator, so it is not checked here: the tests hold it to the exact
rational values within a rounding bound, and the benchmark's checker
evaluates certificates again with sympy, apart from lyapcert.

All randomized sampling uses a caller-fixed seed (default 0); reports are
byte-stable for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .cones import cone_orthant_sections, face_sections, Simplex
from .cop_lp import (ConicSystem, RationalLyapunovCandidate,
                     decrease_polynomials)
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
    resolution whose point count stays within `density`, in reverse
    (lexicographic) order.
    """
    k = simplex.num_vertices
    V = simplex.vertex_array()
    if k == 1:
        return V.copy()
    if k == 2:
        lam = np.linspace(0.0, 1.0, max(density, 2))
        return np.outer(lam, V[0]) + np.outer(1.0 - lam, V[1])
    resolution = 1
    while comb(resolution + k, k - 1) <= density:
        resolution += 1
    return simplex_lattice(k, resolution)[::-1] @ V


def _min_with_witness(name: str, values: np.ndarray, points: np.ndarray,
                      strict: bool = False) -> CheckResult:
    idx = int(np.argmin(values))
    return CheckResult(name=name, min_value=float(values[idx]),
                       witness=tuple(float(v) for v in points[idx]),
                       samples=len(values), strict=strict)


def _merge_min(results: list[CheckResult], name: str) -> CheckResult:
    best = min(results, key=lambda c: c.min_value)
    return CheckResult(name=name, min_value=best.min_value,
                       witness=best.witness,
                       samples=sum(c.samples for c in results),
                       strict=any(c.strict for c in results))


def verify_conic(candidate: RationalLyapunovCandidate, system: ConicSystem,
                 grid_density: int = 10_000, collect_samples: bool = False
                 ) -> Report:
    """Grid verification of the three cone inequalities.

    h and the interior decrease s0 are sampled on every cone section; the
    face decrease is sampled on every face section with eta recomputed by
    projection at each point, independent of the assembly branch logic.
    h must be positive (strict), as V is in verify_sos: an h that is zero
    somewhere on a section, such as the zero polynomial, is no certificate.
    """
    h = candidate.h
    r = candidate.r
    s0, = decrease_polynomials([candidate.h], candidate.r, system.f)
    report = Report(kind="conic",
                    sample_rows=[] if collect_samples else None)

    h_checks = []
    s0_checks = []
    h_s0 = MonomialTable([h, s0])
    for oid, simplex in cone_orthant_sections(system.cone):
        pts = barycentric_grid(simplex, grid_density)
        h_vals, s0_vals = h_s0(pts).T
        report.record(pts, f"h:orthant{oid}", h_vals)
        report.record(pts, f"s0:orthant{oid}", s0_vals)
        h_checks.append(_min_with_witness(f"h:orthant{oid}", h_vals, pts,
                                          strict=True))
        s0_checks.append(_min_with_witness(f"s0:orthant{oid}", s0_vals, pts))
    report.checks.append(_merge_min(h_checks, "h-on-sections"))
    report.checks.append(_merge_min(s0_checks, "s0-on-sections"))

    face_table = MonomialTable([*system.f, *h.gradient(), h])
    face_checks = []
    for i in range(1, system.cone.num_rows + 1):
        for simplex in face_sections(system.cone, i):
            pts = barycentric_grid(simplex, max(grid_density // 10, 100))
            vals = _face_decrease(pts, system, face_table, r)
            report.record(pts, f"face{i}", vals)
            face_checks.append(_min_with_witness(f"face{i}", vals, pts))
    if face_checks:
        report.checks.append(_merge_min(face_checks, "face-decrease"))
    report.notes.append(
        "eta taken from the projection at every face sample (independent "
        "of the branch polynomials)")
    return report


def _face_decrease(pts: np.ndarray, system: ConicSystem,
                   table: MonomialTable, r: int) -> np.ndarray:
    """-<|x|^2 grad h - 2r h x, f + eta> at each point of a face grid,
    from the table of [*f, *grad h, h].

    Rows with |<c, x>|/|c| <= ACTIVATION_TOL are active; eta is projected
    once for all points that share a set of active rows.
    """
    C = system.cone.C
    n = len(system.f)
    vals = table(pts)
    F, gh, h_vals = vals[:, :n], vals[:, n:2 * n], vals[:, 2 * n]
    scaled = np.abs(pts @ C.T) / np.linalg.norm(C, axis=1)
    patterns, which = _row_patterns(scaled <= ACTIVATION_TOL)
    eta = np.zeros_like(F)
    for k, pattern in enumerate(patterns):
        group = which == k
        eta[group] = eta_projection(F[group], C[pattern])
    nrm2 = np.einsum("ij,ij->i", pts, pts)
    lhs = nrm2[:, None] * gh - 2.0 * r * h_vals[:, None] * pts
    return -np.einsum("ij,ij->i", lhs, F + eta)


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
    shell_checks = []
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
        shell_checks.append(_min_with_witness(
            f"V-shell-{radius}", shell_vals, shell, strict=True))
    if shell_checks:
        report.checks.append(_merge_min(shell_checks, "V-positivity-shells"))
    else:
        report.notes.append("no shell intersects the set; positivity "
                            "checked on interior samples only")
        inner = pts[np.linalg.norm(pts, axis=1) > 1e-6]
        report.checks.append(_min_with_witness(
            "V-positivity-interior", MonomialTable([V])(inner)[:, 0], inner,
            strict=True))

    # strict decrease on the interior sample set (away from the origin)
    offorigin = pts[np.linalg.norm(pts, axis=1) > 1e-8]
    decrease = _inner_products(grad_v, system.f, offorigin)
    report.record(offorigin, "decrease-strict", -decrease)
    report.checks.append(_min_with_witness("decrease-strict", -decrease,
                                           offorigin, strict=True))

    # alignment <grad V, grad g_j> <= 0 on the active bands
    for j, grad_g in enumerate(S.gradients, start=1):
        band_pts = _band_points(j - 1, S, pts)
        if len(band_pts) == 0:
            report.notes.append(f"band of g_{j} not reached by the sampler")
            continue
        align = _inner_products(grad_v, grad_g, band_pts)
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


def _inner_products(us, ws, points: np.ndarray) -> np.ndarray:
    """sum_i u_i(x) w_i(x) at each point, for equal-length polynomial lists."""
    vals = MonomialTable([*us, *ws])(points)
    return np.einsum("ij,ij->i", vals[:, :len(us)], vals[:, len(us):])


def _band_points(index: int, S, pts: np.ndarray) -> np.ndarray:
    """Newton-project all samples onto g = 0 at once, g = S.generators[index].

    Each pass evaluates g and its cached gradient (S.gradients[index]) in
    one table on the points still live, and steps those points by
    y <- y - g(y) grad g(y) / |grad g(y)|^2.  A point retires as converged
    once |g(y)| <= BAND_WIDTH; it is dropped when |grad g(y)|^2 < 1e-30 or
    when it has not converged after 50 passes.  A converged point is kept
    if every other generator is >= -1e-9 there; kept points stay in input
    order.
    """
    g, grads = S.generators[index], S.gradients[index]
    g_grad = MonomialTable([g, *grads])
    y = np.array(pts, dtype=float)
    live = np.arange(len(y))
    converged = np.zeros(len(y), dtype=bool)
    for _ in range(50):
        vals = g_grad(y[live])
        done = np.abs(vals[:, 0]) <= BAND_WIDTH
        converged[live[done]] = True
        live, vals = live[~done], vals[~done]
        if len(live) == 0:
            break
        val, grad = vals[:, 0], vals[:, 1:]
        nrm2 = np.einsum("ij,ij->i", grad, grad)
        moving = nrm2 >= 1e-30
        live = live[moving]
        y[live] -= (val[moving] / nrm2[moving])[:, None] * grad[moving]
    y = y[converged]
    others = MonomialTable([other for other in S.generators if other is not g])
    return y[(others(y) >= -1e-9).all(axis=1)]
