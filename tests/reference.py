"""Reference implementations that only the tests use.

They check the library from outside it: the float kernels against a loop
over the terms, the closed-form gradient of
V = h/|x|^(2r) against central differences, the coefficient-matching
rows of the SOS conditions against hand-written Gram matrices, the
monomial table against the per-call table the oracle built before it,
the band projection and rejection sampler of the oracle against the
per-point Newton loop and the row-by-row sample list they replaced (with
values by one pow per point, term and variable), the
simulator's Euler kernel against the float kernels, tuple update and row
sums it replaced, its float-tuple steps against its numpy step loop, its
sliding steps against the route through flow.step that they replaced
(simulate_by_steps), the set projection against scipy's SLSQP, and the
SDP solver's step lengths in the NT frame against a bound from the
Cholesky factor, and its equality operator against the per-block loop
it replaced (apply_A_per_block, apply_At_per_block).  trajectory_csv is
the CSV text of a trajectory, and trajectory_csv_by_cells the same text
one repr per cell, against the chunked writer.  simplex_diameter and
partition_diameter the longest vertex distance of a cell and of a
partition, which only the tests read.
decrease_by_products forms the cone decrease polynomials by full
polynomial products, against the monomial shifts of cop_lp.  The point
checks of a system (field_at, cone_contains, set_values, set_contains) evaluate one
point at a time; a float value at one point is evaluate_float_terms, the
term loop that the float kernels match bit for bit.
"""

import io
import math
from operator import mul

import numpy as np


def field_at(system, x) -> np.ndarray:
    """f(x) of a ConicSystem or SemialgebraicSystem."""
    return np.array([evaluate_float_terms(c, x) for c in system.f])


def cone_contains(cone, x, tol: float = 1e-9) -> bool:
    """Cx >= -tol; a cone with no rows is the whole space."""
    x = np.asarray(x, dtype=float)
    if cone.num_rows == 0:
        return True
    return bool((cone.C @ x >= -tol).all())


def set_values(S, x) -> np.ndarray:
    """The generator values g_i(x) of a SemialgebraicSet."""
    return np.array([evaluate_float_terms(g, x) for g in S.generators])


def set_contains(S, x, tol: float = 1e-9) -> bool:
    """g_i(x) >= -tol for every generator."""
    return bool((set_values(S, x) >= -tol).all())


def candidate_gradient(candidate, x) -> np.ndarray:
    """Closed-form gradient (|x|^2 grad h - 2 r h x) / |x|^(2(r+1))."""
    x = np.asarray(x, dtype=float)
    nrm2 = float(x @ x)
    gh = np.array([evaluate_float_terms(g, x) for g in candidate.h.gradient()])
    hval = evaluate_float_terms(candidate.h, x)
    return (nrm2 * gh - 2.0 * candidate.r * hval * x) / nrm2 ** (candidate.r + 1)


def fd_gradient_check(candidate, points, step: float = 1e-5) -> float:
    """Max relative error of candidate_gradient against central finite
    differences of candidate.value; points must stay away from 0."""
    worst = 0.0
    for x in np.asarray(points, dtype=float):
        if np.linalg.norm(x) < 1e-3:
            raise ValueError("finite-difference points must satisfy |x| >= 1e-3")
        exact = candidate_gradient(candidate, x)
        fd = np.zeros_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = step
            fd[i] = (candidate.value(x + e) - candidate.value(x - e)) / (2 * step)
        err = np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-12)
        worst = max(worst, float(err))
    return worst


def gram_from_sos_terms(block, squares) -> np.ndarray:
    """Diagonal Gram for an explicit sum  sum_k c_k (x^m_k)^2, c_k >= 0."""
    G = np.zeros((block.size, block.size))
    index = {m: i for i, m in enumerate(block.basis)}
    for coeff, mono in squares:
        assert coeff >= 0, "squared terms need nonnegative coefficients"
        G[index[tuple(mono)], index[tuple(mono)]] += coeff
    return G


def equality_residual(eq, gram_values, free_values) -> float:
    """Worst row violation of an EqualitySystem for a concrete assignment."""
    worst = 0.0
    for _, expr in eq.rows:
        acc = float(expr.constant)
        for (name, i, j), coeff in expr.gram.items():
            acc += float(coeff) * float(gram_values[name][i, j])
        for (group, mono), coeff in expr.free.items():
            acc += float(coeff) * float(free_values.get(group, {}).get(mono, 0.0))
        worst = max(worst, abs(acc))
    return worst


def worst_residual(cert) -> float:
    return max(cert.residuals.values(), default=0.0)


def worst_gram_eigenvalue(cert) -> float:
    return min((m.min_eigenvalue for m in cert.multipliers.values()),
               default=0.0)


def evaluate_float_terms(poly, point) -> float:
    """Float value at one point by a loop over the terms: summed from 0.0
    in graded-lex order, each term its coefficient times x_j ** e for its
    nonzero exponents in variable order (x_j itself for e = 1)."""
    total = 0.0
    for mono, coeff in poly.sorted_terms():
        v = float(coeff)
        for j, e in enumerate(mono):
            if e:
                v *= point[j] if e == 1 else point[j] ** e
        total += v
    return total


def eval_many_broadcast(poly, points) -> np.ndarray:
    """Polynomial values by one pow per (point, term, variable)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if not poly.terms:
        return np.zeros(points.shape[0])
    items = poly.sorted_terms()
    exps = np.array([m for m, _ in items], dtype=np.int64).reshape(
        len(items), poly.dimension)
    coefs = np.array([float(c) for _, c in items])
    powers = points[:, None, :] ** exps[None, :, :]
    return powers.prod(axis=2) @ coefs


def values_per_call(polys, points) -> np.ndarray:
    """Every polynomial at every point, as (m, len(polys)), with the
    monomial layout rebuilt on each call: each monomial a polynomial uses,
    and its chain of parents down to 1, in graded-lex order, each row its
    parent's row times one coordinate; one coefficient-matrix product sums
    the terms."""
    from lyapcert.poly import grlex_key

    def parent(mono):
        j = max(i for i, e in enumerate(mono) if e)
        return mono[:j] + (mono[j] - 1,) + mono[j + 1:], j

    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    n = points.shape[1]
    monos = {m for p in polys for m in p.terms}
    for mono in list(monos):
        while any(mono):
            mono = parent(mono)[0]
            if mono in monos:
                break
            monos.add(mono)
    order = sorted(monos | {(0,) * n}, key=grlex_key)
    row = {mono: i for i, mono in enumerate(order)}
    cols = np.ascontiguousarray(points.T)
    table = np.empty((len(order), len(points)))
    table[0] = 1.0
    for i, mono in enumerate(order[1:], start=1):
        up, j = parent(mono)
        np.multiply(table[row[up]], cols[j], out=table[i])
    coefs = np.zeros((len(polys), len(order)))
    for k, p in enumerate(polys):
        for mono, c in p.terms.items():
            coefs[k, row[mono]] = float(c)
    return (coefs @ table).T


def band_points_per_point(index, S, pts, band_width) -> np.ndarray:
    """Newton-project each sample onto g = 0 on its own, g = S.generators[index];
    keep the converged points still inside the set."""
    out = []
    g, grads = S.generators[index], S.gradients[index]
    for x in pts:
        y = x.copy()
        ok = False
        for _ in range(50):
            val = evaluate_float_terms(g, y)
            if abs(val) <= band_width:
                ok = True
                break
            grad = np.array([evaluate_float_terms(c, y) for c in grads])
            nrm2 = float(grad @ grad)
            if nrm2 < 1e-30:
                break
            y = y - (val / nrm2) * grad
        if ok and all(evaluate_float_terms(other, y) >= -1e-9
                      for other in S.generators if other is not g):
            out.append(y)
    return np.array(out) if out else np.zeros((0, pts.shape[1]))


def rejection_sample_per_row(S, samples, rng) -> np.ndarray:
    """The oracle's rejection sampler as a list of accepted rows: batches of
    min(4096, 4 * samples) box draws, each generator by eval_many_broadcast,
    until `samples` rows are in or 200 * samples draws are spent."""
    n = S.dimension
    lo = np.array([b[0] for b in S.box])
    hi = np.array([b[1] for b in S.box])
    accepted = []
    attempts = 0
    max_attempts = 200 * samples
    while len(accepted) < samples and attempts < max_attempts:
        batch = rng.uniform(lo, hi, size=(min(4096, samples * 4), n))
        attempts += len(batch)
        mask = np.ones(len(batch), dtype=bool)
        for g in S.generators:
            mask &= eval_many_broadcast(g, batch) >= 0.0
        accepted.extend(batch[mask])
    if not accepted:
        raise ValueError("empty sample: bounding box misconfigured for the set")
    return np.array(accepted[:samples])


def euler_step_floats(system, x, dt):
    """(z, f(x), constraint values at z) as the simulator's step formed
    them before its Euler kernel: f by float_kernel(f), z by a tuple
    update, a cone's values by one row sum per row of C, a set's by its
    generators' float kernel."""
    from lyapcert.cop_lp import ConicSystem
    from lyapcert.poly import float_kernel
    fx = float_kernel(system.f)(x)
    z = tuple([a + dt * b for a, b in zip(x, fx)])
    if isinstance(system, ConicSystem):
        values = tuple([sum(map(mul, row, z)) for row in system.cone.rows])
    else:
        values = system.S.float_kernels[0](z)
    return z, fx, values


def simulate_by_steps(x0, T, dt, system):
    """simulate's trajectory by the route before the generated loop slid
    along the boundary: each step forms (z, f(x), values) by
    euler_step_floats, keeps z when every value is finite and
    >= -FEAS_TOL, and hands every other step to flow.step, with the
    multipliers record cleared after a free step.  Returns the
    Trajectory, without V."""
    from lyapcert import flow
    x = tuple(map(float, x0))
    times, states, etas, record = [0.0], [x], {}, {}
    for row in range(int(round(T / dt))):
        z, fx, values = euler_step_floats(system, x, dt)
        if all(v >= -flow.FEAS_TOL for v in values) \
                and all(map(math.isfinite, z + values)):
            x = z
        else:
            if row - 1 not in etas:
                record.clear()
            x, etas[row] = flow.step(x, z, fx, values, dt, system, record)
        times.append(times[-1] + dt)
        states.append(x)
    states = np.array(states)
    eta_log = np.zeros_like(states)
    if etas:
        eta_log[list(etas)] = list(etas.values())
    return flow.Trajectory(np.array(times), states, eta_log)


def simulate_cone_numpy(x0, T, dt, system, feas_tol=1e-8):
    """The simulator's step loop on numpy vectors, for a cone system: the
    field by field_at, z = x + dt f, project_cone, a containment check and
    eta = (x+ - x)/dt - f at every step, or eta = 0 when z is in the cone
    within FEAS_TOL and kept.  Returns (states, eta) arrays."""
    from lyapcert.flow import FEAS_TOL, project_cone
    x = np.asarray(x0, dtype=float)
    states, etas = [x.copy()], []
    for _ in range(int(round(T / dt))):
        fx = field_at(system, x)
        z = x + dt * fx
        x_next = np.asarray(project_cone(z, system.cone))
        assert cone_contains(system.cone, x_next, feas_tol)
        if cone_contains(system.cone, z, FEAS_TOL):
            etas.append(np.zeros_like(x))
        else:
            etas.append((x_next - x) / dt - fx)
        x = x_next
        states.append(x.copy())
    etas.append(np.zeros_like(x))
    return np.array(states), np.array(etas)


def trajectory_csv(traj) -> str:
    """The text that traj.write_csv writes."""
    out = io.StringIO()
    traj.write_csv(out)
    return out.getvalue()


def trajectory_csv_by_cells(traj) -> str:
    """The CSV of traj one cell at a time: the header, then each row's t,
    x, eta and V (when there is one) as ",".join of their reprs."""
    n = traj.states.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] \
        + [f"eta{i + 1}" for i in range(n)]
    columns = [traj.times[:, None], traj.states, traj.eta_log]
    if traj.v_values is not None:
        header.append("V")
        columns.append(traj.v_values[:, None])
    lines = [",".join(header)]
    for row in np.hstack(columns).tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def simplex_diameter(simplex) -> float:
    """The largest distance between two vertices (0.0 for one vertex)."""
    V = simplex.vertex_array()
    diffs = V[:, None, :] - V[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def partition_diameter(part) -> float:
    """The largest simplex_diameter of the partition's cells."""
    return max(map(simplex_diameter, part.cells), default=0.0)


def slsqp_projection(z, S) -> np.ndarray:
    """argmin |y - z| over {g_i >= 0} by scipy's SLSQP, from the origin."""
    from scipy.optimize import minimize
    z = np.asarray(z, dtype=float)
    constraints = [
        {"type": "ineq", "fun": lambda y, g=g: evaluate_float_terms(g, y),
         "jac": lambda y, grad=grad: np.array([evaluate_float_terms(d, y)
                                                for d in grad])}
        for g, grad in zip(S.generators, S.gradients)]
    result = minimize(lambda y: 0.5 * float((y - z) @ (y - z)),
                      np.zeros_like(z), jac=lambda y: y - z,
                      constraints=constraints, method="SLSQP",
                      options={"ftol": 1e-16, "maxiter": 1000})
    return result.x


def max_step(M, dM, fraction: float = 0.98) -> float:
    """Largest step alpha <= 1 with M + alpha dM staying PSD (fraction
    back-off), from the Cholesky factor of M and the eigenvalues of
    L^-1 dM L^-T."""
    L = np.linalg.cholesky(M)
    Linv = np.linalg.inv(L)
    S = Linv @ dM @ Linv.T
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    wmin = w.min()
    if wmin >= 0:
        return 1.0
    return min(1.0, fraction / (-wmin))


def _touched(Ab):
    """The rows a block's equalities touch, and its (rows, s*s) matrix,
    with the width spelled out because a block may touch no row."""
    m, s = len(Ab), Ab.shape[-1]
    rows = np.flatnonzero(Ab.reshape(m, -1).any(axis=1))
    return rows, Ab[rows].reshape(len(rows), s * s)


def apply_A_per_block(A, groups, X) -> np.ndarray:
    """sum_b <A_b[i], X_b> for each row i, block by block over the rows each
    block touches; X holds one (k, s, s) stack per group of blocks."""
    out = np.zeros(len(A[0]))
    for Xg, members in zip(X, groups):
        for Xb, bi in zip(Xg, members):
            rows, E = _touched(A[bi])
            out[rows] += E @ Xb.ravel()
    return out


def apply_At_per_block(A, groups, y) -> list[np.ndarray]:
    """sum_i y_i A_b[i] for each block, stacked as the groups say."""
    def block(Ab):
        rows, E = _touched(Ab)
        return (E.T @ y[rows]).reshape(Ab.shape[1:])
    return [np.stack([block(A[bi]) for bi in members]) for members in groups]


def decrease_by_products(hs, r, velocity):
    """-|x|^2 <grad h, v> + 2 r h <x, v> for each h, by full polynomial
    products, the formula cop_lp.decrease_polynomials replaced."""
    from lyapcert.poly import Polynomial, norm_squared
    n = velocity[0].dimension
    nrm = norm_squared(n)
    xdotv = Polynomial.zero(n)
    for i, vi in enumerate(velocity):
        xdotv = xdotv + Polynomial.variable(n, i) * vi
    out = []
    for h in hs:
        gdotv = Polynomial.zero(n)
        for gi, vi in zip(h.gradient(), velocity):
            gdotv = gdotv + gi * vi
        out.append(-(nrm * gdotv) + (2 * r) * (h * xdotv))
    return out
