"""Reference implementations that only the tests use.

They check the library from outside it: the float kernels against a loop
over the terms, the closed-form gradient of
V = h/|x|^(2r) against central differences, the coefficient-matching
rows of the SOS conditions against hand-written Gram matrices, the
exact Gram expansion against one Fraction per entry
(gram_expand_by_fractions), the
monomial table against the per-call table the oracle built before it
and its layout against the parent walk it replaced (layout_by_parents),
the polynomial reader against the Fraction-per-token reader it replaced
(parse_polynomial_by_fractions), the band projection and rejection
sampler of the oracle against the
per-point Newton loop and the row-by-row sample list they replaced (with
values by one pow per point, term and variable), the
simulator's Euler kernel against the float kernels, tuple update and row
sums it replaced and its generated loop against the generator by terms
it replaced (euler_kernel_by_terms), its float-tuple steps against its
numpy step loop, its
sliding steps against the route through flow.step that they replaced
(simulate_by_steps), the set projection against scipy's SLSQP, and the
SDP solver's step lengths in the NT frame against a bound from the
Cholesky factor, its equality operator against the per-block loop
it replaced (apply_A_per_block, apply_At_per_block), and its padded
stack against the solver with one stack per block size that it replaced
(solve_sdp_by_size_stacks), and the cone's section table against the
orthant path and the one-row face path it replaced
(orthant_cells_by_pieces, face_cells_by_row), and the one reduction of
the SOS program against the sign-group split and the pruning pass it
replaced (split_by_sign_group, prune_forced_monomials).  trajectory_csv is
the CSV text of a trajectory, and trajectory_csv_by_cells the same text
one repr per cell, against the chunked writer.  simplex_diameter and
partition_diameter the longest vertex distance of a cell and of a
partition, which only the tests read.
decrease_by_products forms the cone decrease polynomials by full
polynomial products, against the monomial shifts of cop_lp.
verify_conic_by_s0 is the cone oracle that evaluated the LP's decrease
polynomial s0 on the sections and each face section apart, against the
pointwise decrease of oracle.verify_conic, and barycentric_grid_by_steps
and resolution_by_steps the grid whose lattice resolution was searched
one comb per step.  The point
checks of a system (field_at, cone_contains, set_values, set_contains) evaluate one
point at a time; a float value at one point is evaluate_float_terms, the
term loop that the float kernels match bit for bit.
"""

import io
import math
import re
from fractions import Fraction
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


def gram_expand_by_fractions(block, G):
    """The terms of block.expand(G), one Fraction added per Gram entry:
    the loop GramBlock.expand replaced."""
    terms = {}
    for mono, pairs in block.pairs_by_monomial.items():
        acc = Fraction(0)
        for i, j in pairs:
            acc += (1 if i == j else 2) * Fraction(float(G[i, j]))
        if acc:
            terms[mono] = acc
    return terms


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


def face_branch(cone, i, f, x):
    """(w(x), eta(x)) on face i (1-based, as a spec numbers its cone rows)
    of a cone from cop_lp.face_polynomials, eta the projection branch
    -(w(x) / |c_i|^2) c_i: the branch velocity over |c_i|^2, less f."""
    from lyapcert.cop_lp import face_polynomials
    w, velocity = face_polynomials(cone, i - 1, f)
    c = cone.C[i - 1]
    scaled = np.array([evaluate_float_terms(p, x) for p in velocity])
    fx = np.array([evaluate_float_terms(p, x) for p in f])
    return evaluate_float_terms(w, x), scaled / float(c @ c) - fx


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


def layout_by_parents(polys, n):
    """The monomial table's layout as built before the one-pass walk: the
    support closed under parents (one power less of the last variable) by
    one parent call per link, sorted by grlex_key.  Returns the order, the
    (parent row, variable) step of each monomial after 1, the coefficient
    matrix by float(c), and the total degrees of the support."""
    from lyapcert.poly import grlex_key

    def parent(mono):
        j = max(i for i, e in enumerate(mono) if e)
        return mono[:j] + (mono[j] - 1,) + mono[j + 1:], j

    monos = {m for p in polys for m in p.terms}
    degrees = frozenset(map(sum, monos))
    for mono in list(monos):
        while any(mono):
            mono = parent(mono)[0]
            if mono in monos:
                break
            monos.add(mono)
    order = sorted(monos | {(0,) * n}, key=grlex_key)
    row = {mono: i for i, mono in enumerate(order)}
    steps = [(row[up], j) for up, j in map(parent, order[1:])]
    coefs = np.zeros((len(polys), len(order)))
    for k, p in enumerate(polys):
        for mono, c in p.terms.items():
            coefs[k, row[mono]] = float(c)
    return order, steps, coefs, degrees


def values_per_call(polys, points) -> np.ndarray:
    """Every polynomial at every point, as (m, len(polys)), with the
    monomial layout rebuilt on each call (layout_by_parents), each row its
    parent's row times one coordinate; one coefficient-matrix product sums
    the terms."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    order, steps, coefs, _ = layout_by_parents(polys, points.shape[1])
    cols = np.ascontiguousarray(points.T)
    table = np.empty((len(order), len(points)))
    table[0] = 1.0
    for i, (up, j) in enumerate(steps, start=1):
        np.multiply(table[up], cols[j], out=table[i])
    return (coefs @ table).T


_TOKEN_BY_FRACTION = re.compile(
    r"\s*(?:(?P<sign>[+-])"
    r"|(?P<times>\*)"
    r"|(?P<power>\^)"
    r"|(?P<rational>\d+/\d+)"
    r"|(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+))")


def parse_polynomial_by_fractions(text: str, dimension: int):
    """The polynomial reader as it was before the integer decimal reader:
    a token list with columns, a Fraction(token) per decimal, Fraction
    products per factor and sums per term, and the validating Polynomial
    constructor."""
    from lyapcert.poly import Polynomial, PolynomialParseError

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_BY_FRACTION.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError(
                f"unexpected character {text[pos:].strip()[0]!r}", pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()

    if not tokens:
        raise PolynomialParseError("empty polynomial", 1)
    if len(tokens) == 1 and tokens[0][0] == "number" and tokens[0][1] == "0":
        return Polynomial.zero(dimension)

    terms = {}
    i = 0

    def parse_term(start, sign):
        i = start
        coeff = sign
        exps = [0] * dimension
        saw_factor = False
        while i < len(tokens):
            kind, value, col = tokens[i]
            if kind == "sign":
                break
            if kind == "times":
                if not saw_factor:
                    raise PolynomialParseError(
                        "'*' without preceding factor", col)
                i += 1
                continue
            if kind == "rational":
                p, q = value.split("/")
                if int(q) == 0:
                    raise PolynomialParseError("zero denominator", col)
                coeff *= Fraction(int(p), int(q))
            elif kind == "number":
                coeff *= Fraction(value)
            elif kind == "var":
                var = int(value[1:])
                if not 1 <= var <= dimension:
                    raise PolynomialParseError(
                        f"variable {value} outside dimension {dimension}", col)
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][0] == "power":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "number":
                        raise PolynomialParseError(
                            "'^' needs an integer exponent", tokens[i + 1][2])
                    etext = tokens[i + 2][1]
                    if not etext.isdigit():
                        raise PolynomialParseError(
                            "exponent must be an integer", tokens[i + 2][2])
                    e = int(etext)
                    i += 2
                exps[var - 1] += e
            else:
                raise PolynomialParseError(f"unexpected token {value!r}", col)
            saw_factor = True
            i += 1
        if not saw_factor:
            col = tokens[start][2] if start < len(tokens) else len(text)
            raise PolynomialParseError("empty term", col)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
        try:
            float(terms[mono])
        except OverflowError:
            raise PolynomialParseError("coefficient has no finite float value",
                                       tokens[start][2])
        return i

    sign = Fraction(1)
    if tokens[0][0] == "sign":
        sign = Fraction(-1) if tokens[0][1] == "-" else Fraction(1)
        i = 1
    while True:
        i = parse_term(i, sign)
        if i >= len(tokens):
            break
        kind, value, col = tokens[i]
        if kind != "sign":
            raise PolynomialParseError(f"expected '+' or '-', got {value!r}",
                                       col)
        sign = Fraction(-1) if value == "-" else Fraction(1)
        i += 1
        if i >= len(tokens):
            raise PolynomialParseError("dangling sign at end of input", col)
    return Polynomial(dimension, terms)


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
        values = system.S.values_kernel(z)
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


def orthant_cells_by_pieces(cone):
    """The cone's section cells as (orthant id, simplex) pairs, as the
    section cache built them apart from the faces: each orthant piece's
    rays pulled whole."""
    from lyapcert import cones
    rows = tuple(cones._primitive(row) for row in cone.C)
    return [(oid, cell)
            for oid, rays, tight in cones._pieces(rows, cone.dimension)
            for cell in cones._cells(rays, tight, tuple(range(len(rays))),
                                     cone.dimension)]


def face_cells_by_row(cone, row: int):
    """The section cells of the face where cone row `row` (0-based) is
    tight, without orthant ids, as the one-row face function cut them."""
    from lyapcert import cones
    rows = tuple(cones._primitive(r) for r in cone.C)
    parts = {}
    for _, rays, tight in cones._pieces(rows, cone.dimension):
        members = tuple(k for k, t in enumerate(tight) if row in t)
        if members:
            parts.setdefault(frozenset(rays[k] for k in members), (
                rays, tight, members, cones._rank([rays[k] for k in members])))
    top = max((part[3] for part in parts.values()), default=0)
    return [cell for part in parts.values() if part[3] == top
            for cell in cones._cells(*part)]


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


def apply_A_per_block(A, X) -> np.ndarray:
    """sum_b <A_b[i], X_b> for each row i, block by block over the rows each
    block touches; X lists one s_b x s_b matrix per block."""
    out = np.zeros(len(A[0]))
    for Ab, Xb in zip(A, X):
        rows, E = _touched(Ab)
        out[rows] += E @ Xb.ravel()
    return out


def apply_At_per_block(A, y) -> list[np.ndarray]:
    """sum_i y_i A_b[i] for each block."""
    out = []
    for Ab in A:
        rows, E = _touched(Ab)
        out.append((E.T @ y[rows]).reshape(Ab.shape[1:]))
    return out


def _nt_frame_per_stack(scal, dX: list[np.ndarray], dZ: list[np.ndarray]):
    """The directions in the NT frame, R^-1 dX R^-T and R^T dZ R per block
    or stack, and the primal and dual step lengths they allow: the largest
    alpha <= 1 keeping diag(lam) + alpha dMh PSD, that is
    I + alpha lam^-1/2 dMh lam^-1/2 PSD, backed off by 0.98.  One eigvalsh
    per stack takes both directions at once."""
    from lyapcert.sdpsolve import _sym, _t
    dXh = [Rinv @ dXb @ _t(Rinv) for (_, Rinv, _), dXb in zip(scal, dX)]
    dZh = [_t(R) @ dZb @ R for (R, _, _), dZb in zip(scal, dZ)]
    wmin = np.inf, np.inf
    for (_, _, lam), hx, hz in zip(scal, dXh, dZh):
        s = 1.0 / np.sqrt(lam)
        S = s[..., :, None] * np.stack([hx, hz]) * s[..., None, :]
        w = np.linalg.eigvalsh(_sym(S)).reshape(2, -1).min(axis=1)
        wmin = np.minimum(wmin, w)
    alpha_p, alpha_d = (1.0 if w >= 0 else min(1.0, 0.98 / -w) for w in wmin)
    return dXh, dZh, alpha_p, alpha_d


class SizeStackOperator:
    """A(X)_i = sum_b <A_b[i], X_b> on stacked blocks, and its adjoint.

    Blocks of equal size form one (k, s, s) stack: `groups` lists the
    blocks of each stack in input order, the stacks in the order their
    sizes first appear.  The entries of all stacks lie in one vector,
    stack after stack: stack g, block j of it, entry (p, q).  Every nonzero
    A_b[i]_pq is one triple (row i, its column in that vector, value), so
    A(X) and A^T(y) are one bincount each, with no dense m x N matrix;
    bincount adds its terms in input order, whatever the BLAS threads.  So
    A^T(y) is exactly symmetric: entries (p, q) and (q, p) of a block sum
    equal terms from the same rows in the same order.
    """

    def __init__(self, A: list[np.ndarray]):
        m = len(A[0])
        sizes = [Ab.shape[-1] for Ab in A]
        self.groups = [[bi for bi, s in enumerate(sizes) if s == size]
                       for size in dict.fromkeys(sizes)]
        self.shapes = [(len(members), sizes[members[0]], sizes[members[0]])
                       for members in self.groups]
        self.offsets = np.cumsum([0] + [k * s * s for k, s, _ in self.shapes])
        rows, cols, vals = [], [], []
        for start, members in zip(self.offsets, self.groups):
            for j, bi in enumerate(members):
                E = A[bi].reshape(m, -1)
                row, entry = np.nonzero(E)
                rows.append(row)
                cols.append(start + j * E.shape[1] + entry)
                vals.append(E[row, entry])
        self.m = m
        self.row = np.concatenate(rows)
        self.col = np.concatenate(cols)
        self.val = np.concatenate(vals)

    def __call__(self, X: list[np.ndarray]) -> np.ndarray:
        x = np.concatenate([Xg.ravel() for Xg in X])
        return np.bincount(self.row, weights=self.val * x[self.col],
                           minlength=self.m)

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        v = np.bincount(self.col, weights=self.val * y[self.row],
                        minlength=self.offsets[-1])
        return [v[lo:hi].reshape(shape) for lo, hi, shape
                in zip(self.offsets, self.offsets[1:], self.shapes)]


def solve_sdp_by_size_stacks(sdp):
    """Solve the block SDP with blocks of equal size stepped as one stack
    each, the solver that sdpsolve.solve_sdp replaced.

    A "solution" satisfies: min eigenvalue of each X block >= -1e-8,
    equality residual <= 1e-8, and relative duality gap <= 1e-7 (the solve
    targets the tighter GAP_TOL internally).  "maxiter" after MAX_ITER
    iterations is reported distinctly from "infeasible".  No free variables
    (k = 0) need no branch: numpy's empty products and solves give zeros.
    """
    from lyapcert.sdpsolve import (DIVERGENCE_THRESHOLD, FEAS_TOL, GAP_TOL,
                                   MAX_ITER, SdpResult, _diag, _nt_scaling,
                                   _sym, _t, _tril_inv)
    m, k = len(sdp.b), sdp.num_free
    b, D = sdp.b, sdp.D
    sizes = sdp.block_sizes
    total_dim = sum(sizes)
    # block bi is entry j of stack g.  For the Schur complement each block
    # keeps the rows its equalities touch, A_b[rows], its (len(rows), s*s)
    # reshape E, with the width spelled out because a block may touch no
    # row at all, and the grid of M those rows address
    op = SizeStackOperator(sdp.A)
    groups = op.groups
    parts = [None] * len(sizes)
    for g, members in enumerate(groups):
        for j, bi in enumerate(members):
            rows = np.flatnonzero(sdp.A[bi].reshape(m, -1).any(axis=1))
            At = sdp.A[bi][rows]
            parts[bi] = (g, j, At, At.reshape(len(rows), sizes[bi] ** 2),
                         np.ix_(rows, rows))

    def stacked(mats: list[np.ndarray]) -> list[np.ndarray]:
        """The stacks of per-block matrices given in input order."""
        return [np.stack([mats[bi] for bi in members]) for members in groups]

    # rows that touch nothing decide feasibility immediately
    touched = (D != 0).any(axis=1)
    touched[op.row] = True
    if (np.abs(b[~touched]) > FEAS_TOL).any():
        return SdpResult(status="infeasible", infeasibility_is_heuristic=False)

    scale = max(1.0, float(np.abs(b).max()))
    C = stacked(sdp.objective_blocks)
    X = stacked([scale * np.eye(s) for s in sizes])
    Z = stacked([scale * np.eye(s) for s in sizes])
    y = np.zeros(m)
    u = np.zeros(k)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + max(np.linalg.norm(Cb) for Cb in sdp.objective_blocks) \
        + np.linalg.norm(sdp.free_objective)

    def inner(P: list[np.ndarray], Q: list[np.ndarray]) -> float:
        return sum(float(np.vdot(Pg, Qg)) for Pg, Qg in zip(P, Q))

    status = "maxiter"
    iteration = 0
    for iteration in range(1, MAX_ITER + 1):
        r_p = b - op(X) - D @ u
        R_d = [Cg - Zg - Ag for Cg, Zg, Ag in zip(C, Z, op.adjoint(y))]
        r_f = sdp.free_objective - D.T @ y

        mu = inner(X, Z) / total_dim
        pobj = inner(C, X) + float(sdp.free_objective @ u)
        dobj = float(b @ y)
        rel_p = np.linalg.norm(r_p) / norm_b
        rel_d = (max(np.linalg.norm(Rg, axis=(1, 2)).max() for Rg in R_d)
                 + np.linalg.norm(r_f)) / norm_c
        gap = mu * total_dim / (1.0 + abs(pobj) + abs(dobj))

        if rel_p <= FEAS_TOL and rel_d <= FEAS_TOL and gap <= GAP_TOL:
            status = "solution"
            break
        if dobj > DIVERGENCE_THRESHOLD and rel_d <= 1e-4:
            return SdpResult(status="infeasible", iterations=iteration,
                             dual_objective=dobj,
                             infeasibility_is_heuristic=True)
        if max(abs(pobj), max(float(np.abs(Xg).max()) for Xg in X)) > 1e14:
            break

        # NT scaling per stack; nudge nearly singular iterates once
        try:
            scal = [_nt_scaling(Xg, Zg) for Xg, Zg in zip(X, Z)]
        except np.linalg.LinAlgError:
            for S in X + Z:
                trace = _diag(S).sum(axis=-1)
                _diag(S)[...] += 1e-12 * np.maximum(1.0, trace)[:, None]
            try:
                scal = [_nt_scaling(Xg, Zg) for Xg, Zg in zip(X, Z)]
            except np.linalg.LinAlgError:
                break
        W = [R @ _t(R) for R, _, _ in scal]

        # Schur complement M_ij = sum_b <A_i, W A_j W>, nonzero only on the
        # rows and columns block b touches
        M = np.zeros((m, m))
        for g, j, At, Eb, grid in parts:
            Wb = W[g][j]
            M[grid] += (Wb @ At @ Wb).reshape(Eb.shape) @ Eb.T
        # Cholesky factor of M + ridge I, the ridge set on M's diagonal
        diag = _diag(M).copy()
        ridge = 1e-13 * max(1.0, diag.sum() / m)
        for _ in range(8):
            _diag(M)[...] = diag + ridge
            try:
                L = np.linalg.cholesky(M)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        else:
            break  # no ridge made M factorable: stop the iteration
        # one triangular inverse per iteration: every solve is two products
        Linv = _tril_inv(L)

        def solve_M(rhs):
            return Linv.T @ (Linv @ rhs)

        MiD = solve_M(D)
        # the free variables' Schur complement, factored and inverted once
        try:
            Sinv = _tril_inv(np.linalg.cholesky(D.T @ MiD + 1e-13 * np.eye(k)))
        except np.linalg.LinAlgError:
            break

        def saddle(rhs1, rhs2):
            t = solve_M(rhs1)
            du = Sinv.T @ (Sinv @ (D.T @ t - rhs2))
            return t - MiD @ du, du

        def newton(F: list[np.ndarray]):
            """Linearized KKT solve for a centrality target F, with
            iterative refinement against residual creep in ill-conditioned
            late iterations."""
            G = [Fg - Wg @ Rg @ Wg for Fg, Wg, Rg in zip(F, W, R_d)]
            dy, du = saddle(r_p - op(G), r_f)

            def steps(dy_vec):
                # R_d and A^T(dy) are exactly symmetric, so dZ is too
                dZ = [Rg - Ag for Rg, Ag in zip(R_d, op.adjoint(dy_vec))]
                dX = [_sym(Fg - Wg @ dZg @ Wg)
                      for Fg, Wg, dZg in zip(F, W, dZ)]
                return dX, dZ

            dX, dZ = steps(dy)
            for _ in range(2):
                res_p = r_p - op(dX) - D @ du
                res_f = r_f - D.T @ dy
                if np.abs(res_p).max(initial=0.0) <= 1e-13 * norm_b and \
                        np.abs(res_f).max(initial=0.0) <= 1e-13 * norm_c:
                    break
                cy, cu = saddle(res_p, res_f)
                dy = dy + cy
                du = du + cu
                dX, dZ = steps(dy)
            return dX, du, dy, dZ

        # predictor (affine scaling) step
        dX_aff, du_aff, dy_aff, dZ_aff = newton([-Xg for Xg in X])
        dXh_aff, dZh_aff, alpha_p, alpha_d = _nt_frame_per_stack(scal, dX_aff, dZ_aff)
        mu_aff = inner([Xg + alpha_p * dXg for Xg, dXg in zip(X, dX_aff)],
                       [Zg + alpha_d * dZg for Zg, dZg in zip(Z, dZ_aff)]) \
            / total_dim
        sigma = min(1.0, max(1e-12, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the scaled space
        F = []
        for (R, _, lam), dXh, dZh in zip(scal, dXh_aff, dZh_aff):
            corr = 0.5 * (dXh @ dZh + dZh @ dXh)
            target = -corr
            _diag(target)[...] += sigma * mu - lam ** 2
            S = 2.0 * target / (lam[..., :, None] + lam[..., None, :])
            F.append(R @ S @ _t(R))
        dX, du, dy, dZ = newton(F)
        _, _, alpha_p, alpha_d = _nt_frame_per_stack(scal, dX, dZ)

        # dX is symmetrized and dZ exactly symmetric, so X and Z stay so
        X = [Xg + alpha_p * dXg for Xg, dXg in zip(X, dX)]
        Z = [Zg + alpha_d * dZg for Zg, dZg in zip(Z, dZ)]
        u = u + alpha_p * du
        y = y + alpha_d * dy

    eq_residual = float(np.linalg.norm(b - op(X) - D @ u, ord=np.inf))
    pobj = inner(C, X) + float(sdp.free_objective @ u)
    dobj = float(b @ y)
    result = SdpResult(
        status=status,
        blocks=[X[g][j] for g, j, *_ in parts], free=u, duals=y,
        dual_blocks=[Z[g][j] for g, j, *_ in parts],
        primal_objective=pobj, dual_objective=dobj,
        gap=inner(X, Z) / (1.0 + abs(pobj) + abs(dobj)),
        equality_residual=eq_residual,
        iterations=iteration)
    if status == "solution":
        worst_eig = min(float(np.linalg.eigvalsh(Xg).min()) for Xg in X)
        if worst_eig < -1e-8 or eq_residual > 1e-8:
            result.status = "maxiter"
    return result


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


def barycentric_grid_by_steps(simplex, density: int) -> np.ndarray:
    """oracle.barycentric_grid as it searched the lattice resolution, one
    comb per step up from 1."""
    from lyapcert.poly import simplex_lattice
    k = simplex.num_vertices
    V = simplex.vertex_array()
    if k == 1:
        return V.copy()
    if k == 2:
        lam = np.linspace(0.0, 1.0, max(density, 2))
        return np.outer(lam, V[0]) + np.outer(1.0 - lam, V[1])
    return simplex_lattice(k, resolution_by_steps(k, density))[::-1] @ V


def resolution_by_steps(k: int, density: int) -> int:
    """The lattice resolution of the step-by-step search, k >= 2."""
    resolution = 1
    while math.comb(resolution + k, k - 1) <= density:
        resolution += 1
    return resolution


def verify_conic_by_s0(candidate, system, grid_density: int = 10_000,
                       collect_samples: bool = False):
    """oracle.verify_conic as it evaluated the interior decrease: the
    polynomial s0 of cop_lp.decrease_polynomials on the orthant sections
    (a table of h and s0), and each face section's grid in a table call
    and eta projections of its own."""
    from lyapcert.cones import section_table
    from lyapcert.cop_lp import decrease_polynomials
    from lyapcert.oracle import Report, _min_with_witness
    from lyapcert.poly import MonomialTable
    h, r = candidate.h, candidate.r
    s0, = decrease_polynomials([h], r, system.f)
    report = Report(kind="conic",
                    sample_rows=[] if collect_samples else None)
    h_checks, s0_checks = [], []
    h_s0 = MonomialTable([h, s0])
    table = section_table(system.cone)
    for oid, simplex in table[()]:
        pts = barycentric_grid_by_steps(simplex, grid_density)
        h_vals, s0_vals = h_s0(pts).T
        report.record(pts, f"h:orthant{oid}", h_vals)
        report.record(pts, f"s0:orthant{oid}", s0_vals)
        h_checks.append(_min_with_witness(f"h:orthant{oid}", h_vals, pts,
                                          strict=True))
        s0_checks.append(_min_with_witness(f"s0:orthant{oid}", s0_vals, pts,
                                           strict=True))
    report.checks.append(_merge_min(h_checks, "h-on-sections"))
    report.checks.append(_merge_min(s0_checks, "s0-on-sections"))
    face_table = MonomialTable([*system.f, *h.gradient(), h])
    face_checks = []
    for i in range(1, system.cone.num_rows + 1):
        for _, simplex in table[(i - 1,)]:
            pts = barycentric_grid_by_steps(simplex,
                                            max(grid_density // 10, 100))
            vals = _face_decrease_per_section(pts, system, face_table, r)
            report.record(pts, f"face{i}", vals)
            face_checks.append(_min_with_witness(f"face{i}", vals, pts,
                                                 strict=True))
    if face_checks:
        report.checks.append(_merge_min(face_checks, "face-decrease"))
    report.notes.append(
        "eta taken from the projection at every face sample (independent "
        "of the branch polynomials)")
    return report


def _merge_min(results, name: str):
    """One CheckResult from per-section ones: the first smallest minimum
    and its witness, and the summed sample count."""
    from lyapcert.oracle import CheckResult
    best = min(results, key=lambda c: c.min_value)
    return CheckResult(name=name, min_value=best.min_value,
                       witness=best.witness,
                       samples=sum(c.samples for c in results),
                       strict=any(c.strict for c in results))


def _face_decrease_per_section(pts, system, table, r):
    """-<|x|^2 grad h - 2r h x, f + eta> on one face grid, eta projected
    once per pattern of active rows (|<c, x>|/|c| <= ACTIVATION_TOL)."""
    from lyapcert.oracle import ACTIVATION_TOL, _row_patterns
    from lyapcert.tangency import eta_projection
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


def euler_kernel_by_terms(field, constraints, derivatives=()):
    """poly.euler_kernel as it generated the loop before it left out the
    arithmetic that changes no bit: every term with its coefficient (1.0*
    and -1.0* included), every column of a cone row (zeros included), abs
    and max calls in the sliding step's tol line and KKT test, and the row
    of a step's eta from len(states) - 1.  The same signature and the same
    kernel contract."""
    from lyapcert.poly import (FEAS_TOL, KKT_TOL, MAX_PROJECTION_ITER,
                               STATE_TOL, _compile, _indent, _tuples)
    n = len(field)
    xs, fs, zs = ([f"{a}{j}" for j in range(n)] for a in "xfz")
    vs = [f"v{i}" for i in range(len(constraints))]
    lines = ["def kernel(times, states, dt, count, project, record, etas):",
             "    t = times[-1]", f"    {', '.join(xs)}, = states[-1]",
             "    add_time, add_state = times.append, states.append",
             *(["    slide = -1"] if derivatives else []),
             "    for _ in range(count):"]
    for f, p in zip(fs, field):
        lines += _indent(_sum_lines_by_terms(f, p, xs))
    lines += [f"        {z} = {x} + dt*{f}" for x, f, z in zip(xs, fs, zs)]
    for v, g in zip(vs, constraints):
        lines += _indent(_sum_lines_by_terms(v, g, zs))
    kept = " and ".join([f"{v} >= {-FEAS_TOL!r}" for v in vs]
                        + [_finite_by_terms(zs + vs)])
    lines += [f"        if {kept}:", f"            x = {_tuples([zs])}"]
    project = [f"x = project({_tuples([xs, zs, fs, vs])})"]
    if derivatives:
        lines += ["            slide = -1", "            record.clear()"]
        ys, a = ([f"{c}{j}" for j in range(n)] for c in "ya")
        qs = [f"q{k}" for k in range(len(constraints))]
        slides = []
        for i, (gradient, hessian) in enumerate(derivatives):
            def others(values):
                return [f"{v} >= {-FEAS_TOL!r}"
                        for k, v in enumerate(values) if k != i]
            keep = ["    if " + " and ".join(
                        ["lam > 0.0", *others(qs), f"q{i} >= {-STATE_TOL!r}",
                         _finite_by_terms(ys)]) + ":",
                    f"        x = {_tuples([ys])}",
                    f"        record[{i}] = lam", f"        slide = {i}",
                    "        etas[len(states) - 1] = " + _tuples([[
                        f"({y} - {x})/dt - {f}"
                        for y, x, f in zip(ys, xs, fs)]]),
                    "    break"]
            iteration = [line for q, g in zip(qs, constraints)
                         for line in _sum_lines_by_terms(q, g, ys)]
            iteration += ["    if not lam >= 0.0:", "        break",
                          *_newton_lines_by_terms(f"q{i}", gradient, hessian,
                                                  ys, keep)]
            warm = [line for name, d in zip(a, gradient)
                    for line in _sum_lines_by_terms(name, d, zs)]
            warm += [f"    {y} = {z} + lam*{aj}"
                     for y, z, aj in zip(ys, zs, a)]
            cold = ["    lam = 0.0",
                    *(f"    {y} = {z}" for y, z in zip(ys, zs))]
            body = ["    record.clear()",
                    f"    tol = {KKT_TOL!r}*(1.0 + "
                    f"{_biggest_by_terms([f'abs({z})' for z in zs])})",
                    f"    if slide == {i}:", *_indent(warm), "    else:",
                    *_indent(cold), "    while True:",
                    f"        for _ in range({MAX_PROJECTION_ITER}):",
                    *_indent(iteration, 2),
                    f"        if x is None and slide == {i}:",
                    "            slide = -1", *_indent(cold, 2),
                    "            continue", "        break"]
            slides += [("elif " if i else "if ") + " and ".join(
                           others(vs) + [_finite_by_terms(zs + vs)]) + ":",
                       *body]
        project = ["x = None", *slides, "if x is None:", *_indent(project),
                   "    slide = -1", "    if len(record) == 1:",
                   "        (i, lam), = record.items()",
                   "        if lam > 0.0:", "            slide = i"]
    lines += ["        else:", *_indent(project, 3),
              "        t += dt", "        add_time(t)", "        add_state(x)",
              f"        {', '.join(xs)}, = x"]
    return _compile(lines, [])


def _sum_lines_by_terms(var, form, names):
    """var summed from 0.0 over every term, each as its coefficient's
    repr times its powers, or over every column c_j*names[j] of a row."""
    from lyapcert.poly import _KERNEL_CHUNK, Polynomial
    if isinstance(form, Polynomial):
        code = ["*".join([repr(float(c))] + [
                    names[j] if e == 1 else f"{names[j]}**{e}"
                    for j, e in enumerate(m) if e])
                for m, c in form.sorted_terms()]
    else:
        code = [f"{float(c)!r}*{x}" for c, x in zip(form, names)]
    lines, head = [], "0.0"
    for k in range(0, len(code), _KERNEL_CHUNK):
        lines.append(f"    {var} = {head} + "
                     + " + ".join(code[k:k + _KERNEL_CHUNK]))
        head = var
    return lines or [f"    {var} = 0.0"]


def _biggest_by_terms(names):
    return f"max({', '.join(names)})" if len(names) > 1 else names[0]


def _finite_by_terms(names):
    return " + ".join(f"{a} - {a}" for a in names) + " == 0.0"


def _newton_lines_by_terms(g, gradient, hessian, ys, converged):
    """One Newton step of the one-generator projection, its converged
    test by abs and max calls."""
    n = len(ys)
    zs, rs, a, u, w = ([f"{c}{j}" for j in range(n)] for c in "zrauw")
    h = [[f"h{j}_{k}" for k in range(n)] for j in range(n)]
    lines = []
    for name, d in zip(a, gradient):
        lines += _sum_lines_by_terms(name, d, ys)
    lines += [f"    {r} = ({y} - {z}) - lam*{aj}"
              for r, y, z, aj in zip(rs, ys, zs, a)]
    lines += [f"    if abs({g}) <= tol*"
              f"{_biggest_by_terms([f'abs({v})' for v in a])} and "
              f"{_biggest_by_terms([f'abs({v})' for v in rs])} <= tol:",
              *["    " + line for line in converged]]
    upper = iter(hessian)
    for j in range(n):
        for k in range(j, n):
            lines += _sum_lines_by_terms(h[j][k], next(upper), ys)
    for j in range(n):
        lines.append(f"    d{j} = (1.0 - lam*{h[j][j]})"
                     + "".join(f" - l{j}_{k}*e{j}_{k}" for k in range(j)))
        lines += [f"    if not d{j} > 0.0:", "        break"]
        for i in range(j + 1, n):
            lines.append(f"    e{i}_{j} = -(lam*{h[j][i]})"
                         + "".join(f" - l{i}_{k}*e{j}_{k}" for k in range(j)))
            lines.append(f"    l{i}_{j} = e{i}_{j}/d{j}")
    for x, b in ((u, [f"-{r}" for r in rs]), (w, a)):
        for i in range(n):
            lines.append(f"    {x[i]} = {b[i]}" + "".join(
                f" - l{i}_{k}*{x[k]}" for k in range(i)))
        for i in reversed(range(n)):
            lines.append(f"    {x[i]} = {x[i]}/d{i}" + "".join(
                f" - l{k}_{i}*{x[k]}" for k in range(i + 1, n)))
    dot = (lambda left, right:
           " + ".join(f"{p}*{q}" for p, q in zip(left, right)))
    lines += [f"    aw = {dot(a, w)}", "    if not aw > 0.0:", "        break",
              f"    dlam = (-{g} - ({dot(a, u)}))/aw",
              "    lam = lam + dlam"]
    lines += [f"    {y} = {y} + ({uj} + dlam*{wj})"
              for y, uj, wj in zip(ys, u, w)]
    return lines


def split_by_sign_group(eq, system):
    """eq restricted to certificates invariant under the sign group.

    A monomial's character is its parity against each flip of the group.
    Each Gram block becomes one block per character class of its basis,
    named block#k in the order the classes first appear (a block of one
    class keeps its name); only the Gram terms inside a class and the
    invariant monomials of V and phi_j stay, and rows left as 0 = 0 go.
    The group average of a certificate is a certificate with the same
    shift t: g(Sx) = g(x), f(Sx) = S f(x) and grad g(x) = S grad g(Sx) keep
    each identity, and a sign conjugation keeps G - tI psd (or diagonally
    dominant).  An invariant Gram is zero across classes, so nothing is
    lost.  With the trivial group eq comes back as it is.
    """
    from lyapcert.poly import Mono
    from lyapcert.sos_cert import (EqualitySystem, GramBlock, LinearExpr,
                                   _parity, sign_group)
    group = sign_group(system)
    if not group:
        return eq

    def character(mono: Mono) -> tuple[int, ...]:
        odd = _parity(mono)
        return tuple((odd & b).bit_count() & 1 for b in group)

    split = EqualitySystem(free_groups={
        name: [m for m in basis if not any(character(m))]
        for name, basis in eq.free_groups.items()})
    where: dict[tuple[str, int], tuple[str, int]] = {}  # (block, k) -> new
    for name, block in eq.blocks.items():
        classes: dict[tuple[int, ...], list[int]] = {}
        for k, mono in enumerate(block.basis):
            classes.setdefault(character(mono), []).append(k)
        for c, members in enumerate(classes.values()):
            part = name if len(classes) == 1 else f"{name}#{c}"
            split.blocks[part] = GramBlock(part,
                                           [block.basis[k] for k in members])
            where.update(((name, k), (part, new))
                         for new, k in enumerate(members))
    kept = {(name, mono) for name, basis in split.free_groups.items()
            for mono in basis}
    for label, expr in eq.rows:
        gram = {}
        for (b, i, j), c in expr.gram.items():
            (bi, ni), (bj, nj) = where[b, i], where[b, j]
            if bi == bj:
                gram[bi, ni, nj] = c
        free = {key: c for key, c in expr.free.items() if key in kept}
        if any(gram.values()) or any(free.values()) or expr.constant:
            split.rows.append((label, LinearExpr(gram, free, expr.constant)))
    return split


def prune_forced_monomials(eq):
    """eq without the Gram monomials that its rows force to zero.

    A row with no free term, a zero constant and only diagonal Gram terms,
    their coefficients of one sign, sums nonnegative diagonals to zero, so
    each of them is zero at every feasible point; a PSD (or diagonally
    dominant) Gram with G_kk = 0 has row and column k zero, so monomial k
    leaves its block and every term on it leaves its rows.  That repeats
    in exact arithmetic until no row forces another monomial.  Rows left
    as 0 = 0 and blocks left empty are dropped; nothing else changes, and
    eq comes back as it is when nothing is forced.
    """
    from lyapcert.sos_cert import EqualitySystem, GramBlock, LinearExpr
    dropped: dict[str, set[int]] = {name: set() for name in eq.blocks}
    candidates = [list(expr.gram.items()) for _, expr in eq.rows
                  if not expr.constant and not any(expr.free.values())]
    while True:
        forced = set()
        for terms in candidates:
            live = [(b, i, j, c) for (b, i, j), c in terms
                    if c and i not in dropped[b] and j not in dropped[b]]
            if live and all(i == j for _, i, j, _ in live) and \
                    len({c > 0 for *_, c in live}) == 1:
                forced.update((b, i) for b, i, _, _ in live)
        if not forced:
            break
        for b, i in forced:
            dropped[b].add(i)
    if not any(dropped.values()):
        return eq

    pruned = EqualitySystem(free_groups=eq.free_groups)
    index: dict[str, dict[int, int]] = {}   # block -> old position -> new
    for name, block in eq.blocks.items():
        keep = [k for k in range(block.size) if k not in dropped[name]]
        index[name] = {k: new for new, k in enumerate(keep)}
        if keep:
            pruned.blocks[name] = GramBlock(name, [block.basis[k] for k in keep])
    for label, expr in eq.rows:
        gram = {}
        for (b, i, j), c in expr.gram.items():
            new = index[b]
            if i in new and j in new:
                gram[b, new[i], new[j]] = c
        if any(gram.values()) or any(expr.free.values()) or expr.constant:
            pruned.rows.append((label, LinearExpr(gram, expr.free,
                                                  expr.constant)))
    return pruned
