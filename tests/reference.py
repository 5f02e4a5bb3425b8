"""Reference implementations that only the tests use.

They check the library from outside it: the closed-form gradient of
V = h/|x|^(2r) against central differences, the coefficient-matching
rows of the SOS conditions against hand-written Gram matrices, the
batched evaluation and band projection of the oracle against the
row-per-term broadcast and the per-point Newton loop they replaced, the
simulator's float-tuple steps against its numpy step loop, and the set
projection against scipy's SLSQP.
"""

import numpy as np


def candidate_gradient(candidate, x) -> np.ndarray:
    """Closed-form gradient (|x|^2 grad h - 2 r h x) / |x|^(2(r+1))."""
    x = np.asarray(x, dtype=float)
    nrm2 = float(x @ x)
    gh = np.array([g.evaluate_float(x) for g in candidate.h.gradient()])
    hval = candidate.h.evaluate_float(x)
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


def band_points_per_point(index, S, pts, band_width) -> np.ndarray:
    """Newton-project each sample onto g = 0 on its own, g = S.generators[index];
    keep the converged points still inside the set."""
    out = []
    g, grads = S.generators[index], S.gradients[index]
    for x in pts:
        y = x.copy()
        ok = False
        for _ in range(50):
            val = g.evaluate_float(y)
            if abs(val) <= band_width:
                ok = True
                break
            grad = np.array([c.evaluate_float(y) for c in grads])
            nrm2 = float(grad @ grad)
            if nrm2 < 1e-30:
                break
            y = y - (val / nrm2) * grad
        if ok and all(other.evaluate_float(y) >= -1e-9
                      for other in S.generators if other is not g):
            out.append(y)
    return np.array(out) if out else np.zeros((0, pts.shape[1]))


def simulate_cone_numpy(x0, T, dt, system, feas_tol=1e-8):
    """The simulator's step loop on numpy vectors, for a cone system: the
    field by field_at, z = x + dt f, project_cone, a containment check and
    eta = (x+ - x)/dt - f at every step.  Returns (states, eta) arrays."""
    from lyapcert.flow import project_cone
    x = np.asarray(x0, dtype=float)
    states, etas = [x.copy()], []
    for _ in range(int(round(T / dt))):
        fx = system.field_at(x)
        x_next = project_cone(x + dt * fx, system.cone)
        assert system.cone.contains(x_next, feas_tol)
        etas.append((x_next - x) / dt - fx)
        x = x_next
        states.append(x.copy())
    etas.append(np.zeros_like(x))
    return np.array(states), np.array(etas)


def slsqp_projection(z, S) -> np.ndarray:
    """argmin |y - z| over {g_i >= 0} by scipy's SLSQP, from the origin."""
    from scipy.optimize import minimize
    z = np.asarray(z, dtype=float)
    constraints = [
        {"type": "ineq", "fun": lambda y, g=g: g.evaluate_float(y),
         "jac": lambda y, grad=grad: np.array([d.evaluate_float(y)
                                                for d in grad])}
        for g, grad in zip(S.generators, S.gradients)]
    result = minimize(lambda y: 0.5 * float((y - z) @ (y - z)),
                      np.zeros_like(z), jac=lambda y: y - z,
                      constraints=constraints, method="SLSQP",
                      options={"ftol": 1e-16, "maxiter": 1000})
    return result.x
