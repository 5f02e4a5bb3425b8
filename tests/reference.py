"""Reference implementations that only the tests use.

They check the library from outside it: the closed-form gradient of
V = h/|x|^(2r) against central differences, and the coefficient-matching
rows of the SOS conditions against hand-written Gram matrices.
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
