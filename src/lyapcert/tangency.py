"""Normal-cone projection: the selection eta that keeps motion in the set.

At a boundary point the admitted velocity is f(x) + eta with -eta the
Euclidean projection of f(x) onto the normal cone spanned by the outward
constraint normals.  The projection is computed by nonnegative least
squares over the multipliers (Lawson-Hanson active set): the constraint
counts here are small, and the active-set loop terminates exactly, so no
external QP solver is needed.

On a single cone face the projection has a closed polynomial form with two
branches switched by the sign of w_i(x) = <c_i, f(x)>; corner points with
several active constraints are outside that construction and are handled
conservatively by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cones import PolyhedralCone
from .poly import Polynomial

DEFAULT_ACTIVATION_TOL = 1e-9


class TangencyError(ValueError):
    pass


@dataclass
class SemialgebraicSet:
    """Set {x : g_i(x) >= 0} with a sampling bounding box.

    The set must contain the origin (g_i(0) >= 0 is checked); the box is
    used only by samplers and never constrains the set itself.
    """

    generators: list[Polynomial]
    box: list[tuple[float, float]]

    def __post_init__(self):
        if not self.generators:
            raise TangencyError("at least one generator required")
        n = self.generators[0].dimension
        for g in self.generators:
            if g.dimension != n:
                raise TangencyError("generator dimension mismatch")
        if len(self.box) != n:
            raise TangencyError("bounding box must have one interval per axis")
        for lo, hi in self.box:
            if not lo < hi:
                raise TangencyError("empty bounding-box interval")
        origin = (0,) * n
        for i, g in enumerate(self.generators):
            if g.evaluate(origin) < 0:
                raise TangencyError(
                    f"generator {i + 1} excludes the origin: g({origin}) = "
                    f"{float(g.evaluate(origin))}")

    @property
    def dimension(self) -> int:
        return self.generators[0].dimension

    def values(self, x) -> np.ndarray:
        return np.array([g.evaluate_float(x) for g in self.generators])

    def contains(self, x, tol: float = DEFAULT_ACTIVATION_TOL) -> bool:
        return bool((self.values(x) >= -tol).all())


def nnls(A: np.ndarray, b: np.ndarray, max_iter: int | None = None,
         tol: float = 1e-11) -> np.ndarray:
    """Lawson-Hanson nonnegative least squares: argmin_{x>=0} ||Ax - b||.

    Exact-terminating active-set iteration; max_iter guards against stalls
    on degenerate data and raises instead of returning a wrong answer.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 100 * max(n, 1)
    x = np.zeros(n)
    passive: list[int] = []
    w = A.T @ (b - A @ x)
    iters = 0
    while True:
        candidates = [j for j in range(n) if j not in passive and w[j] > tol]
        if not candidates:
            return x
        j_new = max(candidates, key=lambda j: (w[j], -j))
        passive.append(j_new)
        passive.sort()
        while True:
            iters += 1
            if iters > max_iter:
                raise TangencyError("nonnegative least squares did not converge")
            sub = A[:, passive]
            z_sub, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if (z_sub > tol).all():
                x = np.zeros(n)
                x[passive] = z_sub
                break
            # step toward z until the first passive coordinate hits zero
            alphas = []
            for k, j in enumerate(passive):
                if z_sub[k] <= tol:
                    denom = x[j] - z_sub[k]
                    alphas.append(x[j] / denom if denom > 0 else 0.0)
            alpha = min(alphas)
            z_full = np.zeros(n)
            z_full[passive] = z_sub
            x = x + alpha * (z_full - x)
            passive = [j for j in passive if x[j] > tol]
            for j in range(n):
                if j not in passive:
                    x[j] = 0.0
        w = A.T @ (b - A @ x)


def eta_projection(f_at_x: np.ndarray, active_gradients: Sequence[np.ndarray],
                   tol: float = 1e-9) -> np.ndarray:
    """The tangential correction eta at a boundary point.

    -eta is the projection of f onto the normal cone spanned by the
    outward normals -grad(g_j); computed as eta = -G lambda with
    G = [-grad g_j] columns and lambda the NNLS multipliers.  Afterward
    f + eta satisfies <grad g_j, f + eta> >= -tol with complementarity.
    """
    f = np.asarray(f_at_x, dtype=float)
    grads = [np.asarray(g, dtype=float) for g in active_gradients]
    if not grads:
        return np.zeros_like(f)
    for g in grads:
        if np.linalg.norm(g) == 0.0:
            raise TangencyError("active constraint gradient vanishes")
    G = -np.column_stack(grads)
    lam = nnls(G, f)
    eta = -G @ lam
    v = f + eta
    for g, lam_j in zip(grads, lam):
        s = float(g @ v)
        if s < -max(tol, 1e-12 * np.linalg.norm(g) * np.linalg.norm(v)):
            raise TangencyError(f"tangency violated after projection: {s:.3e}")
        if lam_j * s > max(tol, 1e-9 * abs(lam_j)):
            raise TangencyError("complementarity violated after projection")
    return eta


@dataclass(frozen=True)
class FaceEtaBranches:
    """Polynomial form of eta on one cone face.

    Branch A (eta = 0) is valid where w(x) = <c, f(x)> >= 0; branch B,
    eta(x) = -(w(x)/|c|^2) c, where w(x) <= 0.  eta_b_scaled stores
    |c|^2 * eta componentwise so the branch keeps rational coefficients;
    consumers divide by c_norm_sq or keep the positive factor, which
    preserves signs.
    """

    face_index: int
    w: Polynomial
    eta_b_scaled: tuple[Polynomial, ...]
    c_norm_sq: Fraction


def face_eta_polynomial(cone: PolyhedralCone, face_index: int,
                        f: Sequence[Polynomial]) -> FaceEtaBranches:
    """Both eta branches on face i of the cone, for a polynomial field f.

    face_index is 1-based.  The switching polynomial is w(x) = <c_i, f(x)>;
    on the face the two branches agree exactly where w = 0.
    """
    if not 1 <= face_index <= cone.num_rows:
        raise TangencyError(f"face index {face_index} out of range")
    n = cone.dimension
    if len(f) != n:
        raise TangencyError("vector field arity must match the dimension")
    c = [Fraction(float(v)) for v in cone.C[face_index - 1]]
    w = Polynomial.zero(n)
    for ck, fk in zip(c, f):
        w = w + fk.scale(ck)
    c_norm_sq = sum((ck * ck for ck in c), Fraction(0))
    eta_b = tuple((w.scale(-ck) for ck in c))
    return FaceEtaBranches(face_index=face_index, w=w,
                           eta_b_scaled=eta_b, c_norm_sq=c_norm_sq)
