"""Normal-cone projection: the selection eta that keeps motion in the set.

At a boundary point the admitted velocity is f(x) + eta with -eta the
Euclidean projection of f(x) onto the normal cone spanned by the outward
constraint normals, so f + eta is the projection of f onto the tangent
cone (Moreau's decomposition).  With one active normal c the projection
has the closed form eta = max(0, -<c, f>/|c|^2) c; with several, the
multipliers come from nonnegative least squares (scipy's Lawson-Hanson).
The same map projects a point onto a polyhedral cone {x : Cx >= 0}:
proj(z) = z + eta with C's rows as the normals.

On a single cone face the projection has a closed polynomial form with two
branches switched by the sign of w_i(x) = <c_i, f(x)>.  Corner points with
several active constraints are outside that construction: the cone LP
imposes each face's single-face rows there, and decrease under the joint
projection that acts at such points is not yet checked by the LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .cones import PolyhedralCone
from .errors import InputError, NumericalError
from .poly import Polynomial, float_kernel


@dataclass
class SemialgebraicSet:
    """Set {x : g_i(x) >= 0} with a sampling bounding box.

    The set must contain the origin (g_i(0) >= 0 is checked); the box is
    used only by samplers and never constrains the set itself.  gradients[i]
    holds grad g_i and hessians[i][j][k] the second partial d^2 g_i /
    dx_j dx_k, both built once here for the projections and samplers.
    """

    generators: list[Polynomial]
    box: list[tuple[float, float]]
    gradients: list[tuple[Polynomial, ...]] = field(init=False, repr=False,
                                                    compare=False)
    hessians: list[tuple[tuple[Polynomial, ...], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise InputError("at least one generator required")
        n = self.generators[0].dimension
        for g in self.generators:
            if g.dimension != n:
                raise InputError("generator dimension mismatch")
        if len(self.box) != n:
            raise InputError("bounding box must have one interval per axis")
        for lo, hi in self.box:
            if not lo < hi:
                raise InputError("empty bounding-box interval")
        origin = (0,) * n
        for i, g in enumerate(self.generators):
            if g.evaluate(origin) < 0:
                raise InputError(
                    f"generator {i + 1} excludes the origin: g({origin}) = "
                    f"{float(g.evaluate(origin))}")
        self.gradients = [g.gradient() for g in self.generators]
        self.hessians = [tuple(d.gradient() for d in grad)
                         for grad in self.gradients]

    @property
    def dimension(self) -> int:
        return self.generators[0].dimension

    @cached_property
    def derivatives(self) -> list[tuple[tuple[Polynomial, ...],
                                        list[Polynomial]]]:
        """(grad g_i, the upper triangle of hess g_i (j <= k, row by row))
        of each generator, as poly.euler_kernel takes them for its sliding
        step; float_kernels evaluates the same Hessian triangles."""
        n = self.dimension
        return [(grad, [hess[j][k] for j in range(n) for k in range(j, n)])
                for grad, hess in zip(self.gradients, self.hessians)]

    @cached_property
    def float_kernels(self):
        """(values, gradients, hessians): poly.float_kernel of the
        generators, one of each gradient, and one of the upper triangle
        of each Hessian."""
        return (float_kernel(self.generators),
                [float_kernel(grad) for grad in self.gradients],
                [float_kernel(upper) for _, upper in self.derivatives])


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares argmin_{x>=0} ||Ax - b|| (scipy).

    scipy.optimize is imported on first call, so set-up never loads it; a
    solve that hits the iteration cap raises NumericalError.
    """
    from scipy.optimize import nnls as lawson_hanson
    try:
        x, _ = lawson_hanson(np.asarray(A, dtype=float),
                             np.asarray(b, dtype=float))
    except RuntimeError as exc:
        raise NumericalError(
            f"nonnegative least squares did not converge: {exc}") from exc
    return x


def eta_projection(f_at_x: np.ndarray, active_gradients: Sequence[np.ndarray],
                   tol: float = 1e-9) -> np.ndarray:
    """The tangential correction eta at a boundary point, or at many.

    f_at_x is one field value (n,) or an (m, n) array of them that share
    the active gradients g_j.  eta = sum_j lambda_j g_j with lambda >= 0
    minimizing |f + eta|, so -eta is the projection of f onto the normal
    cone spanned by -g_j.  Afterward f + eta satisfies
    <g_j, f + eta> >= -tol with complementarity, or NumericalError.
    """
    f = np.asarray(f_at_x, dtype=float)
    F = np.atleast_2d(f)
    G = np.asarray(active_gradients, dtype=float).reshape(-1, F.shape[1])
    if len(G) == 0:
        return np.zeros_like(f)
    norm_sq = np.einsum("ij,ij->i", G, G)
    if (norm_sq == 0.0).any():
        raise NumericalError("active constraint gradient vanishes")
    if len(G) == 1:
        lam = np.maximum(0.0, -(F @ G[0]) / norm_sq[0])[:, None]
    else:
        lam = np.array([nnls(G.T, -row) for row in F])
    eta = lam @ G
    V = F + eta
    S = V @ G.T
    slack = np.maximum(tol, 1e-12 * np.sqrt(norm_sq)
                       * np.linalg.norm(V, axis=1)[:, None])
    if (S < -slack).any():
        raise NumericalError(
            f"tangency violated after projection: {S.min():.3e}")
    if (lam * S > np.maximum(tol, 1e-9 * lam)).any():
        raise NumericalError("complementarity violated after projection")
    return eta.reshape(f.shape)


@dataclass(frozen=True)
class FaceEtaBranches:
    """Polynomial form of eta on one cone face.

    Branch A (eta = 0) is valid where w(x) = <c, f(x)> >= 0; branch B,
    eta(x) = -(w(x)/|c|^2) c, where w(x) <= 0.  eta_b_scaled stores
    |c|^2 * eta componentwise so the branch keeps rational coefficients;
    consumers divide by c_norm_sq or keep the positive factor, which
    preserves signs.
    """

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
        raise InputError(f"face index {face_index} out of range")
    n = cone.dimension
    if len(f) != n:
        raise InputError("vector field arity must match the dimension")
    c = [Fraction(float(v)) for v in cone.C[face_index - 1]]
    w = Polynomial.zero(n)
    for ck, fk in zip(c, f):
        w = w + fk.scale(ck)
    c_norm_sq = sum((ck * ck for ck in c), Fraction(0))
    eta_b = tuple((w.scale(-ck) for ck in c))
    return FaceEtaBranches(w=w, eta_b_scaled=eta_b, c_norm_sq=c_norm_sq)
