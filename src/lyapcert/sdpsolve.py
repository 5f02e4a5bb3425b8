"""Small dense semidefinite-program solver.

Primal-dual path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, on problems in the block form

    minimize    sum_b <C_b, X_b>  +  c . u
    subject to  sum_b <A_b[i], X_b> +  D[i] . u  =  b[i],   i = 1..m
                X_b  positive semidefinite,   u free.

SemidefiniteProgram holds exactly what the iteration reads: per block b
one (m, s_b, s_b) array A_b of symmetric coefficient matrices, whose
(m, s_b^2) reshape is the block's vectorized equality matrix, the (m, k)
matrix D, the right-hand side b and the objective.

All factorizations are dense; the intended scale is blocks of a few tens
of rows and a few hundred equalities, where dense Cholesky on the Schur
complement is both fast and numerically uneventful.

Blocks of equal size are held as one (k, s, s) stack, and numpy's
cholesky, svd, eigvalsh and matmul run over the whole stack at once; the
result lists the blocks in input order.  Each block keeps only the rows
its equalities touch (about a third of them in the SOS programs).

Per iteration: the NT scaling R of each stack, R^-1 X R^-T = R^T Z R =
diag(lam), from two Cholesky factors and one SVD; the Schur complement
M_ij = sum_b <A_b[i], W A_b[j] W>, W = R R^T, each block adding one
product over its touched rows and columns; one Cholesky factor L of M,
with the ridge written onto M's diagonal, and the inverse L^-1 by blocked
recursion on the triangle, so that every solve with M (predictor,
corrector, refinement, free-variable saddle) is two matrix products; the
free variables' Schur complement D^T M^-1 D is factored and inverted the
same way once per iteration; and step lengths in the NT frame, where
X + a dX is PSD exactly when diag(lam) + a R^-1 dX R^-T is (Z likewise
with R^T dZ R).  numpy only: the SOS tier imports no scipy.

Callers are expected to pose problems with interior (the certificate
drivers always add an identity-shift variable), so no Slater checking is
attempted.

Infeasibility is reported heuristically: dual objective divergence beyond
a threshold while the dual residual stays small.  The flag on the result
records that this is evidence, not a certificate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

logger = logging.getLogger(__name__)

DIVERGENCE_THRESHOLD = 1e8
GAP_TOL = 1e-9       # relative duality gap the iteration stops at
FEAS_TOL = 1e-9      # relative primal and dual residual it stops at
MAX_ITER = 200


@dataclass
class SemidefiniteProgram:
    """minimize sum_b <C_b, X_b> + c . u  subject to
    sum_b <A_b[i], X_b> + D[i] . u = b[i]  for i = 1..m.

    A holds one (m, s_b, s_b) array of symmetric coefficient matrices per
    block, objective_blocks the s_b x s_b matrices C_b, D is (m, k) and
    free_objective the k entries of c.  The arrays are checked and
    symmetrized block by block, and the solver reads them as they are.  The
    certificate drivers build every SDP from a parsed spec, so a malformed
    one is a NumericalError, never bad user input.
    """

    A: list[np.ndarray]
    D: np.ndarray
    b: np.ndarray
    objective_blocks: list[np.ndarray]
    free_objective: np.ndarray

    def __post_init__(self):
        if not self.A:
            raise NumericalError("at least one block required")
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        m = len(self.b)
        if m == 0:
            raise NumericalError("at least one equality required")
        sizes = [np.shape(Ab)[-1] for Ab in self.A]
        if min(sizes) < 1:
            raise NumericalError("block sizes must be >= 1")
        if len(self.objective_blocks) != len(self.A):
            raise NumericalError("one objective matrix per block required")
        self.free_objective = np.asarray(self.free_objective,
                                         dtype=float).reshape(-1)
        self.D = np.asarray(self.D, dtype=float)
        if self.D.shape != (m, self.num_free):
            raise NumericalError(f"D has shape {self.D.shape}, expected "
                                 f"{(m, self.num_free)}")
        for bi, size in enumerate(sizes):
            self.objective_blocks[bi] = _check_sym(
                self.objective_blocks[bi], (size, size), f"objective block {bi}")
            self.A[bi] = _check_sym(self.A[bi], (m, size, size),
                                    f"equality block {bi}")

    @property
    def block_sizes(self) -> list[int]:
        return [Ab.shape[-1] for Ab in self.A]

    @property
    def num_free(self) -> int:
        return len(self.free_objective)


def _check_sym(mat, shape: tuple[int, ...], what: str) -> np.ndarray:
    """mat as floats of the given shape, with its last two axes symmetric
    within 1e-12 relative; an exactly symmetric array comes back as is."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != shape:
        raise NumericalError(f"{what} has shape {mat.shape}, expected {shape}")
    skew = mat - mat.swapaxes(-1, -2)
    if not skew.any():
        return mat
    if np.abs(skew).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        raise NumericalError(f"{what} is not symmetric")
    return 0.5 * (mat + mat.swapaxes(-1, -2))


@dataclass
class SdpResult:
    status: str  # "solution" | "infeasible" | "maxiter"
    blocks: list[np.ndarray] | None = None
    free: np.ndarray | None = None
    duals: np.ndarray | None = None
    dual_blocks: list[np.ndarray] | None = None
    primal_objective: float | None = None
    dual_objective: float | None = None
    gap: float | None = None
    equality_residual: float | None = None
    iterations: int = 0
    infeasibility_is_heuristic: bool = False


def _t(S: np.ndarray) -> np.ndarray:
    """The transpose of one matrix, or of each matrix of a stack."""
    return S.swapaxes(-1, -2)


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + _t(S))


def _diag(S: np.ndarray) -> np.ndarray:
    """The diagonal of one matrix, or of each matrix of a stack, as a
    writable view."""
    return np.einsum("...ii->...i", S)


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """R, R^-1 and lam with R^-1 X R^-T = R^T Z R = diag(lam): from the SVD
    Lz^T Lx = U diag(lam) V^T, R = Lx V lam^-1/2, R^-1 = lam^-1/2 U^T Lz^T.
    X and Z are one block or a (k, s, s) stack of blocks."""
    Lx = np.linalg.cholesky(X)
    Lz = np.linalg.cholesky(Z)
    U, lam, Vt = np.linalg.svd(_t(Lz) @ Lx)
    s = 1.0 / np.sqrt(lam)
    R = (Lx @ _t(Vt)) * s[..., None, :]
    Rinv = s[..., :, None] * (_t(U) @ _t(Lz))
    return R, Rinv, lam


def _nt_step(lam: np.ndarray, dMh: np.ndarray) -> float:
    """Largest step alpha <= 1 keeping diag(lam) + alpha dMh PSD, backed off
    by 0.98: I + alpha lam^-1/2 dMh lam^-1/2 must stay PSD.  For a stack,
    the step every block allows."""
    s = 1.0 / np.sqrt(lam)
    S = s[..., :, None] * dMh * s[..., None, :]
    wmin = np.linalg.eigvalsh(_sym(S)).min()
    return 1.0 if wmin >= 0 else min(1.0, 0.98 / -wmin)


def _nt_frame(scal, dX: list[np.ndarray], dZ: list[np.ndarray]):
    """The directions in the NT frame, R^-1 dX R^-T and R^T dZ R per block
    or stack, and the primal and dual step lengths they allow."""
    dXh = [Rinv @ dXb @ _t(Rinv) for (_, Rinv, _), dXb in zip(scal, dX)]
    dZh = [_t(R) @ dZb @ R for (R, _, _), dZb in zip(scal, dZ)]
    alpha_p = min(_nt_step(lam, h) for (_, _, lam), h in zip(scal, dXh))
    alpha_d = min(_nt_step(lam, h) for (_, _, lam), h in zip(scal, dZh))
    return dXh, dZh, alpha_p, alpha_d


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular L, written over L: with
    L = [[A, 0], [B, C]], L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]."""
    n = len(L)
    if n <= 32:
        L[...] = np.linalg.inv(L)
        return L
    h = n // 2
    A, C = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    L[h:, :h] = -(C @ L[h:, :h] @ A)
    return L


def solve_sdp(sdp: SemidefiniteProgram) -> SdpResult:
    """Solve the block SDP.

    A "solution" satisfies: min eigenvalue of each X block >= -1e-8,
    equality residual <= 1e-8, and relative duality gap <= 1e-7 (the solve
    targets the tighter GAP_TOL internally).  "maxiter" after MAX_ITER
    iterations is reported distinctly from "infeasible".  No free variables
    (k = 0) need no branch: numpy's empty products and solves give zeros.
    """
    m, k = len(sdp.b), sdp.num_free
    b, D = sdp.b, sdp.D
    sizes = sdp.block_sizes
    total_dim = sum(sizes)
    # blocks of equal size are one (count, s, s) stack; block bi is entry j
    # of stack g, and holds only the rows its equalities touch: A_b[rows]
    # and its (len(rows), s*s) reshape E, with the width spelled out
    # because a block may touch no row at all
    groups = [[bi for bi, s in enumerate(sizes) if s == size]
              for size in dict.fromkeys(sizes)]
    parts = [None] * len(sizes)
    for g, members in enumerate(groups):
        for j, bi in enumerate(members):
            rows = np.flatnonzero(sdp.A[bi].reshape(m, -1).any(axis=1))
            At = sdp.A[bi][rows]
            parts[bi] = (g, j, rows, At, At.reshape(len(rows), sizes[bi] ** 2))

    def stacked(mats: list[np.ndarray]) -> list[np.ndarray]:
        """The stacks of per-block matrices given in input order."""
        return [np.stack([mats[bi] for bi in members]) for members in groups]

    def apply_A(X: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(m)
        for g, j, rows, _, Eb in parts:
            out[rows] += Eb @ X[g][j].ravel()
        return out

    def apply_At(y: np.ndarray) -> list[np.ndarray]:
        return stacked([(Eb.T @ y[rows]).reshape(At.shape[1:])
                        for _, _, rows, At, Eb in parts])

    # rows that touch nothing decide feasibility immediately
    touched = (D != 0).any(axis=1)
    for _, _, rows, _, _ in parts:
        touched[rows] = True
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
        r_p = b - apply_A(X) - D @ u
        R_d = [Cg - Zg - Ag for Cg, Zg, Ag in zip(C, Z, apply_At(y))]
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
            logger.debug("iterate magnitude diverged; stopping at maxiter status")
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
        for g, j, rows, At, Eb in parts:
            Wb = W[g][j]
            M[np.ix_(rows, rows)] += (Wb @ At @ Wb).reshape(Eb.shape) @ Eb.T
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
            dy, du = saddle(r_p - apply_A(G), r_f)

            def steps(dy_vec):
                dZ = [_sym(Rg - Ag) for Rg, Ag in zip(R_d, apply_At(dy_vec))]
                dX = [_sym(Fg - Wg @ dZg @ Wg)
                      for Fg, Wg, dZg in zip(F, W, dZ)]
                return dX, dZ

            dX, dZ = steps(dy)
            for _ in range(2):
                res_p = r_p - apply_A(dX) - D @ du
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
        dXh_aff, dZh_aff, alpha_p, alpha_d = _nt_frame(scal, dX_aff, dZ_aff)
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
        _, _, alpha_p, alpha_d = _nt_frame(scal, dX, dZ)

        X = [_sym(Xg + alpha_p * dXg) for Xg, dXg in zip(X, dX)]
        Z = [_sym(Zg + alpha_d * dZg) for Zg, dZg in zip(Z, dZ)]
        u = u + alpha_p * du
        y = y + alpha_d * dy

    eq_residual = float(np.linalg.norm(b - apply_A(X) - D @ u, ord=np.inf))
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
            logger.debug("posterior check failed: eig %.2e residual %.2e",
                         worst_eig, eq_residual)
    return result


def dump_sdpa_sparse(sdp: SemidefiniteProgram) -> str:
    """SDPA sparse text of the dual form, for external cross-checks.

    The dual  max b.y  s.t.  C - At(y) >= 0,  Dt y = c  maps onto the SDPA
    standard  min (-b).y  s.t.  sum y_i F_i - F0 >= 0  with F_i = -A_i and
    F0 = -C; free-variable equalities become a paired diagonal block.
    """
    m = len(sdp.b)
    k = sdp.num_free
    sizes = list(sdp.block_sizes)
    if k:
        sizes.append(-2 * k)  # negative marks a diagonal block
    lines = [f"{m}", f"{len(sizes)}", " ".join(str(s) for s in sizes),
             " ".join(repr(float(-v)) for v in sdp.b)]

    def emit(matno: int, blkno: int, mat: np.ndarray):
        """The upper triangle of -mat: F_i = -A_i, F0 = -C."""
        for i, j in zip(*np.nonzero(np.triu(mat))):
            lines.append(f"{matno} {blkno} {i + 1} {j + 1} {-float(mat[i, j])!r}")

    def emit_free(matno: int, values: np.ndarray):
        for j in np.flatnonzero(values):
            v = float(values[j])
            lines.append(f"{matno} {len(sizes)} {j + 1} {j + 1} {v!r}")
            lines.append(f"{matno} {len(sizes)} {k + j + 1} {k + j + 1} {-v!r}")

    for b, Cb in enumerate(sdp.objective_blocks):
        emit(0, b + 1, Cb)
    emit_free(0, sdp.free_objective)
    for i in range(m):
        for b, Ab in enumerate(sdp.A):
            emit(i + 1, b + 1, Ab[i])
        emit_free(i + 1, sdp.D[i])
    return "\n".join(lines) + "\n"
