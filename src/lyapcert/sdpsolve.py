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

Per iteration: the NT scaling R of each block, R^-1 X R^-T = R^T Z R =
diag(lam), from two Cholesky factors and one SVD; the Schur complement
M_ij = sum_b <A_b[i], W A_b[j] W>, W = R R^T, from one broadcast product
per block; one Cholesky factor L of M and one inverse L^-1, so that every
solve with M (predictor, corrector, refinement, free-variable saddle) is
two matrix products; and step lengths in the NT frame, where X + a dX is
PSD exactly when diag(lam) + a R^-1 dX R^-T is (Z likewise with
R^T dZ R).  numpy only: the SOS tier imports no scipy.

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

logger = logging.getLogger(__name__)

DIVERGENCE_THRESHOLD = 1e8


class SdpError(RuntimeError):
    """A malformed SDP.  The certificate drivers build every SDP from a
    parsed spec, so this is a numerical failure, never bad user input."""


@dataclass
class SemidefiniteProgram:
    """minimize sum_b <C_b, X_b> + c . u  subject to
    sum_b <A_b[i], X_b> + D[i] . u = b[i]  for i = 1..m.

    A holds one (m, s_b, s_b) array of symmetric coefficient matrices per
    block, objective_blocks the s_b x s_b matrices C_b, D is (m, k) and
    free_objective the k entries of c.  The arrays are checked and
    symmetrized block by block, and the solver reads them as they are.
    """

    A: list[np.ndarray]
    D: np.ndarray
    b: np.ndarray
    objective_blocks: list[np.ndarray]
    free_objective: np.ndarray

    def __post_init__(self):
        if not self.A:
            raise SdpError("at least one block required")
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        m = len(self.b)
        if m == 0:
            raise SdpError("at least one equality required")
        sizes = [np.shape(Ab)[-1] for Ab in self.A]
        if min(sizes) < 1:
            raise SdpError("block sizes must be >= 1")
        if len(self.objective_blocks) != len(self.A):
            raise SdpError("one objective matrix per block required")
        self.free_objective = np.asarray(self.free_objective,
                                         dtype=float).reshape(-1)
        self.D = np.asarray(self.D, dtype=float)
        if self.D.shape != (m, self.num_free):
            raise SdpError(f"D has shape {self.D.shape}, expected "
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
        raise SdpError(f"{what} has shape {mat.shape}, expected {shape}")
    skew = mat - mat.swapaxes(-1, -2)
    if not skew.any():
        return mat
    if np.abs(skew).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        raise SdpError(f"{what} is not symmetric")
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


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """R, R^-1 and lam with R^-1 X R^-T = R^T Z R = diag(lam): from the SVD
    Lz^T Lx = U diag(lam) V^T, R = Lx V lam^-1/2, R^-1 = lam^-1/2 U^T Lz^T."""
    Lx = np.linalg.cholesky(X)
    Lz = np.linalg.cholesky(Z)
    U, lam, Vt = np.linalg.svd(Lz.T @ Lx)
    s = 1.0 / np.sqrt(lam)
    R = (Lx @ Vt.T) * s
    Rinv = s[:, None] * (U.T @ Lz.T)
    return R, Rinv, lam


def _nt_step(lam: np.ndarray, dMh: np.ndarray) -> float:
    """Largest step alpha <= 1 keeping diag(lam) + alpha dMh PSD, backed off
    by 0.98: I + alpha lam^-1/2 dMh lam^-1/2 must stay PSD."""
    s = 1.0 / np.sqrt(lam)
    S = s[:, None] * dMh * s
    wmin = np.linalg.eigvalsh(0.5 * (S + S.T)).min()
    return 1.0 if wmin >= 0 else min(1.0, 0.98 / -wmin)


def _nt_frame(scal, dX: list[np.ndarray], dZ: list[np.ndarray]):
    """The directions in the NT frame, R^-1 dX R^-T and R^T dZ R per block,
    and the primal and dual step lengths they allow."""
    dXh = [Rinv @ dXb @ Rinv.T for (_, Rinv, _), dXb in zip(scal, dX)]
    dZh = [R.T @ dZb @ R for (R, _, _), dZb in zip(scal, dZ)]
    alpha_p = min(_nt_step(lam, h) for (_, _, lam), h in zip(scal, dXh))
    alpha_d = min(_nt_step(lam, h) for (_, _, lam), h in zip(scal, dZh))
    return dXh, dZh, alpha_p, alpha_d


def solve_sdp(sdp: SemidefiniteProgram, gap_tol: float = 1e-9,
              feas_tol: float = 1e-9, max_iter: int = 200) -> SdpResult:
    """Solve the block SDP.

    A "solution" satisfies: min eigenvalue of each X block >= -1e-8,
    equality residual <= 1e-8, and relative duality gap <= 1e-7 (the solve
    targets the tighter gap_tol internally).  "maxiter" after max_iter
    iterations is reported distinctly from "infeasible".
    """
    m, k, nb = len(sdp.b), sdp.num_free, len(sdp.A)
    b, D = sdp.b, sdp.D
    total_dim = sum(sdp.block_sizes)
    # per block: A_b viewed as an (m, s*s) matrix of vectorized equalities
    E = [Ab.reshape(m, -1) for Ab in sdp.A]

    def apply_A(X: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(m)
        for Eb, Xb in zip(E, X):
            out += Eb @ Xb.ravel()
        return out

    def apply_At(y: np.ndarray) -> list[np.ndarray]:
        return [(Eb.T @ y).reshape(s, s) for Eb, s in zip(E, sdp.block_sizes)]

    # rows that touch nothing decide feasibility immediately
    touched = (D != 0).any(axis=1)
    for Eb in E:
        touched |= (Eb != 0).any(axis=1)
    if (np.abs(b[~touched]) > feas_tol).any():
        return SdpResult(status="infeasible", infeasibility_is_heuristic=False)

    scale = max(1.0, float(np.abs(b).max()))
    X = [scale * np.eye(s) for s in sdp.block_sizes]
    Z = [scale * np.eye(s) for s in sdp.block_sizes]
    y = np.zeros(m)
    u = np.zeros(k)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + max(np.linalg.norm(Cb) for Cb in sdp.objective_blocks) \
        + (np.linalg.norm(sdp.free_objective) if k else 0.0)

    status = "maxiter"
    iteration = 0
    for iteration in range(1, max_iter + 1):
        Aty = apply_At(y)
        r_p = b - apply_A(X) - (D @ u if k else 0.0)
        R_d = [sdp.objective_blocks[bi] - Z[bi] - Aty[bi] for bi in range(nb)]
        r_f = sdp.free_objective - D.T @ y if k else np.zeros(0)

        mu = sum(float(np.tensordot(Xb, Zb)) for Xb, Zb in zip(X, Z)) / total_dim
        pobj = sum(float(np.tensordot(Cb, Xb))
                   for Cb, Xb in zip(sdp.objective_blocks, X)) \
            + (float(sdp.free_objective @ u) if k else 0.0)
        dobj = float(b @ y)
        rel_p = np.linalg.norm(r_p) / norm_b
        rel_d = (max(np.linalg.norm(Rb) for Rb in R_d)
                 + (np.linalg.norm(r_f) if k else 0.0)) / norm_c
        gap = mu * total_dim / (1.0 + abs(pobj) + abs(dobj))

        if rel_p <= feas_tol and rel_d <= feas_tol and gap <= gap_tol:
            status = "solution"
            break
        if dobj > DIVERGENCE_THRESHOLD and rel_d <= 1e-4:
            return SdpResult(status="infeasible", iterations=iteration,
                             dual_objective=dobj,
                             infeasibility_is_heuristic=True)
        if max(abs(pobj), max(float(np.abs(Xb).max()) for Xb in X)) > 1e14:
            logger.debug("iterate magnitude diverged; stopping at maxiter status")
            break

        # NT scaling per block; nudge nearly singular iterates once
        try:
            scal = [_nt_scaling(X[bi], Z[bi]) for bi in range(nb)]
        except np.linalg.LinAlgError:
            for bi in range(nb):
                size = sdp.block_sizes[bi]
                X[bi] = X[bi] + 1e-12 * max(1.0, np.trace(X[bi])) * np.eye(size)
                Z[bi] = Z[bi] + 1e-12 * max(1.0, np.trace(Z[bi])) * np.eye(size)
            try:
                scal = [_nt_scaling(X[bi], Z[bi]) for bi in range(nb)]
            except np.linalg.LinAlgError:
                break
        W = [R @ R.T for R, _, _ in scal]

        # Schur complement M_ij = sum_b <A_i, W A_j W>
        M = np.zeros((m, m))
        for Ab, Eb, Wb in zip(sdp.A, E, W):
            M += (Wb @ Ab @ Wb).reshape(m, -1) @ Eb.T
        ridge = 1e-13 * max(1.0, np.trace(M) / m)

        def factor(Mmat, ridge):
            for _ in range(8):
                try:
                    return np.linalg.cholesky(Mmat + ridge * np.eye(m)), ridge
                except np.linalg.LinAlgError:
                    ridge *= 100.0
            raise np.linalg.LinAlgError("schur factorization failed")

        try:
            L, ridge = factor(M, ridge)
        except np.linalg.LinAlgError:
            break
        # one triangular inverse per iteration: every solve is two products
        Linv = np.linalg.inv(L)

        def solve_M(rhs):
            return Linv.T @ (Linv @ rhs)

        if k:
            MiD = solve_M(D)
            S_free = D.T @ MiD + 1e-13 * np.eye(k)

        def saddle(rhs1, rhs2):
            t = solve_M(rhs1)
            if not k:
                return t, np.zeros(0)
            du = np.linalg.solve(S_free, D.T @ t - rhs2)
            return t - MiD @ du, du

        def newton(F: list[np.ndarray]):
            """Linearized KKT solve for a centrality target F, with
            iterative refinement against residual creep in ill-conditioned
            late iterations."""
            rhs1 = r_p.copy()
            for bi in range(nb):
                G = F[bi] - W[bi] @ R_d[bi] @ W[bi]
                rhs1 -= E[bi] @ G.ravel()
            dy, du = saddle(rhs1, r_f)
            dZ: list[np.ndarray] = []
            dX: list[np.ndarray] = []

            def recompute_steps(dy_vec):
                dZ.clear()
                dX.clear()
                Atdy = apply_At(dy_vec)
                for bi in range(nb):
                    dZb = R_d[bi] - Atdy[bi]
                    dZb = 0.5 * (dZb + dZb.T)
                    dXb = F[bi] - W[bi] @ dZb @ W[bi]
                    dX.append(0.5 * (dXb + dXb.T))
                    dZ.append(dZb)

            recompute_steps(dy)
            for _ in range(2):
                res_p = r_p - apply_A(dX) - (D @ du if k else 0.0)
                res_f = (r_f - D.T @ dy) if k else np.zeros(0)
                if np.abs(res_p).max(initial=0.0) <= 1e-13 * norm_b and \
                        np.abs(res_f).max(initial=0.0) <= 1e-13 * norm_c:
                    break
                cy, cu = saddle(res_p, res_f)
                dy = dy + cy
                du = du + cu
                recompute_steps(dy)
            return dX, du, dy, dZ

        # predictor (affine scaling) step
        dX_aff, du_aff, dy_aff, dZ_aff = newton([-Xb for Xb in X])
        dXh_aff, dZh_aff, alpha_p, alpha_d = _nt_frame(scal, dX_aff, dZ_aff)
        mu_aff = sum(
            float(np.tensordot(X[bi] + alpha_p * dX_aff[bi],
                               Z[bi] + alpha_d * dZ_aff[bi]))
            for bi in range(nb)) / total_dim
        sigma = min(1.0, max(1e-12, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the scaled space
        F = []
        for (R, _, lam), dXh, dZh in zip(scal, dXh_aff, dZh_aff):
            corr = 0.5 * (dXh @ dZh + dZh @ dXh)
            target = sigma * mu * np.eye(len(lam)) - np.diag(lam ** 2) - corr
            denom = lam[:, None] + lam[None, :]
            S = 2.0 * target / denom
            F.append(R @ S @ R.T)
        dX, du, dy, dZ = newton(F)
        _, _, alpha_p, alpha_d = _nt_frame(scal, dX, dZ)

        for bi in range(nb):
            X[bi] = X[bi] + alpha_p * dX[bi]
            Z[bi] = Z[bi] + alpha_d * dZ[bi]
            X[bi] = 0.5 * (X[bi] + X[bi].T)
            Z[bi] = 0.5 * (Z[bi] + Z[bi].T)
        u = u + alpha_p * du
        y = y + alpha_d * dy

    eq_residual = float(np.linalg.norm(
        b - apply_A(X) - (D @ u if k else 0.0), ord=np.inf))
    pobj = sum(float(np.tensordot(Cb, Xb))
               for Cb, Xb in zip(sdp.objective_blocks, X)) \
        + (float(sdp.free_objective @ u) if k else 0.0)
    dobj = float(b @ y)
    comp = sum(float(np.tensordot(Xb, Zb)) for Xb, Zb in zip(X, Z))
    result = SdpResult(
        status=status,
        blocks=X, free=u, duals=y, dual_blocks=Z,
        primal_objective=pobj, dual_objective=dobj,
        gap=comp / (1.0 + abs(pobj) + abs(dobj)),
        equality_residual=eq_residual,
        iterations=iteration)
    if status == "solution":
        worst_eig = min(float(np.linalg.eigvalsh(Xb).min()) for Xb in X)
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
