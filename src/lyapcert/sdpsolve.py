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

Every block is padded to the largest block size s, and the blocks are
held as one (nb, s, s) stack, so numpy's cholesky, svd, eigvalsh and
matmul each run once over all blocks; the result lists the blocks in
input order.  The padding has zero coefficients and objective and holds
X = Z = I; a mask keeps the dual residual and every direction off it
(the equality operator reads no padding), and mu and the inner products
read only the real entries.  The equality operator A(X) and its adjoint A^T(y) read the
nonzeros of the coefficient matrices as (row, index in the stack, value)
triples, so each is one bincount (EqualityOperator).

Per iteration: the NT scaling R of every block, R^-1 X R^-T = R^T Z R =
diag(lam), from two Cholesky factors and one SVD; the Schur complement
M_ij = sum_b <A_b[i], W A_b[j] W>, W = R R^T, each block adding one
product on the grid of M that its touched rows address (about a third of
the rows in the SOS programs; the grids are built once per solve); one
Cholesky factor L of M, with the ridge written onto M's diagonal, and the
inverse L^-1 by blocked recursion on the triangle, so that every solve
with M (predictor, corrector, refinement, free-variable saddle) is two
matrix products; the free variables' Schur complement D^T M^-1 D is
factored and inverted the same way once per iteration; and step lengths
in the NT frame, where X + a dX is PSD exactly when
diag(lam) + a R^-1 dX R^-T is (Z likewise with R^T dZ R), one eigvalsh
for both directions of every block.  numpy only: the SOS tier imports
no scipy.

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


def _nt_frame(scal, dX: np.ndarray, dZ: np.ndarray):
    """The directions in the NT frame, R^-1 dX R^-T and R^T dZ R per block,
    and the primal and dual step lengths they allow: the largest
    alpha <= 1 keeping diag(lam) + alpha dMh PSD, that is
    I + alpha lam^-1/2 dMh lam^-1/2 PSD, backed off by 0.98.  One eigvalsh
    takes both directions of every block at once."""
    R, Rinv, lam = scal
    dXh = Rinv @ dX @ _t(Rinv)
    dZh = _t(R) @ dZ @ R
    s = 1.0 / np.sqrt(lam)
    S = s[..., :, None] * np.stack([dXh, dZh]) * s[..., None, :]
    wmin = np.linalg.eigvalsh(_sym(S)).reshape(2, -1).min(axis=1)
    alpha_p, alpha_d = (1.0 if w >= 0 else min(1.0, 0.98 / -w) for w in wmin)
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


class EqualityOperator:
    """A(X)_i = sum_b <A_b[i], X_b> on the padded stack of blocks, and its
    adjoint.

    Block b is the leading s_b x s_b corner of entry b of one (nb, s, s)
    stack, s the largest block size.  Every nonzero A_b[i]_pq is one
    triple (row i, the index of entry (b, p, q) in the stack's flat vector,
    value), so A(X) and A^T(y) are one bincount each, with no dense m x N
    matrix, and neither reads nor writes the padding; bincount adds its
    terms in input order, whatever the BLAS threads.  So A^T(y) is exactly
    symmetric: entries (p, q) and (q, p) of a block sum equal terms from
    the same rows in the same order.
    """

    def __init__(self, A: list[np.ndarray]):
        s = max(Ab.shape[-1] for Ab in A)
        self.m = len(A[0])
        self.shape = (len(A), s, s)
        rows, cols, vals = [], [], []
        for bi, Ab in enumerate(A):
            row, p, q = np.nonzero(Ab)
            rows.append(row)
            cols.append((bi * s + p) * s + q)
            vals.append(Ab[row, p, q])
        self.row = np.concatenate(rows)
        self.col = np.concatenate(cols)
        self.val = np.concatenate(vals)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.val * X.ravel()[self.col],
                           minlength=self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.col, weights=self.val * y[self.row],
                           minlength=np.prod(self.shape)).reshape(self.shape)


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
    op = EqualityOperator(sdp.A)
    # every block padded to the largest size s: the padding has zero
    # coefficients and objective and X = Z = I, and the mask keeps every
    # direction and residual off it
    s = op.shape[-1]
    real_diag = np.arange(s) < np.array(sizes)[:, None]
    mask = real_diag[:, :, None] & real_diag[:, None, :]
    real = np.flatnonzero(mask)
    # for the Schur complement each block keeps the rows its equalities
    # touch, A_b[rows], its (len(rows), s_b*s_b) reshape E, with the width
    # spelled out because a block may touch no row at all, and the grid of
    # M those rows address
    parts = []
    for bi, Ab in enumerate(sdp.A):
        rows = np.flatnonzero(Ab.reshape(m, -1).any(axis=1))
        At = Ab[rows]
        parts.append((bi, sizes[bi], At,
                      At.reshape(len(rows), sizes[bi] ** 2),
                      np.ix_(rows, rows)))

    # rows that touch nothing decide feasibility immediately
    touched = (D != 0).any(axis=1)
    touched[op.row] = True
    if (np.abs(b[~touched]) > FEAS_TOL).any():
        return SdpResult(status="infeasible", infeasibility_is_heuristic=False)

    scale = max(1.0, float(np.abs(b).max()))
    C = np.zeros(op.shape)
    for bi, Cb in enumerate(sdp.objective_blocks):
        C[bi, :sizes[bi], :sizes[bi]] = Cb
    X = np.where(mask, scale, 1.0) * np.eye(s)
    Z = X.copy()
    y = np.zeros(m)
    u = np.zeros(k)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(C, axis=(1, 2)).max() \
        + np.linalg.norm(sdp.free_objective)

    def inner(P: np.ndarray, Q: np.ndarray) -> float:
        return float(P.take(real) @ Q.take(real))

    status = "maxiter"
    iteration = 0
    for iteration in range(1, MAX_ITER + 1):
        r_p = b - op(X) - D @ u
        R_d = (C - Z - op.adjoint(y)) * mask
        r_f = sdp.free_objective - D.T @ y

        mu = inner(X, Z) / total_dim
        pobj = inner(C, X) + float(sdp.free_objective @ u)
        dobj = float(b @ y)
        rel_p = np.linalg.norm(r_p) / norm_b
        rel_d = (np.linalg.norm(R_d, axis=(1, 2)).max()
                 + np.linalg.norm(r_f)) / norm_c
        gap = mu * total_dim / (1.0 + abs(pobj) + abs(dobj))

        if rel_p <= FEAS_TOL and rel_d <= FEAS_TOL and gap <= GAP_TOL:
            status = "solution"
            break
        if dobj > DIVERGENCE_THRESHOLD and rel_d <= 1e-4:
            return SdpResult(status="infeasible", iterations=iteration,
                             dual_objective=dobj,
                             infeasibility_is_heuristic=True)
        if max(abs(pobj), float(np.abs(X).max())) > 1e14:
            logger.debug("iterate magnitude diverged; stopping at maxiter status")
            break

        # NT scaling; nudge the real diagonal of nearly singular iterates once
        try:
            scal = _nt_scaling(X, Z)
        except np.linalg.LinAlgError:
            for S in (X, Z):
                trace = (_diag(S) * real_diag).sum(axis=-1)
                _diag(S)[...] += 1e-12 * np.maximum(1.0, trace)[:, None] \
                    * real_diag
            try:
                scal = _nt_scaling(X, Z)
            except np.linalg.LinAlgError:
                break
        R, _, lam = scal
        W = R @ _t(R)

        # Schur complement M_ij = sum_b <A_i, W A_j W>, nonzero only on the
        # rows and columns block b touches
        M = np.zeros((m, m))
        for bi, sb, At, Eb, grid in parts:
            Wb = W[bi, :sb, :sb]
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

        def newton(F: np.ndarray):
            """Linearized KKT solve for a centrality target F, with
            iterative refinement against residual creep in ill-conditioned
            late iterations.  F may be anything on the padding: only dX
            reads it there, and dX is masked."""
            dy, du = saddle(r_p - op(F - W @ R_d @ W), r_f)

            def steps(dy_vec):
                # R_d and A^T(dy) are exactly symmetric and zero on the
                # padding, so dZ is too
                dZ = R_d - op.adjoint(dy_vec)
                return _sym(F - W @ dZ @ W) * mask, dZ

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
        dX_aff, du_aff, dy_aff, dZ_aff = newton(-X)
        dXh, dZh, alpha_p, alpha_d = _nt_frame(scal, dX_aff, dZ_aff)
        mu_aff = inner(X + alpha_p * dX_aff, Z + alpha_d * dZ_aff) / total_dim
        sigma = min(1.0, max(1e-12, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the scaled space
        target = -0.5 * (dXh @ dZh + dZh @ dXh)
        _diag(target)[...] += sigma * mu - lam ** 2
        S = 2.0 * target / (lam[..., :, None] + lam[..., None, :])
        dX, du, dy, dZ = newton(R @ S @ _t(R))
        _, _, alpha_p, alpha_d = _nt_frame(scal, dX, dZ)

        # dX is symmetrized and dZ exactly symmetric, so X and Z stay so
        X = X + alpha_p * dX
        Z = Z + alpha_d * dZ
        u = u + alpha_p * du
        y = y + alpha_d * dy

    eq_residual = float(np.linalg.norm(b - op(X) - D @ u, ord=np.inf))
    pobj = inner(C, X) + float(sdp.free_objective @ u)
    dobj = float(b @ y)
    result = SdpResult(
        status=status,
        blocks=[X[bi, :sb, :sb] for bi, sb in enumerate(sizes)], free=u,
        duals=y, dual_blocks=[Z[bi, :sb, :sb] for bi, sb in enumerate(sizes)],
        primal_objective=pobj, dual_objective=dobj,
        gap=inner(X, Z) / (1.0 + abs(pobj) + abs(dobj)),
        equality_residual=eq_residual,
        iterations=iteration)
    if status == "solution":
        # the padding's eigenvalues are 1, which hides no negative one
        worst_eig = float(np.linalg.eigvalsh(X).min())
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
