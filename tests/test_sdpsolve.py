import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapcert import sdpsolve, sos_cert
from lyapcert.cli import parse_spec
from lyapcert.errors import NumericalError
from lyapcert.sdpsolve import (MAX_ITER, EqualityOperator,
                               SemidefiniteProgram, _nt_frame, _nt_scaling,
                               _tril_inv, dump_sdpa_sparse, solve_sdp)
from reference import (apply_A_per_block, apply_At_per_block, max_step,
                       solve_sdp_by_size_stacks)

CUSP_BOX_SPEC = Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
BALL_SPEC = """\
dim: 3
f1: -1*x1 + 1*x2
f2: -1*x1 - 1*x2
f3: -1*x3
g1: 1 - x1^2 - x2^2 - x3^2
box1: -1.0 1.0
box2: -1.0 1.0
box3: -1.0 1.0
"""


def sym_unit(n, i, j):
    """Coefficient matrix with <E, X> = X_ij for a symmetric X."""
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def min_eig_program(A):
    """max t subject to A - t I psd, posed as min -t with Z + t I = A."""
    n = A.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return SemidefiniteProgram(
        A=[np.array([sym_unit(n, i, j) for i, j in pairs])],
        D=np.array([[1.0 if i == j else 0.0] for i, j in pairs]),
        b=np.array([A[i, j] for i, j in pairs]),
        objective_blocks=[np.zeros((n, n))], free_objective=np.array([-1.0]))


def program_without_free(A, b, objective_blocks):
    """min sum <C_b, X_b> subject to sum_b <A_b[i], X_b> = b_i."""
    return SemidefiniteProgram(A=A, D=np.zeros((len(b), 0)), b=b,
                               objective_blocks=objective_blocks,
                               free_objective=np.zeros(0))


def test_trace_minimization():
    sdp = program_without_free([sym_unit(2, 0, 0)[None]], [1.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "solution"
    assert abs(result.primal_objective - 1.0) <= 1e-7
    assert np.allclose(result.blocks[0], np.diag([1.0, 0.0]), atol=1e-7)


def test_min_eigenvalue_diagonal():
    result = solve_sdp(min_eig_program(np.diag([1.0, 2.0])))
    assert result.status == "solution"
    assert abs(result.free[0] - 1.0) <= 1e-8


def test_min_eigenvalue_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(30):
        Q = rng.standard_normal((6, 6))
        A = 0.5 * (Q + Q.T)
        result = solve_sdp(min_eig_program(A))
        assert result.status == "solution"
        assert abs(result.free[0] - np.linalg.eigvalsh(A).min()) <= 1e-7
        assert result.gap <= 1e-7


def test_solution_blocks_pass_shifted_cholesky():
    rng = np.random.default_rng(42)
    Q = rng.standard_normal((5, 5))
    A = 0.5 * (Q + Q.T)
    result = solve_sdp(min_eig_program(A))
    for X in result.blocks:
        np.linalg.cholesky(X + 1e-7 * np.eye(len(X)))


def test_complementarity_at_termination():
    rng = np.random.default_rng(43)
    Q = rng.standard_normal((4, 4))
    A = 0.5 * (Q + Q.T)
    result = solve_sdp(min_eig_program(A))
    total = sum(float(np.tensordot(X, Z))
                for X, Z in zip(result.blocks, result.dual_blocks))
    assert abs(total) <= 1e-6


def test_equality_residual_tolerance():
    rng = np.random.default_rng(44)
    Q = rng.standard_normal((6, 6))
    result = solve_sdp(min_eig_program(0.5 * (Q + Q.T)))
    assert result.equality_residual <= 1e-8


def test_multi_block_problem():
    # minimize tr(X1) + tr(X2) with X1_00 + X2_00 = 2, each psd
    sdp = program_without_free([sym_unit(2, 0, 0)[None], sym_unit(3, 0, 0)[None]],
                               [2.0], [np.eye(2), np.eye(3)])
    result = solve_sdp(sdp)
    assert result.status == "solution"
    assert abs(result.primal_objective - 2.0) <= 1e-6


def test_infeasible_contradictory_rows():
    sdp = program_without_free([np.array([sym_unit(2, 0, 0)] * 2)],
                               [1.0, 2.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "infeasible"
    assert result.infeasibility_is_heuristic


def test_infeasible_empty_row_is_exact():
    sdp = program_without_free([np.zeros((1, 2, 2))], [1.0], [np.eye(2)])
    result = solve_sdp(sdp)
    assert result.status == "infeasible"
    assert not result.infeasibility_is_heuristic


def test_validation_rejects_asymmetric():
    with pytest.raises(NumericalError,
                       match="objective block 0 is not symmetric"):
        program_without_free([sym_unit(2, 0, 0)[None]], [1.0],
                             [np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_validation_rejects_an_asymmetric_equality_matrix():
    # one asymmetric matrix among the block's rows is enough
    A = np.array([sym_unit(2, 0, 0), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(NumericalError,
                       match="equality block 0 is not symmetric"):
        program_without_free([A], [1.0, 1.0], [np.eye(2)])


def test_validation_symmetrizes_within_tolerance():
    A = sym_unit(2, 0, 1)[None] + np.array([[0.0, 1e-14], [0.0, 0.0]])
    sdp = program_without_free([A], [1.0], [np.eye(2)])
    assert np.array_equal(sdp.A[0], sdp.A[0].transpose(0, 2, 1))
    assert sdp.A[0][0, 0, 1] == 0.5 + 0.5e-14


def test_sdpa_dump_format():
    sdp = min_eig_program(np.diag([1.0, 2.0]))
    text = dump_sdpa_sparse(sdp)
    lines = text.splitlines()
    assert lines[0] == "3"          # three equalities
    assert lines[1] == "2"          # psd block + free-variable diagonal block
    assert lines[2].split() == ["2", "-2"]
    assert len(lines) > 4


def random_psd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + 1e-2 * np.eye(n)


def random_sym(rng, n):
    Q = rng.standard_normal((n, n))
    return 0.5 * (Q + Q.T)


def test_nt_scaling_identities():
    rng = np.random.default_rng(45)
    for n in (1, 2, 5, 12):
        for _ in range(10):
            X, Z = random_psd(rng, n), random_psd(rng, n)
            R, Rinv, lam = _nt_scaling(X, Z)
            scale = np.abs(lam).max()
            assert np.abs(Rinv @ R - np.eye(n)).max() <= 1e-10
            assert np.abs(Rinv @ X @ Rinv.T - np.diag(lam)).max() <= 1e-10 * scale
            assert np.abs(R.T @ Z @ R - np.diag(lam)).max() <= 1e-10 * scale


def test_nt_step_lengths_match_the_cholesky_bound():
    # X + a dX >= 0 iff diag(lam) + a R^-1 dX R^-T >= 0, and likewise for Z
    # with R^T dZ R; the step lengths in the NT frame must match the bound
    # computed from X and Z themselves
    rng = np.random.default_rng(46)
    clipped = 0
    for n in (1, 2, 5, 12):
        for _ in range(25):
            X, Z = random_psd(rng, n), random_psd(rng, n)
            scal = _nt_scaling(X, Z)
            dX = rng.uniform(0.1, 10.0) * random_sym(rng, n)
            dZ = rng.uniform(0.1, 10.0) * random_sym(rng, n)
            _, _, alpha_p, alpha_d = _nt_frame(scal, dX, dZ)
            for alpha, ref in ((alpha_p, max_step(X, dX)),
                               (alpha_d, max_step(Z, dZ))):
                assert abs(alpha - ref) <= 1e-10 * ref
                clipped += ref < 1.0
    assert clipped >= 100


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 253])
def test_triangular_inverse(n):
    # the blocked inverse against LAPACK's general one, at the base case
    # size 32, either side of it, and 253, three levels of recursion deep
    rng = np.random.default_rng(n)
    L = np.linalg.cholesky(random_psd(rng, n) / n + np.eye(n))
    Linv = _tril_inv(L.copy())
    assert np.abs(L @ Linv - np.eye(n)).max() <= 1e-12
    assert np.abs(Linv - np.linalg.inv(L)).max() <= 1e-12


def mixed_block_program(sizes, m=9, seed=47, idle=()):
    """A strictly feasible primal-dual pair over blocks of the given sizes,
    with one free variable; block b's equalities touch a random third of
    the m rows, and the blocks listed in idle touch none."""
    rng = np.random.default_rng(seed)
    A = []
    for s in sizes:
        Ab = np.array([random_sym(rng, s) for _ in range(m)])
        Ab[rng.permutation(m)[:2 * m // 3]] = 0.0
        A.append(Ab)
    for bi in idle:
        A[bi][...] = 0.0
    return feasible_program(A, rng)


def feasible_program(A, rng):
    """A strictly feasible primal-dual pair on the coefficient arrays A,
    with one free variable."""
    m, sizes = len(A[0]), [Ab.shape[-1] for Ab in A]
    D = rng.standard_normal((m, 1))
    X0 = [random_psd(rng, s) for s in sizes]
    y0 = rng.standard_normal(m)
    b = sum(np.tensordot(Ab, Xb) for Ab, Xb in zip(A, X0)) + D @ [0.3]
    C = [random_psd(rng, s) + np.tensordot(y0, Ab, axes=1)
         for s, Ab in zip(sizes, A)]
    return A, D, b, C, D.T @ y0


def test_mixed_block_sizes_come_back_in_input_order():
    # blocks of sizes 1 to 3 are stepped as one stack padded to size 3; the
    # result lists every block where the input had it, and the same problem
    # with its blocks permuted gives the same blocks
    sizes = [3, 1, 3, 2, 1]
    A, D, b, C, c = mixed_block_program(sizes)
    result = solve_sdp(SemidefiniteProgram(A=A, D=D, b=b,
                                           objective_blocks=C,
                                           free_objective=c))
    assert result.status == "solution"
    assert [X.shape for X in result.blocks] == [(s, s) for s in sizes]
    assert [Z.shape for Z in result.dual_blocks] == [(s, s) for s in sizes]
    assert all(np.array_equal(M, M.T)
               for M in result.blocks + result.dual_blocks)
    perm = [4, 2, 0, 3, 1]
    permuted = solve_sdp(SemidefiniteProgram(
        A=[A[i] for i in perm], D=D, b=b,
        objective_blocks=[C[i] for i in perm], free_objective=c))
    assert permuted.status == "solution"
    for pos, i in enumerate(perm):
        assert np.abs(permuted.blocks[pos] - result.blocks[i]).max() <= 1e-9
        assert np.abs(permuted.dual_blocks[pos]
                      - result.dual_blocks[i]).max() <= 1e-9
    assert np.abs(permuted.free - result.free).max() <= 1e-9
    assert np.abs(permuted.duals - result.duals).max() <= 1e-9


@st.composite
def block_programs(draw):
    """The coefficient arrays of a random block program, as
    mixed_block_program builds them but with entries zeroed as well as
    rows: blocks of sizes 1 to 4 with at least one 1x1 block and one
    repeated size, one block that touches no row, and one row that no
    block touches (only D would)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    sizes += [1, draw(st.sampled_from(sizes)), draw(st.integers(1, 4))]
    sizes = list(rng.permutation(sizes))
    m = draw(st.integers(2, 12))
    A = []
    for s in sizes:
        Ab = np.array([random_sym(rng, s) for _ in range(m)])
        Ab[rng.random(m) < 2 / 3] = 0.0
        keep = np.triu(rng.random((m, s, s)) < 0.7)
        A.append(Ab * (keep | keep.transpose(0, 2, 1)))
    A[draw(st.integers(0, len(A) - 1))][...] = 0.0
    row = draw(st.integers(0, m - 1))
    for Ab in A:
        Ab[row] = 0.0
    return A, rng


def padded(blocks, shape):
    """The blocks in the leading corners of a zero (nb, s, s) stack."""
    out = np.zeros(shape)
    for bi, Xb in enumerate(blocks):
        out[bi, :len(Xb), :len(Xb)] = Xb
    return out


@settings(max_examples=150, deadline=None)
@given(block_programs())
def test_equality_operator_matches_the_per_block_loop(program):
    A, rng = program
    op = EqualityOperator(A)
    X = [random_sym(rng, Ab.shape[-1]) for Ab in A]
    y = rng.standard_normal(len(A[0]))
    absA = [np.abs(Ab) for Ab in A]
    # the operator reads no padding, and the adjoint writes none: its
    # bound there is zero
    stack = padded(X, op.shape)
    stack[padded([np.ones_like(Xb) for Xb in X], op.shape) == 0] = 7.0
    # relative to the sum of the terms' magnitudes, which bounds the
    # rounding of any order of summation
    scale = apply_A_per_block(absA, [np.abs(Xb) for Xb in X])
    err = np.abs(op(stack) - apply_A_per_block(A, X))
    assert (err <= 1e-12 * scale).all()
    got, ref = op.adjoint(y), apply_At_per_block(A, y)
    bound = padded(apply_At_per_block(absA, np.abs(y)), op.shape)
    assert got.shape == op.shape
    assert (np.abs(got - padded(ref, op.shape)) <= 1e-12 * bound).all()
    # exactly symmetric, so the iteration needs no symmetrization of dZ, Z
    assert np.array_equal(got, got.swapaxes(-1, -2))


def assert_same_iterates(sdp, iterations):
    """Stopped after at most the given number of iterations, the padded
    stack and the solver with one stack per block size end with the same
    status after as many iterations, and with blocks, free variables and
    duals within 1e-9.  y is compared through the map y -> (A^T y, D^T y):
    along its null space, where two rows that no block touches leave y
    free, only the ridge on M fixes y."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdpsolve, "MAX_ITER", iterations)
        got, ref = solve_sdp(sdp), solve_sdp_by_size_stacks(sdp)
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    K = np.vstack([Ab.reshape(len(sdp.b), -1).T for Ab in sdp.A] + [sdp.D.T])
    dy = np.linalg.pinv(K) @ K @ (got.duals - ref.duals)
    assert np.abs(dy).max() <= 1e-9
    for a, b in zip(got.blocks + [got.free], ref.blocks + [ref.free]):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= 1e-9


# Each step of the last few, as mu falls below 1e-7, amplifies rounding
# about thirtyfold: there the size-stack solver differs from itself with
# its blocks reversed by up to 3e-9 on the idle-block program, and by up to
# 4e-7 on the degenerate random programs.  So those are compared after
# five iterations.  The others are compared in full: one block and 1x1
# blocks need no padding, and the mixed program's blocks agree within 1e-9
# when permuted.
EARLY = 5


@pytest.mark.parametrize("sizes, idle", [
    pytest.param([5], (), id="one-block"),
    pytest.param([1] * 6, (), id="all-1x1"),
    pytest.param([3, 1, 3, 2, 1], (), id="mixed"),
    pytest.param([3, 1, 3, 2, 1], (2,), id="idle-block")])
def test_padded_stack_matches_the_size_stack_solver(sizes, idle):
    A, D, b, C, c = mixed_block_program(sizes, idle=idle)
    sdp = SemidefiniteProgram(A=A, D=D, b=b, objective_blocks=C,
                              free_objective=c)
    got, ref = solve_sdp(sdp), solve_sdp_by_size_stacks(sdp)
    assert got.status == ref.status == "solution"
    assert got.iterations == ref.iterations
    assert_same_iterates(sdp, MAX_ITER if idle == () else EARLY)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_programs())
def test_padded_stack_follows_the_size_stack_solver_on_random_programs(
        program):
    # every such program has a block that touches no row
    A, rng = program
    A, D, b, C, c = feasible_program(A, rng)
    assert_same_iterates(SemidefiniteProgram(A=A, D=D, b=b,
                                             objective_blocks=C,
                                             free_objective=c), EARLY)


def test_tilted_cusp_slack_two_sdp_still_stalls(monkeypatch, tmp_path):
    # the SDP with +2 multiplier slack on the tilted cusp stalls: its
    # iterates grow nearly singular, so the nudge on the real diagonal
    # runs, and it ends maxiter after MAX_ITER iterations
    spec = tmp_path / "tilted.spec"
    spec.write_text(CUSP_BOX_SPEC.read_text().replace(
        "g1: x1 - x2^2", "g1: x1 - x2^2 + 1/10*x2"))
    results, singular = [], [0]

    def recorded(sdp):
        singular[0] = 0
        results.append((solve_sdp(sdp), singular[0]))
        return results[-1][0]

    def scaling(X, Z):
        try:
            return _nt_scaling(X, Z)
        except np.linalg.LinAlgError:
            singular[0] += 1
            raise

    monkeypatch.setattr(sos_cert, "solve_sdp", recorded)
    monkeypatch.setattr(sdpsolve, "_nt_scaling", scaling)
    sos_cert.solve_certificate(parse_spec(spec).system, 2, tier="sdp")
    result, nudges = results[-1]
    assert (result.status, result.iterations) == ("maxiter", MAX_ITER)
    assert nudges > 0


@pytest.mark.parametrize("spec, deg, most", [
    pytest.param("cusp", 2, 9, id="2"), pytest.param("cusp", 6, 10, id="6"),
    pytest.param("cusp", 10, 10, id="10"),
    pytest.param("ball", 4, 9, id="ball-4"),
    pytest.param("ball", 6, 9, id="ball-6"),
    pytest.param("ball", 8, 9, id="ball-8")])
def test_cusp_box_iterations_do_not_rise(spec, deg, most, monkeypatch,
                                         tmp_path):
    # the counts with the Gram monomials that the equalities force to zero
    # pruned and a zero objective on the Grams; the certificate comes from
    # the first SDP
    path = CUSP_BOX_SPEC
    if spec == "ball":
        path = tmp_path / "ball.spec"
        path.write_text(BALL_SPEC)
    iterations = []

    def counted(sdp, **kwargs):
        result = solve_sdp(sdp, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(sos_cert, "solve_sdp", counted)
    outcome = sos_cert.solve_certificate(parse_spec(path).system, deg,
                                         tier="sdp")
    assert outcome.status == "certificate"
    assert iterations and iterations[0] <= most


def test_sdp_tier_does_not_import_scipy(tmp_path):
    # the SDP tier is numpy-only; scipy would add its import time and
    # memory to every SOS search
    code = ("import sys\n"
            "from lyapcert.cli import main\n"
            f"code = main(['find-lyap-sos', {str(CUSP_BOX_SPEC)!r}, '--deg',"
            f" '2', '--tier', 'sdp', '--out', {str(tmp_path / 'o')!r}])\n"
            "print(code, 'scipy' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0 False"


def test_only_simulate_imports_orjson(tmp_path):
    # orjson (with json, uuid and zoneinfo) is the CSV writer's, so the
    # CLI import, an SOS find and a verify leave it out; simulate loads it
    out_dir = str(tmp_path / "o")
    cert = str(tmp_path / "o" / "certificate.txt")
    spec = str(CUSP_BOX_SPEC)
    commands = [
        ["find-lyap-sos", spec, "--deg", "2", "--tier", "sdp",
         "--out", out_dir],
        ["verify", spec, "--certificate", cert, "--out", str(tmp_path / "v")],
        ["simulate", spec, "--x0=0.49,0.7", "--T", "0.01",
         "--out", str(tmp_path / "s")]]
    code = ("import sys\n"
            "from lyapcert.cli import main\n"
            "print(0, 'orjson' in sys.modules)\n"
            f"for args in {commands!r}:\n"
            "    print(main(args), 'orjson' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["0 False", "0 False", "0 False",
                                       "0 True"]
