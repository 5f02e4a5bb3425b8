import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lyapcert import linprog, sos_cert
from lyapcert.cli import main as cli_main, parse_spec
from lyapcert.errors import InputError
from lyapcert.poly import (Polynomial, monomials_up_to_degree, norm_squared,
                           parse_polynomial)
from lyapcert.sdpsolve import SdpResult, dump_sdpa_sparse
from lyapcert.sos_cert import (EPS_PD, EqualitySystem, GramBlock, LinearExpr,
                               SemialgebraicSystem, _assemble_full,
                               _FloatLayout, _reduce, _solve_dsos_tier,
                               _solve_sdp_tier, assemble_condition_i,
                               assemble_condition_ii, assemble_condition_iii,
                               sign_group, solve_certificate)
from lyapcert.tangency import SemialgebraicSet
from reference import (equality_residual, gram_expand_by_fractions,
                       gram_from_sos_terms, prune_forced_monomials,
                       split_by_sign_group, worst_gram_eigenvalue,
                       worst_residual)


def cusp_system():
    S = SemialgebraicSet(
        [parse_polynomial("x1 - x2^2", 2), parse_polynomial("1 - x1", 2)],
        [(-0.5, 1.5), (-1.5, 1.5)])
    return SemialgebraicSystem(
        [parse_polynomial("-1*x1^2", 2), Polynomial.zero(2)], S)


def box_system(field):
    S = SemialgebraicSet(
        [parse_polynomial("1 - x1", 2), parse_polynomial("1 + x1", 2),
         parse_polynomial("1 - x2", 2), parse_polynomial("1 + x2", 2)],
        [(-1.05, 1.05), (-1.05, 1.05)])
    return SemialgebraicSystem(field, S)


V_UNIT = {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0}


# -- gram parameterization ----------------------------------------------------------

def test_gram_parameterize_square():
    block = GramBlock("gram", monomials_up_to_degree(2, 1))
    assert block.basis == [(0, 0), (1, 0), (0, 1)]
    G = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    assert block.expand(G) == parse_polynomial("x1^2 - 2*x1*x2 + x2^2", 2)


def test_gram_identity_gives_sum_of_squared_monomials():
    block = GramBlock("gram", monomials_up_to_degree(2, 2))
    G = np.eye(block.size)
    expected = Polynomial.zero(2)
    for mono in block.basis:
        expected = expected + Polynomial.monomial(mono) ** 2
    assert block.expand(G) == expected


def test_gram_expand_collect_roundtrip():
    rng = np.random.default_rng(61)
    block = GramBlock("gram", monomials_up_to_degree(2, 2))
    for _ in range(50):
        Q = rng.uniform(-2, 2, size=(block.size, block.size))
        G = 0.5 * (Q + Q.T)
        p = block.expand(G)
        # re-collect: coefficient of each product monomial matches the pair sums
        for mono, pairs in block.pairs_by_monomial.items():
            acc = sum((1 if i == j else 2) * G[i, j] for i, j in pairs)
            assert abs(float(p.coefficient(mono)) - acc) <= 1e-12


def test_gram_expand_is_the_exact_fraction_sum():
    # the same terms in the same order as one Fraction per entry, over
    # entries whose binary exponents lie far apart, that cancel exactly,
    # or that are zero or subnormal
    rng = np.random.default_rng(62)
    block = GramBlock("gram", monomials_up_to_degree(2, 3))
    k = block.basis.index((2, 0))
    assert block.basis[1] == (1, 0)
    for _ in range(40):
        Q = rng.standard_normal((block.size, block.size)) \
            * 10.0 ** rng.integers(-300, 300, size=(block.size, block.size))
        Q[rng.random(Q.shape) < 0.3] = 0.0
        Q[0, 1] = Q[1, 0] = 5e-324
        G = 0.5 * (Q + Q.T)
        G[1, 1] = -2.0 * G[0, k]     # x1^2 = x1 * x1 = 1 * x1^2
        terms = block.expand(G).terms
        assert (2, 0) not in terms
        assert list(terms.items()) == \
            list(gram_expand_by_fractions(block, G).items())


# -- condition (i) -------------------------------------------------------------------

def test_condition_i_halfspace_identity():
    S = SemialgebraicSet([parse_polynomial("1 - x1", 2)], [(-2, 2), (-2, 2)])
    system = SemialgebraicSystem([parse_polynomial("-1*x1", 2),
                                  parse_polynomial("-1*x2", 2)], S)
    eq = assemble_condition_i(system, 2)
    sigma0 = eq.blocks["sigma_0"]
    grams = {
        "sigma_0": gram_from_sos_terms(sigma0, [(1 - EPS_PD, (1, 0)),
                                                (1 - EPS_PD, (0, 1))]),
        "sigma_1": np.zeros((eq.blocks["sigma_1"].size,) * 2),
    }
    assert equality_residual(eq, grams, {"V": V_UNIT}) <= 1e-12


def test_condition_i_roundtrip_residual():
    eq = assemble_condition_i(cusp_system(), 2)
    grams = {
        "sigma_0": gram_from_sos_terms(eq.blocks["sigma_0"],
                                       [(1 - 1e-3, (1, 0)), (1 - 1e-3, (0, 1))]),
        "sigma_1": np.zeros((eq.blocks["sigma_1"].size,) * 2),
        "sigma_2": np.zeros((eq.blocks["sigma_2"].size,) * 2),
    }
    assert equality_residual(eq, grams, {"V": V_UNIT}) <= 1e-10


def test_condition_i_rows_subtract_eps_pd():
    # with V fixed to x1^2 + x2^2, sigma_0 = V without the EPS_PD |x|^2
    # term misses the x1^2 and x2^2 rows by EPS_PD each
    eq = assemble_condition_i(cusp_system(), 2)
    grams = {
        "sigma_0": gram_from_sos_terms(eq.blocks["sigma_0"],
                                       [(1.0, (1, 0)), (1.0, (0, 1))]),
        "sigma_1": np.zeros((eq.blocks["sigma_1"].size,) * 2),
        "sigma_2": np.zeros((eq.blocks["sigma_2"].size,) * 2),
    }
    assert equality_residual(eq, grams, {"V": V_UNIT}) == \
        pytest.approx(EPS_PD, rel=1e-12)


def test_condition_i_degree_schedule_guard():
    S = SemialgebraicSet([parse_polynomial("1 - x1^4", 2)],
                         [(-1.1, 1.1), (-1.1, 1.1)])
    system = SemialgebraicSystem([parse_polynomial("-1*x1", 2),
                                  parse_polynomial("-1*x2", 2)], S)
    with pytest.raises(InputError, match="deg g_1 = 4 exceeds deg V = 2"):
        assemble_condition_i(system, 2)


# -- condition (ii) ------------------------------------------------------------------

def test_condition_ii_cusp_hand_decomposition():
    eq = assemble_condition_ii(cusp_system(), 2)
    grams = {
        "chi_0": gram_from_sos_terms(eq.blocks["chi_0"], [(2.0, (1, 1))]),
        "chi_1": gram_from_sos_terms(eq.blocks["chi_1"], [(2.0, (1, 0))]),
        "chi_2": np.zeros((eq.blocks["chi_2"].size,) * 2),
    }
    assert equality_residual(eq, grams, {"V": V_UNIT}) <= 1e-10


def test_condition_ii_box_linear_field():
    system = box_system([parse_polynomial("-1*x1", 2),
                         parse_polynomial("-1*x2", 2)])
    eq = assemble_condition_ii(system, 2)
    grams = {"chi_0": gram_from_sos_terms(eq.blocks["chi_0"],
                                          [(2.0, (1, 0)), (2.0, (0, 1))])}
    for i in range(1, 5):
        grams[f"chi_{i}"] = np.zeros((eq.blocks[f"chi_{i}"].size,) * 2)
    assert equality_residual(eq, grams, {"V": V_UNIT}) <= 1e-12


# -- condition (iii) -----------------------------------------------------------------

def test_condition_iii_parabola_face():
    eq = assemble_condition_iii(cusp_system(), 2, 1)
    grams = {
        "chi_1_0": gram_from_sos_terms(eq.blocks["chi_1_0"], [(2.0, (0, 1))]),
        "chi_1_2": np.zeros((eq.blocks["chi_1_2"].size,) * 2),
    }
    frees = {"V": V_UNIT, "phi_1": {(0, 0): -2.0}}
    assert equality_residual(eq, grams, frees) <= 1e-10


def test_condition_iii_line_face():
    eq = assemble_condition_iii(cusp_system(), 2, 2)
    grams = {
        "chi_2_0": gram_from_sos_terms(eq.blocks["chi_2_0"], [(2.0, (0, 1))]),
        "chi_2_1": gram_from_sos_terms(eq.blocks["chi_2_1"], [(2.0, (0, 0))]),
    }
    frees = {"V": V_UNIT, "phi_2": {(0, 0): 0.0}}
    assert equality_residual(eq, grams, frees) <= 1e-10


def test_condition_iii_unit_ball():
    S = SemialgebraicSet([parse_polynomial("1 - x1^2 - x2^2", 2)],
                         [(-1.1, 1.1), (-1.1, 1.1)])
    system = SemialgebraicSystem([parse_polynomial("-1*x1^3", 2),
                                  parse_polynomial("-1*x2^3", 2)], S)
    eq = assemble_condition_iii(system, 2, 1)
    grams = {"chi_1_0": gram_from_sos_terms(eq.blocks["chi_1_0"],
                                            [(4.0, (1, 0)), (4.0, (0, 1))])}
    frees = {"V": V_UNIT,
             "phi_1": {m: 0.0 for m in eq.free_groups["phi_1"]}}
    assert equality_residual(eq, grams, frees) <= 1e-12


# -- full solves ---------------------------------------------------------------------

def test_sdp_tier_finds_certificate():
    outcome = solve_certificate(cusp_system(), 2, tier="sdp")
    assert outcome.status == "certificate"
    cert = outcome.certificate
    assert cert.margin >= -1e-8
    assert worst_residual(cert) <= 1e-6
    assert worst_gram_eigenvalue(cert) >= -1e-7
    assert float(cert.V.evaluate((0, 0))) == 0.0
    assert any("weak decrease" in f for f in cert.flags)


def test_dsos_tier_also_feasible():
    outcome = solve_certificate(cusp_system(), 2, tier="dsos")
    assert outcome.status == "certificate"
    cert = outcome.certificate
    assert cert.tier == "dsos"
    # every dsos gram also passes the sdp-tier eigenvalue test
    assert worst_gram_eigenvalue(cert) >= -1e-7


def test_unstable_field_infeasible_on_box():
    system = box_system([parse_polynomial("x1", 2), parse_polynomial("x2", 2)])
    for deg in (2, 4):
        outcome = solve_certificate(system, deg, tier="sdp")
        assert outcome.status == "infeasible"
        assert outcome.margin is not None and outcome.margin < -1e-8


@pytest.mark.parametrize("tier, owner, name, result, expected", [
    ("sdp", sos_cert, "solve_sdp", SdpResult("maxiter"),
     ("stalled", "solver returned maxiter")),
    ("sdp", sos_cert, "solve_sdp", SdpResult("infeasible"),
     ("infeasible", "equality system infeasible")),
    ("dsos", linprog, "solve", linprog.LpResult("stalled"),
     ("stalled", "solver returned stalled")),
    ("dsos", linprog, "solve", linprog.LpResult("unbounded"),
     ("stalled", "solver returned stalled")),
    ("dsos", linprog, "solve", linprog.LpResult("infeasible"),
     ("infeasible", "equality system infeasible")),
], ids=["sdp-maxiter", "sdp-infeasible", "dsos-stalled", "dsos-unbounded",
        "dsos-infeasible"])
def test_solver_status_maps_to_the_outcome(tier, owner, name, result,
                                           expected, monkeypatch):
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: result)
    outcome = solve_certificate(cusp_system(), 2, tier=tier)
    assert (outcome.status, outcome.detail) == expected
    assert outcome.certificate is None and outcome.margin is None


def test_scale_covariance_of_generators():
    base = cusp_system()
    scaled_S = SemialgebraicSet([g.scale(2) for g in base.S.generators],
                                base.S.box)
    scaled = SemialgebraicSystem(base.f, scaled_S)
    a = solve_certificate(base, 2, tier="sdp")
    b = solve_certificate(scaled, 2, tier="sdp")
    assert a.status == b.status == "certificate"


def test_putinar_monotonicity_in_degree():
    a = solve_certificate(cusp_system(), 2, tier="sdp")
    b = solve_certificate(cusp_system(), 4, tier="sdp")
    assert a.status == "certificate"
    assert b.status == "certificate"


def test_certificate_multipliers_reproduce_identities():
    outcome = solve_certificate(cusp_system(), 2, tier="sdp")
    cert = outcome.certificate
    system = cusp_system()
    # condition (ii) re-derived from the expanded multiplier polynomials
    lhs = Polynomial.zero(2)
    for grad_i, f_i in zip(cert.V.gradient(), system.f):
        lhs = lhs + grad_i * f_i
    lhs = -lhs
    rhs = cert.multipliers["chi_0"].polynomial
    for i, g in enumerate(system.S.generators, start=1):
        rhs = rhs + cert.multipliers[f"chi_{i}"].polynomial * g
    diff = lhs - rhs
    worst = max((abs(float(c)) for c in diff.terms.values()), default=0.0)
    assert worst <= 1e-6


# -- pruning the forced Gram monomials --------------------------------------------

def program_of(eq):
    """Every block's name and basis, every free group, and each row's
    label, Gram and free terms in insertion order and constant, in order."""
    return ([(name, block.basis) for name, block in eq.blocks.items()],
            list(eq.free_groups.items()),
            [(label, list(expr.gram.items()), list(expr.free.items()),
              expr.constant) for label, expr in eq.rows])


def hand_system(*rows):
    """Grams G0 and G2 over the 1-D basis (1, x1), a free group V = {x1},
    and one row per (gram terms, free terms, constant)."""
    eq = EqualitySystem(blocks={name: GramBlock(name, [(0,), (1,)])
                                for name in ("G0", "G2")},
                        free_groups={"V": [(1,)]})
    for k, (gram, free, constant) in enumerate(rows):
        eq.rows.append((f"row:{k}", LinearExpr(
            {key: Fraction(c) for key, c in gram.items()},
            {("V", (1,)): Fraction(c) for c in free}, Fraction(constant))))
    return eq


def test_prune_drops_diagonals_summed_to_zero():
    # 0 = -G0_00 - G2_00 forces both constants out of their Grams; the
    # other row keeps its G0_11 term at its new position (0, 0)
    eq = hand_system(({("G0", 0, 0): -1, ("G2", 0, 0): -1}, [], 0),
                     ({("G0", 0, 1): -2, ("G0", 1, 1): -1}, [1], 0))
    pruned = _reduce(eq, [])
    assert {n: b.basis for n, b in pruned.blocks.items()} == \
        {"G0": [(1,)], "G2": [(1,)]}
    assert [(label, expr.gram, expr.free) for label, expr in pruned.rows] == \
        [("row:1", {("G0", 0, 0): -1}, {("V", (1,)): 1})]


@pytest.mark.parametrize("gram, free, constant", [
    ({("G0", 0, 0): -1, ("G2", 0, 0): -1}, [1], 0),
    ({("G0", 0, 0): -1, ("G2", 0, 0): -1}, [], 1),
    ({("G0", 0, 0): -1, ("G0", 0, 1): -2}, [], 0),
    ({("G0", 0, 0): 1, ("G2", 0, 0): -1}, [], 0),
], ids=["free-term", "constant", "off-diagonal", "mixed-signs"])
def test_prune_keeps_rows_that_force_nothing(gram, free, constant):
    eq = hand_system((gram, free, constant))
    assert program_of(_reduce(eq, [])) == program_of(eq)


def test_prune_repeats_until_nothing_changes():
    # row 0 forces nothing until row 1 has dropped G0's constant; then it
    # is -G0_11 = 0, which empties G0, and row 2 keeps only its G2 term
    eq = hand_system(({("G0", 0, 1): -2, ("G0", 1, 1): -1}, [], 0),
                     ({("G0", 0, 0): -1}, [], 0),
                     ({("G0", 1, 1): -1, ("G2", 1, 1): 1}, [1], 0))
    pruned = _reduce(eq, [])
    assert {n: b.basis for n, b in pruned.blocks.items()} == \
        {"G2": [(0,), (1,)]}
    assert [(label, expr.gram) for label, expr in pruned.rows] == \
        [("row:2", {("G2", 1, 1): 1})]


def test_emptied_block_is_the_zero_multiplier(tmp_path):
    # cusp_box at deg 2 prunes sigma_2 to nothing: certificate.txt names it
    # with the polynomial 0 and no Gram eigenvalue, and identities (i)-(iii)
    # rebuilt from the file's polynomials alone hold to rounding
    spec = Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
    assert cli_main(["find-lyap-sos", str(spec), "--deg", "2", "--tier",
                     "sdp", "--samples", "2000",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificate.txt").read_text()
    assert "multiplier sigma_2: 0\n" in text
    assert "multiplier-gram-mineig sigma_2" not in text
    polys = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key == "V" or key.startswith(("multiplier ", "phi ")):
            polys[key.split(" ")[-1]] = parse_polynomial(value, 2)
    system = cusp_system()
    g = system.S.generators
    V = polys["V"]
    identities = [V - norm_squared(2).scale(EPS_PD) - polys["sigma_0"]
                  - polys["sigma_1"] * g[0] - polys["sigma_2"] * g[1]]
    lhs = -sum((d * f for d, f in zip(V.gradient(), system.f)),
               Polynomial.zero(2))
    identities.append(lhs - polys["chi_0"] - polys["chi_1"] * g[0]
                      - polys["chi_2"] * g[1])
    for j, other in ((1, 2), (2, 1)):
        grad = system.S.gradients[j - 1]
        lhs = -sum((d * e for d, e in zip(V.gradient(), grad)),
                   Polynomial.zero(2))
        identities.append(lhs - polys[f"chi_{j}_0"]
                          - polys[f"chi_{j}_{other}"] * g[other - 1]
                          - polys[f"phi_{j}"] * g[j - 1])
    for diff in identities:
        assert max((abs(float(c)) for c in diff.terms.values()),
                   default=0.0) <= 1e-12


# -- the stacked equality system, pinned ------------------------------------------

def ball_system():
    S = SemialgebraicSet([parse_polynomial("1 - x1^2 - x2^2 - x3^2", 3)],
                         [(-1.0, 1.0)] * 3)
    return SemialgebraicSystem(
        [parse_polynomial(t, 3) for t in
         ("-1*x1 + 1*x2", "-1*x1 - 1*x2", "-1*x3")], S)


def equality_system_digest(eq) -> str:
    """Hash of every block and free basis and of each row's label, terms in
    insertion order, and constant."""
    h = hashlib.sha256()
    for name, block in eq.blocks.items():
        h.update(repr(("block", name, block.basis)).encode())
    for name, basis in eq.free_groups.items():
        h.update(repr(("free", name, basis)).encode())
    for label, expr in eq.rows:
        h.update(repr((label, list(expr.gram.items()),
                       list(expr.free.items()), expr.constant)).encode())
    return h.hexdigest()[:16]


# (system, deg V, multiplier slack, False) -> (digest, rows).  The last
# field once chose a decrease margin; it stays so that the case ids stay.
# Recorded when each condition had its own assembler; the solvers' inputs
# (and the dumped SDPA files) follow this row layout term for term.
# Re-recorded when EPS_PD became exactly 1/1000: only the constants of the
# positivity rows of the x_i^2 monomials changed, from the binary float
# 0.001 to 1/1000.
EQUALITY_DIGESTS = {
    ("cusp", 2, 0, False): ("5afe80e4fd79122a", 39),
    ("cusp", 2, 2, False): ("77b5388c4cde1af6", 83),
    ("cusp", 4, 0, False): ("feb676023df4f67b", 83),
    ("cusp", 4, 2, False): ("c68fe289cac1daef", 143),
    ("cusp", 6, 0, False): ("108febd1336c0dbc", 143),
    ("cusp", 6, 2, False): ("60074dda66069f10", 219),
    ("ball", 2, 0, False): ("28ac36a451f4de35", 30),
    ("ball", 2, 2, False): ("e70089ecedeb5321", 105),
    ("ball", 4, 0, False): ("4da1592fe37dd9f5", 105),
    ("ball", 4, 2, False): ("c76fcc86c8f44953", 252),
    ("ball", 6, 0, False): ("27e54df670d709c2", 252),
    ("ball", 6, 2, False): ("57fcb382a06fb447", 495),
}


@pytest.mark.parametrize("case", EQUALITY_DIGESTS,
                         ids=["-".join(map(str, c)) for c in EQUALITY_DIGESTS])
def test_stacked_equality_system_is_pinned(case):
    name, deg, slack, _ = case
    system = cusp_system() if name == "cusp" else ball_system()
    eq = _assemble_full(system, deg, slack)
    assert (equality_system_digest(eq), len(eq.rows)) == \
        EQUALITY_DIGESTS[case]


@pytest.mark.parametrize("name", ["cusp", "ball"])
def test_every_assembled_gram_basis_is_a_full_degree_range(name):
    # the assembly builds each block from monomials_up_to_degree, so no
    # basis is empty or lacks the constant monomial, and no two identities
    # name a block alike
    system = cusp_system() if name == "cusp" else ball_system()
    n, m = system.dimension, len(system.S.generators)
    for deg in (2, 4, 6):
        for slack in (0, 2):
            eq = _assemble_full(system, deg, slack)
            # m + 1 blocks each for (i) and (ii), then m for each face
            assert len(eq.blocks) == 2 * (m + 1) + m * m
            for block in eq.blocks.values():
                top = max(map(sum, block.basis))
                assert block.basis == monomials_up_to_degree(n, top)


class _Captured(Exception):
    """Stops a tier once its solver input has been built."""


def _tier_equalities(name, deg, slack, reduced=False):
    """The float layout of a tier's equality system, as built or reduced
    (split by the sign group and pruned) as solve_certificate solves it."""
    system = cusp_system() if name == "cusp" else ball_system()
    eq = _assemble_full(system, deg, slack)
    return _FloatLayout(_reduce(eq, sign_group(system)) if reduced else eq)


def sdp_tier_digest(layout) -> str:
    """First 16 hex digits of the sha256 of the SDPA dump of the SDP tier's
    input."""
    def capture(sdp):
        text = dump_sdpa_sparse(sdp)
        raise _Captured(hashlib.sha256(text.encode()).hexdigest()[:16])

    with pytest.raises(_Captured) as captured:
        _solve_sdp_tier(layout, on_sdp=capture)
    return captured.value.args[0]


# (system, deg V, multiplier slack) -> sdp_tier_digest of the unpruned
# system (eps_pd 1e-3, no decrease margin).  Re-recorded when the objective
# on the Grams became zero: each dump lost its objective lines `0 b i i v`
# and nothing else.
SDPA_DIGESTS = {
    ("cusp", 2, 0): "139ca51312483864",
    ("cusp", 2, 2): "d631665ffce61ec2",
    ("cusp", 4, 0): "b7312920417b4c3d",
    ("cusp", 4, 2): "4373a76d7c2ed99e",
    ("cusp", 6, 0): "5062427ed914f922",
    ("cusp", 6, 2): "acb04bf9574cc685",
    ("ball", 2, 0): "3c4dd5cfa7a6f869",
    ("ball", 2, 2): "2679e31e27e5f952",
    ("ball", 4, 0): "0352b08b2faf333a",
    ("ball", 4, 2): "08f7b153b5e68f6a",
    ("ball", 6, 0): "0da02146f8dd093e",
    ("ball", 6, 2): "c8c36323801c80e4",
}


@pytest.mark.parametrize("case", SDPA_DIGESTS,
                         ids=["-".join(map(str, c)) for c in SDPA_DIGESTS])
def test_sdp_tier_input_is_pinned(case):
    assert sdp_tier_digest(_tier_equalities(*case)) == SDPA_DIGESTS[case]


# (system, deg V, multiplier slack) -> (sdp_tier_digest, equality rows) of
# the reduced system, which is what solve_certificate solves and
# --dump-sdpa writes.  Re-recorded when the sign-group split came before
# pruning: both systems have a nontrivial group, the blocks split by
# parity class and the rows of non-invariant monomials went; the margins
# stayed within 1e-9 (test_split_keeps_the_margin)
PRUNED_SDPA_DIGESTS = {
    ("cusp", 2, 0): ("8ade3baf2e199a3c", 14),
    ("cusp", 2, 2): ("080dc5b8887cc2cb", 35),
    ("cusp", 4, 0): ("f7ba3ceca4ad22d4", 36),
    ("cusp", 4, 2): ("2125d5d0a0ad0774", 65),
    ("cusp", 6, 0): ("95a27f765e317442", 66),
    ("cusp", 6, 2): ("9e954976d9dac903", 103),
    ("ball", 2, 0): ("9bfd75c4d111beeb", 13),
    ("ball", 2, 2): ("d2b0b8303c6d2f0b", 40),
    ("ball", 4, 0): ("a0be5bf05959a6f6", 40),
    ("ball", 4, 2): ("d942d7eefac626e9", 88),
    ("ball", 6, 0): ("7ff6dc256fff7064", 88),
    ("ball", 6, 2): ("2730d4f6208fb176", 163),
}


@pytest.mark.parametrize("case", PRUNED_SDPA_DIGESTS,
                         ids=["-".join(map(str, c)) for c in PRUNED_SDPA_DIGESTS])
def test_pruned_sdp_tier_input_is_pinned(case):
    layout = _tier_equalities(*case, reduced=True)
    assert (sdp_tier_digest(layout), len(layout.rhs)) == \
        PRUNED_SDPA_DIGESTS[case]


def lp_digest(lp) -> str:
    """Hash of the LP's sense, objective, A (with its shape), b, relations
    and bounds, every float bit for bit."""
    h = hashlib.sha256()
    h.update(repr((lp.maximize, lp.A.shape, list(lp.relations),
                   [tuple(map(repr, pair)) for pair in lp.bounds])).encode())
    for arr in (lp.objective, lp.A, lp.b):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# (system, deg V, multiplier slack) -> digest of the DSOS tier's LP
DSOS_DIGESTS = {
    ("cusp", 2, 0): "2c3849c4bb0039bd",
    ("cusp", 2, 2): "a70a1d3fc1d5767c",
    ("cusp", 4, 0): "d92a818b724f4d34",
    ("cusp", 4, 2): "9c6d0fbaa4a993ce",
    ("ball", 2, 0): "22d3f2e6622369b4",
    ("ball", 2, 2): "5a46854681db9fe4",
    ("ball", 4, 0): "65b6d8c0ec3bc79d",
    ("ball", 4, 2): "7184e210f038d530",
}


def dsos_tier_digest(layout, monkeypatch) -> str:
    """lp_digest of the DSOS tier's LP."""
    def capture(lp):
        raise _Captured(lp_digest(lp))

    monkeypatch.setattr(linprog, "solve", capture)
    with pytest.raises(_Captured) as captured:
        _solve_dsos_tier(layout)
    return captured.value.args[0]


@pytest.mark.parametrize("case", DSOS_DIGESTS,
                         ids=["-".join(map(str, c)) for c in DSOS_DIGESTS])
def test_dsos_tier_input_is_pinned(case, monkeypatch):
    assert dsos_tier_digest(_tier_equalities(*case), monkeypatch) == \
        DSOS_DIGESTS[case]


# (system, deg V, multiplier slack) -> digest of the DSOS tier's LP over
# the reduced system; re-recorded with the split, as above
PRUNED_DSOS_DIGESTS = {
    ("cusp", 2, 0): "299aeffa57a54fab",
    ("cusp", 2, 2): "af9c6aef8497e45f",
    ("cusp", 4, 0): "d5d514086ade9623",
    ("cusp", 4, 2): "7e6fb054731d93b5",
    ("ball", 2, 0): "6f8d52fdf59ee7a3",
    ("ball", 2, 2): "ffb89e1707cf2ced",
    ("ball", 4, 0): "0adb531b2ab2d8b2",
    ("ball", 4, 2): "e46c22fe987cdc9c",
}


@pytest.mark.parametrize("case", PRUNED_DSOS_DIGESTS,
                         ids=["-".join(map(str, c)) for c in PRUNED_DSOS_DIGESTS])
def test_pruned_dsos_tier_input_is_pinned(case, monkeypatch):
    layout = _tier_equalities(*case, reduced=True)
    assert dsos_tier_digest(layout, monkeypatch) == PRUNED_DSOS_DIGESTS[case]


# -- find-lyap-sos output, pinned ----------------------------------------------

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

# (system, tier, deg V) -> sha256 of the certificate.txt that
# find-lyap-sos --samples 2000 writes with BLAS on one thread; the SDP
# iterates may depend on the BLAS thread count in their last bits.  Re-recorded
# when the forced Gram monomials were first pruned: the DSOS file lost only
# the eigenvalue line of the emptied sigma_2.  Re-recorded with the
# sign-group split: the same margins (DSOS 0.0, SDP within 3e-17), and V,
# phi and every Gram keep only invariant terms.  Ball deg 4 re-recorded when
# the SDP's equality operator became one bincount over the nonzeros: the
# same margin bit for bit, no coefficient moved by more than 7.7e-14, and
# the residuals stayed <= 1.8e-15.  Both SDP pins re-recorded when every
# block came to be stepped in one stack padded to the largest size, which
# changes only the order of summation: cusp deg 2 margin
# -1.1110126721275395e-11 -> -1.1110126723112046e-11, largest coefficient
# move 1.6e-9 (chi_1's x1^2; these Grams sit on the PSD boundary),
# residuals <= 1.19e-14 on both sides; ball deg 4 margin 0.9999999999947714
# on both, largest move 1.4e-13, residuals <= 1.8e-15 -> <= 1.6e-15
CERTIFICATE_SHA256 = {
    ("cusp", "sdp", 2):
        "d550822fd6b839f8b5db740d0ebc53b258b23d19de50fb5864382ef3fd36ce91",
    ("cusp", "dsos", 2):
        "8331b02bd4281c89b6dd39225147d477e11ca13f325f52a2d9ddc4866e90cf5c",
    ("ball", "sdp", 4):
        "ef2196673deb303fe58c3e21af9790408cb618d227a60fbd084b3758cec7d989",
}


def find_sos(spec, tier, deg, out, threads=1, *flags):
    """Run find-lyap-sos --samples 2000 in a fresh interpreter with BLAS
    on the given number of threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)}
    subprocess.run([sys.executable, "-m", "lyapcert.cli", "find-lyap-sos",
                    str(spec), "--deg", str(deg), "--tier", tier,
                    "--samples", "2000", *flags, "--out", str(out)],
                   env=env, check=True, capture_output=True)


def sos_spec(name, tmp_path):
    if name == "cusp":
        return Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
    spec = tmp_path / "ball.spec"
    spec.write_text(BALL_SPEC)
    return spec


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CERTIFICATE_SHA256,
                         ids=["-".join(map(str, c)) for c in CERTIFICATE_SHA256])
def test_sos_certificate_file_is_pinned(case, tmp_path):
    name, tier, deg = case
    out = tmp_path / "out"
    find_sos(sos_spec(name, tmp_path), tier, deg, out)
    assert sha256_of(out / "certificate.txt") == CERTIFICATE_SHA256[case]


@pytest.mark.parametrize("name, deg", [("cusp", 2), ("cusp", 6), ("ball", 4),
                                       ("ball", 6)],
                         ids=["cusp-2", "cusp-6", "ball-4", "ball-6"])
def test_sdp_certificate_does_not_depend_on_the_blas_threads(name, deg,
                                                             tmp_path):
    # before the split, ball deg 6 differed in 18 lines between one and
    # two BLAS threads
    spec = sos_spec(name, tmp_path)
    for threads in (1, 2):
        find_sos(spec, "sdp", deg, tmp_path / f"t{threads}", threads)
    assert (tmp_path / "t1" / "certificate.txt").read_bytes() == \
        (tmp_path / "t2" / "certificate.txt").read_bytes()


@pytest.mark.parametrize("case", CERTIFICATE_SHA256,
                         ids=["-".join(map(str, c)) for c in CERTIFICATE_SHA256])
def test_certificate_residual_is_the_reference_residual(case):
    # the extraction's worst row residual, recomputed term by term from the
    # certificate's Grams, V and phi on the unpruned system, is the same
    # float: each pruned Gram is padded with zero rows and columns for the
    # monomials pruning dropped
    name, tier, deg = case
    system = cusp_system() if name == "cusp" else ball_system()
    cert = solve_certificate(system, deg, tier=tier).certificate
    eq = _assemble_full(system, deg, 0)
    assert set(eq.blocks) == set(cert.multipliers)
    grams = {}
    for n, block in eq.blocks.items():
        rec = cert.multipliers[n]
        at = [block.basis.index(mono) for mono in rec.basis]
        assert at == sorted(at)
        grams[n] = np.zeros((block.size, block.size))
        grams[n][np.ix_(at, at)] = rec.gram
    frees = {group: {mono: float(c) for mono, c in p.terms.items()}
             for group, p in {"V": cert.V, **cert.phi}.items()}
    assert equality_residual(eq, grams, frees) == max(cert.residuals.values())


# -- the sign-group split --------------------------------------------------------

def span(basis) -> set[int]:
    """Every sign vector (a bit mask) that the flips in basis generate."""
    out = {0}
    for b in basis:
        out |= {v ^ b for v in out}
    return out


def odd_bits(mono) -> int:
    return sum(1 << k for k, e in enumerate(mono) if e % 2)


def keeps(mono, flips, i=None) -> bool:
    """x^mono is invariant under every flip (i is None), or changes sign
    with x_i under every flip (a term of f_i)."""
    return all((odd_bits(mono) & b).bit_count() % 2 ==
               (0 if i is None else b >> i & 1) for b in flips)


@st.composite
def planted_systems(draw, one_flip=False):
    """(n, flips, generators, field) as term dicts: every term respects
    the flips, and g_1 holds every 0/1 monomial that the flips keep, so no
    other flip keeps all of g_1.  Up to three flips, or exactly one."""
    n = draw(st.integers(1, 4))
    flip = st.integers(1, 2 ** n - 1)
    flips = [draw(flip)] if one_flip else draw(st.lists(flip, max_size=3))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4,
                          max_denominator=6).filter(bool)
    origin = (0,) * n
    g1 = {a: draw(coeffs) for a in itertools.product((0, 1), repeat=n)
          if keeps(a, flips)}
    gens = [g1] + [{a: c for a, c in
                    draw(st.dictionaries(monos, coeffs, max_size=4)).items()
                    if keeps(a, flips)}
                   for _ in range(draw(st.integers(0, 2)))]
    for g in gens:
        g[origin] = Fraction(1)        # g(0) > 0
    field = [{a: c for a, c in
              draw(st.dictionaries(monos, coeffs, max_size=4)).items()
              if any(a) and keeps(a, flips, i)} for i in range(n)]
    return n, flips, gens, field


def system_of(n, gens, field):
    S = SemialgebraicSet([Polynomial(n, g) for g in gens], [(-1.0, 1.0)] * n)
    return SemialgebraicSystem([Polynomial(n, c) for c in field], S)


@settings(max_examples=100, deadline=None)
@given(planted_systems())
def test_sign_group_is_exactly_the_planted_flips(drawn):
    n, flips, gens, field = drawn
    assert span(sign_group(system_of(n, gens, field))) == span(flips)


@settings(max_examples=100, deadline=None)
@given(planted_systems(one_flip=True), st.data())
def test_one_odd_term_leaves_the_trivial_group(drawn, data):
    n, (flip,), gens, field = drawn
    assert span(sign_group(system_of(n, gens, field))) == {0, flip}
    target = data.draw(st.integers(0, len(gens) + n - 1))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    if target < len(gens):
        odd = data.draw(monos.filter(lambda a: not keeps(a, [flip])))
        gens[target][odd] = Fraction(1, 10)
    else:
        i = target - len(gens)
        odd = data.draw(monos.filter(
            lambda a: any(a) and not keeps(a, [flip], i)))
        field[i][odd] = Fraction(1, 10)
    assert sign_group(system_of(n, gens, field)) == []


def test_benchmark_sets_have_their_sign_groups():
    # cusp_box: x2 -> -x2; the ball: (x1, x2) -> -(x1, x2) and x3 -> -x3
    assert span(sign_group(cusp_system())) == {0b00, 0b10}
    assert span(sign_group(ball_system())) == {0b000, 0b011, 0b100, 0b111}


TILTED_SPEC = (Path(__file__).resolve().parents[1] / "specs" /
               "cusp_box.spec").read_text().replace(
    "g2: 1 - x1", "g2: 1 - x1 - 1/10*x2")

# sha256 of the --dump-sdpa file and of certificate.txt (one BLAS thread)
# for TILTED_SPEC at deg 2, recorded before the split existed; the
# certificate re-recorded when the SDP's equality operator became one
# bincount over the nonzeros (the dump unchanged, the margin -4.9e-10 moved
# by 1.5e-20, no coefficient by more than 1.7e-12)
TILTED_SDPA = "9db7d481ae7399c534fd1bb3a6281165f9326c83c0b0bd1dc989af73eec3abd6"
TILTED_CERTIFICATE = \
    "952622565f9e9c88e6ae38d3eb5df4c747e813ef52cdfb5aef6957b53e99e409"


def test_trivial_group_leaves_the_program_as_it_is(tmp_path):
    # the tilted line g2 = 1 - x1 - x2/10 is odd in x2, so no flip keeps it
    spec = tmp_path / "tilted.spec"
    spec.write_text(TILTED_SPEC)
    system = parse_spec(spec).system
    assert sign_group(system) == []
    out = tmp_path / "out"
    find_sos(spec, "sdp", 2, out, 1, "--dump-sdpa")
    assert sha256_of(out / "sdp-deg2-s0.dat-s") == TILTED_SDPA
    assert sha256_of(out / "certificate.txt") == TILTED_CERTIFICATE


def character(mono, group) -> tuple[int, ...]:
    return tuple((odd_bits(mono) & b).bit_count() % 2 for b in group)


@pytest.mark.parametrize("tier", ["sdp", "dsos"])
@pytest.mark.parametrize("name, deg", [("cusp", 2), ("cusp", 4), ("cusp", 6),
                                       ("ball", 4), ("ball", 6)],
                         ids=["cusp-2", "cusp-4", "cusp-6", "ball-4",
                              "ball-6"])
def test_split_keeps_the_margin(name, deg, tier, monkeypatch):
    # the group average of a certificate is a certificate with the same t,
    # so t* is the same with the split and without it, and the split's
    # certificate is invariant: V and phi have only invariant terms and
    # each Gram is zero across parity classes
    system = cusp_system() if name == "cusp" else ball_system()
    split = solve_certificate(system, deg, tier=tier)
    monkeypatch.setattr(sos_cert, "sign_group", lambda system: [])
    whole = solve_certificate(system, deg, tier=tier)
    assert split.status == whole.status == "certificate"
    assert abs(split.margin - whole.margin) <= 1e-9
    cert, group = split.certificate, sign_group(system)
    for p in (cert.V, *cert.phi.values()):
        assert not any(any(character(m, group)) for m in p.terms)
    for rec in cert.multipliers.values():
        classes = [character(m, group) for m in rec.basis]
        for i, j in itertools.combinations(range(len(classes)), 2):
            if classes[i] != classes[j]:
                assert rec.gram[i, j] == rec.gram[j, i] == 0.0


def by_the_two_passes(eq, system):
    return prune_forced_monomials(split_by_sign_group(eq, system))


@pytest.mark.parametrize("slack", [0, 2])
@pytest.mark.parametrize("deg", [2, 4, 6])
@pytest.mark.parametrize("name", ["cusp", "ball", "tilted"])
def test_reduce_is_the_split_then_the_pruning(name, deg, slack, tmp_path):
    # one pass gives the program of the two it replaced: blocks, bases,
    # free groups, rows and their term order (the SDP bits follow it)
    if name == "tilted":
        spec = tmp_path / "tilted.spec"
        spec.write_text(TILTED_SPEC)
        system = parse_spec(spec).system
    else:
        system = cusp_system() if name == "cusp" else ball_system()
    eq = _assemble_full(system, deg, slack)
    assert program_of(_reduce(eq, sign_group(system))) == \
        program_of(by_the_two_passes(eq, system))


@settings(max_examples=100, deadline=None)
@given(planted_systems(), st.sampled_from([2, 4]), st.sampled_from([0, 2]))
def test_reduce_is_the_two_passes_on_planted_systems(drawn, deg, slack):
    n, _, gens, field = drawn
    assume(n <= 3 and all(sum(a) <= deg for g in gens for a in g))
    system = system_of(n, gens, field)
    eq = _assemble_full(system, deg, slack)
    assert program_of(_reduce(eq, sign_group(system))) == \
        program_of(by_the_two_passes(eq, system))


# (name, deg) -> (equality rows, largest block) of the SDP of each sos-sdp
# benchmark find, the cap row and block included.  Before the split:
# rows 22/62/118/104/251, largest block 3/7/12/10/20.
SDP_SIZES = {("cusp", 2): (15, 2), ("cusp", 4): (37, 4), ("cusp", 6): (67, 7),
             ("ball", 4): (41, 5), ("ball", 6): (89, 8)}


@pytest.mark.parametrize("case", SDP_SIZES,
                         ids=["-".join(map(str, c)) for c in SDP_SIZES])
def test_benchmark_sdp_sizes_are_pinned(case):
    def capture(sdp):
        raise _Captured(len(sdp.b), max(len(A[0]) for A in sdp.A))

    with pytest.raises(_Captured) as captured:
        _solve_sdp_tier(_tier_equalities(*case, 0, reduced=True),
                        on_sdp=capture)
    assert captured.value.args == SDP_SIZES[case]
