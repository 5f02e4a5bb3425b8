import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapcert import linprog, sos_cert
from lyapcert.poly import Polynomial, parse_polynomial
from lyapcert.sdpsolve import SdpResult, dump_sdpa_sparse
from lyapcert.sos_cert import (EPS_PD, DegreeScheduleError,
                               SemialgebraicSystem, SosSetupError,
                               _assemble_full, _FloatLayout,
                               _solve_dsos_tier, _solve_sdp_tier,
                               assemble_condition_i,
                               assemble_condition_ii, assemble_condition_iii,
                               gram_parameterize,
                               solve_certificate)
from lyapcert.tangency import SemialgebraicSet
from reference import (equality_residual, gram_from_sos_terms,
                       worst_gram_eigenvalue, worst_residual)


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
    basis, block = gram_parameterize(2, 2)
    assert basis == [(0, 0), (1, 0), (0, 1)]
    G = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    assert block.expand(G) == parse_polynomial("x1^2 - 2*x1*x2 + x2^2", 2)


def test_gram_identity_gives_sum_of_squared_monomials():
    basis, block = gram_parameterize(4, 2)
    G = np.eye(block.size)
    expected = Polynomial.zero(2)
    for mono in basis:
        expected = expected + Polynomial.monomial(mono) ** 2
    assert block.expand(G) == expected


def test_gram_expand_collect_roundtrip():
    rng = np.random.default_rng(61)
    basis, block = gram_parameterize(4, 2)
    for _ in range(50):
        Q = rng.uniform(-2, 2, size=(block.size, block.size))
        G = 0.5 * (Q + Q.T)
        p = block.expand(G)
        # re-collect: coefficient of each product monomial matches the pair sums
        for mono, pairs in block.pairs_by_monomial.items():
            acc = sum((1 if i == j else 2) * G[i, j] for i, j in pairs)
            assert abs(float(p.coefficient(mono)) - acc) <= 1e-12


def test_gram_odd_degree_rejected():
    with pytest.raises(SosSetupError):
        gram_parameterize(3, 2)


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
    with pytest.raises(DegreeScheduleError):
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
EQUALITY_DIGESTS = {
    ("cusp", 2, 0, False): ("960553d0b2f3708a", 39),
    ("cusp", 2, 2, False): ("6ee97cd120e21c71", 83),
    ("cusp", 4, 0, False): ("a3a972aead5c45d5", 83),
    ("cusp", 4, 2, False): ("23f77cb856cc8104", 143),
    ("cusp", 6, 0, False): ("a9fc5e5b63313fd2", 143),
    ("cusp", 6, 2, False): ("3fb3f7adc672bdfb", 219),
    ("ball", 2, 0, False): ("d7a0b079b5758f3e", 30),
    ("ball", 2, 2, False): ("26bd50971cf7c28e", 105),
    ("ball", 4, 0, False): ("31512dcbed21f968", 105),
    ("ball", 4, 2, False): ("4ebbea6eecb9cbb8", 252),
    ("ball", 6, 0, False): ("37cc74e43c630890", 252),
    ("ball", 6, 2, False): ("d240eb6bb99156fe", 495),
}


@pytest.mark.parametrize("case", EQUALITY_DIGESTS,
                         ids=["-".join(map(str, c)) for c in EQUALITY_DIGESTS])
def test_stacked_equality_system_is_pinned(case):
    name, deg, slack, _ = case
    system = cusp_system() if name == "cusp" else ball_system()
    eq = _assemble_full(system, deg, slack)
    assert (equality_system_digest(eq), len(eq.rows)) == \
        EQUALITY_DIGESTS[case]


class _Captured(Exception):
    """Stops a tier once its solver input has been built."""


def _tier_equalities(name, deg, slack):
    """The float layout of a tier's equality system."""
    system = cusp_system() if name == "cusp" else ball_system()
    return _FloatLayout(_assemble_full(system, deg, slack))


# (system, deg V, multiplier slack) -> first 16 hex digits of the sha256 of
# the SDPA dump of the SDP tier's input (eps_pd 1e-3, no decrease margin)
SDPA_DIGESTS = {
    ("cusp", 2, 0): "f8d9702b9c076c5e",
    ("cusp", 2, 2): "290b009d15136b8c",
    ("cusp", 4, 0): "de0be6d376bfbcf7",
    ("cusp", 4, 2): "0bfa41bcd50aa006",
    ("cusp", 6, 0): "bd98209acde17c00",
    ("cusp", 6, 2): "66c12492bce868ec",
    ("ball", 2, 0): "79ab1ffbb0d8f5e9",
    ("ball", 2, 2): "e612e6129a0ae681",
    ("ball", 4, 0): "8cb0afc4adf8c427",
    ("ball", 4, 2): "038100dcf81c059c",
    ("ball", 6, 0): "9bf089c4093eaa53",
    ("ball", 6, 2): "eef1f12a4f18adf6",
}


@pytest.mark.parametrize("case", SDPA_DIGESTS,
                         ids=["-".join(map(str, c)) for c in SDPA_DIGESTS])
def test_sdp_tier_input_is_pinned(case):
    def capture(sdp):
        text = dump_sdpa_sparse(sdp)
        raise _Captured(hashlib.sha256(text.encode()).hexdigest()[:16])

    with pytest.raises(_Captured) as captured:
        _solve_sdp_tier(_tier_equalities(*case), on_sdp=capture)
    assert captured.value.args[0] == SDPA_DIGESTS[case]


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


@pytest.mark.parametrize("case", DSOS_DIGESTS,
                         ids=["-".join(map(str, c)) for c in DSOS_DIGESTS])
def test_dsos_tier_input_is_pinned(case, monkeypatch):
    def capture(lp):
        raise _Captured(lp_digest(lp))

    monkeypatch.setattr(linprog, "solve", capture)
    with pytest.raises(_Captured) as captured:
        _solve_dsos_tier(_tier_equalities(*case))
    assert captured.value.args[0] == DSOS_DIGESTS[case]


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
# iterates depend on the BLAS thread count in their last bits
CERTIFICATE_SHA256 = {
    ("cusp", "sdp", 2):
        "5a9863a35630034f0c4189ae39056fde26d38fddb6d69b2a02922a628c5c997d",
    ("cusp", "dsos", 2):
        "a6766290c136f963f8dc58d5c759b4a32d538b9a37aeedb2c7e323de48bbedf0",
    ("ball", "sdp", 4):
        "4ea6140fc7a30a6343a51978e9c446d82b5049242680ababc00ffbc827bd6e2d",
}


@pytest.mark.parametrize("case", CERTIFICATE_SHA256,
                         ids=["-".join(map(str, c)) for c in CERTIFICATE_SHA256])
def test_sos_certificate_file_is_pinned(case, tmp_path):
    name, tier, deg = case
    if name == "cusp":
        spec = Path(__file__).resolve().parents[1] / "specs" / "cusp_box.spec"
    else:
        spec = tmp_path / "ball.spec"
        spec.write_text(BALL_SPEC)
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "lyapcert.cli", "find-lyap-sos",
                    str(spec), "--deg", str(deg), "--tier", tier,
                    "--samples", "2000", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    digest = hashlib.sha256((out / "certificate.txt").read_bytes()).hexdigest()
    assert digest == CERTIFICATE_SHA256[case]


@pytest.mark.parametrize("case", CERTIFICATE_SHA256,
                         ids=["-".join(map(str, c)) for c in CERTIFICATE_SHA256])
def test_certificate_residual_is_the_reference_residual(case):
    # the extraction's worst row residual, recomputed term by term from the
    # certificate's Grams, V and phi, is the same float
    name, tier, deg = case
    system = cusp_system() if name == "cusp" else ball_system()
    cert = solve_certificate(system, deg, tier=tier).certificate
    eq = _assemble_full(system, deg, 0)
    assert {n: b.basis for n, b in eq.blocks.items()} == \
        {n: m.basis for n, m in cert.multipliers.items()}
    grams = {n: m.gram for n, m in cert.multipliers.items()}
    frees = {group: {mono: float(c) for mono, c in p.terms.items()}
             for group, p in {"V": cert.V, **cert.phi}.items()}
    assert equality_residual(eq, grams, frees) == max(cert.residuals.values())
