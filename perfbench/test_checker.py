"""Tests of the benchmark's independent checker (no lyapcert imports)."""

from fractions import Fraction

import numpy as np
import pytest

import checker
import checks
import workloads

CONE2D = checker.ConeSystem(np.array([[-1.0, -2.0], [-1.0, -1.0]]),
                            np.array([[-0.25, 1.0], [1.0, -0.25]]))
CONE2D_H = "2.9*x1^2 + 1*x1*x2 + 1*x2^2"
CUSP = checker.SetSystem(workloads.CUSP_F, workloads.CUSP_G,
                         workloads.CUSP_BOX)


def test_accepts_the_readme_cone2d_candidate():
    assert checker.check_candidate(CONE2D, CONE2D_H, seed=1) == []


def test_rejects_the_negated_cone2d_candidate():
    negated = workloads.scaled(CONE2D_H, Fraction(-1))
    assert negated == "-1/1*2.9*x1^2 - 1/1*1*x1*x2 - 1/1*1*x2^2"
    problems = checker.check_candidate(CONE2D, negated, seed=1)
    assert any("V <= 0" in p for p in problems)
    assert any("increases" in p for p in problems)


def test_semialgebraic_candidate_and_its_negation():
    assert checker.check_candidate(CUSP, "1/1000*x1^2 + 1/1000*x2^2",
                                   seed=3) == []
    assert checker.check_candidate(CUSP, "-1/1000*x1^2 - 1/1000*x2^2",
                                   seed=3) != []


def test_eta_makes_the_field_tangent_on_a_face():
    x = np.array([1.0, 0.25])             # on the face -0.25 x1 + x2 = 0
    v = checker.tangent_field(CONE2D, x[None, :])[0]
    assert CONE2D.C[0] @ v == pytest.approx(0.0, abs=1e-12)
    assert CONE2D.C[0] @ CONE2D.field(x[None, :])[0] < 0


def _write_trajectory(path, states, wrap=False):
    fmt = (lambda v: f"np.float64({v!r})") if wrap else repr
    lines = ["t,x1,x2,eta1,eta2,V"]
    for k, x in enumerate(states):
        lines.append(",".join([repr(k * 1e-3)] + [fmt(float(v)) for v in x]
                              + [fmt(0.0), fmt(0.0), "0.0"]))
    path.write_text("\n".join(lines) + "\n")


def test_trajectory_checks(tmp_path):
    # Explicit Euler on cone2d from (1, 1) stays inside the cone.
    x, states = np.array([1.0, 1.0]), []
    for _ in range(101):
        states.append(x)
        x = x + 1e-3 * CONE2D.A @ x
    good = tmp_path / "good.csv"
    _write_trajectory(good, states, wrap=True)
    assert checker.check_trajectory(CONE2D, good, CONE2D_H, steps=100) == []
    assert checker.check_trajectory(CONE2D, good, CONE2D_H, steps=99) != []

    outside = tmp_path / "outside.csv"
    _write_trajectory(outside, states[:50] + [np.array([3.0, -1.0])])
    problems = checker.check_trajectory(CONE2D, outside, CONE2D_H)
    assert any("outside the set" in p for p in problems)
    assert any("V rises" in p for p in problems)
    assert any("final norm" in p for p in problems)


def test_highs_margin_reads_a_dumped_lp(tmp_path):
    # max t s.t. x1 - t >= 0, -x1 + 2 x2 - t >= 0, |x| <= 1: t* = 1.
    lp = tmp_path / "lp-d2-r0-s0.lp"
    lp.write_text("Maximize\n obj: 1.0 x3\nSubject To\n"
                  " c1: 1.0 x1 - 1.0 x3 >= 0.0\n"
                  " c2: - 1.0 x1 + 2.0 x2 - 1.0 x3 >= 0.0\n"
                  "Bounds\n -1.0 <= x1 <= 1.0\n -1.0 <= x2 <= 1.0\n"
                  " -inf <= x3 <= +inf\nEnd\n")
    assert checks.highs_margin(lp) == pytest.approx(1.0)


def test_only_the_named_stall_symptom_is_expected(tmp_path):
    lp = "Maximize\n obj: 1.0 x2\nSubject To\n c1: 1.0 x1 - 1.0 x2 >= 0.0\n" \
         "Bounds\n -1.0 <= x1 <= 1.0\n -inf <= x2 <= +inf\nEnd\n"
    (tmp_path / "lp-d4-r1-s0.lp").write_text(lp)
    session = workloads.build("lp-solve", 1)[-1]
    check = checks.Checks([session]).check

    def record(code, status):
        return {"session": session.name, "index": 0, "exit": code,
                "status": status, "out": str(tmp_path), "argv": []}

    stall = "exhausted-schedule detail='d=4 r=1 sweeps=0 best-margin=-inf'"
    problems, expected = check(record(1, stall))
    assert problems and expected
    for code, status in [(2, "usage-error"), (1, "certificate-rejected"),
                         (0, "certificate-found")]:
        problems, expected = check(record(code, status))
        assert problems and not expected
    (tmp_path / "lp-d4-r1-s0.lp").write_text("Maximize\nSubject To\n")
    problems, expected = check(record(1, stall))
    assert any("unreadable output" in p for p in problems) and not expected


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        assert [s.spec_text for s in a] == [s.spec_text for s in b]
        assert [[c.argv for c in s.commands] for s in a] == \
            [[c.argv for c in s.commands] for s in b]
