"""Workload inputs, made from the seed.

A workload is a list of sessions.  A session is one system (a spec file
plus the same system described for the independent checker) and the CLI
commands a user runs on it: find a certificate, verify it, verify a
negative control, simulate with the certificate recorded along the path.
The same seed gives the same inputs; what the seed changes leaves the size
of every LP and SDP the same, so run-to-run differences come from the
machine and the program, not from the inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# The square cone of ROADMAP item 1: x3 >= 2|x1| and x3 >= 2|x2|.
SQ3D_CONE = [[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5], [0, -1, 0.5]]
SQ3D_FIELD = [[-1, 2, -0.2], [-2, -1, 0.1], [0.3, 0, -0.5]]

# Linear fields on the square cone that certify at d=2, r=0 only after one
# refinement sweep (431 rows).  They come from a seeded search, see
# README.md.  They stay fixed: the seed changes the start states, the
# negative controls and the samples, not the LPs.
REFINING_FIELDS = [
    [[-1.5, 2.5, 0], [-1.5, -1.2, -0.8], [0.2, -0.3, 0]],
    [[-0.5, 1.7, 0.6], [-2.4, -1.2, -1.0], [0.8, 0, 0.1]],
]

CUSP_F = ["-1*x1^2", "0"]
CUSP_G = ["x1 - x2^2", "1 - x1"]
CUSP_BOX = [(-0.5, 1.5), (-1.5, 1.5)]
BALL_F = ["-1*x1 + 1*x2", "-1*x1 - 1*x2", "-1*x3"]    # damped rotation
BALL_G = ["1 - x1^2 - x2^2 - x3^2"]
BALL_BOX = [(-1.0, 1.0)] * 3

# Simulation lengths.  The cone fields decay slowly (refine1 keeps about
# its norm for T = 10), so their runs are long and coarse; the semialgebraic
# runs start on the boundary and project at every step.
CONE_DT, CONE_SIM_STEPS = 1e-2, 20_000
SET_DT, SET_SIM_STEPS = 1e-3, 5000
# Half the CLI's default of 10,000: the sampling oracle would otherwise take
# two thirds of sos-sdp, and the runs must fit the benchmark's time budget.
SET_ORACLE_SAMPLES = 5000


@dataclass
class Command:
    """One CLI call: argv after the spec path, and what it must produce."""

    kind: str                      # find | verify | verify-negative | simulate
    argv: list[str]
    expect_exit: int
    expect_status: str
    factor: str | None = None      # negative control: factor * certificate
    steps: int | None = None       # simulate: expected step count
    known_fault: str | None = None  # an operation that fails today, by name


@dataclass
class Session:
    name: str
    spec_text: str
    system: dict        # keyword arguments of checker.ConeSystem / SetSystem
    commands: list[Command] = field(default_factory=list)
    check_seed: int = 0


def _dec(value) -> str:
    """Exact decimal text of a coefficient."""
    text = f"{float(value):.6f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _linear(row) -> str:
    terms = [f"{_dec(a)}*x{j + 1}" for j, a in enumerate(row) if a != 0]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def cone_spec(A, C) -> str:
    lines = [f"dim: {len(A)}"]
    lines += [f"f{i + 1}: {_linear(row)}" for i, row in enumerate(A)]
    lines += [f"cone{i + 1}: {_linear(row)}" for i, row in enumerate(C)]
    return "\n".join(lines) + "\n"


def set_spec(f, g, box) -> str:
    lines = [f"dim: {len(f)}"]
    lines += [f"f{i + 1}: {t}" for i, t in enumerate(f)]
    lines += [f"g{i + 1}: {t}" for i, t in enumerate(g)]
    lines += [f"box{i + 1}: {lo!r} {hi!r}" for i, (lo, hi) in enumerate(box)]
    return "\n".join(lines) + "\n"


def _cone_point(rng, C, min_slack: float = 0.05) -> np.ndarray:
    while True:
        x = rng.standard_normal(len(C[0]))
        x /= np.linalg.norm(x)
        if (np.asarray(C) @ x >= min_slack).all():
            return np.round(x, 6)


def _negation(rng) -> Fraction:
    """A seeded negative factor; -factor * V fails positivity."""
    return -Fraction(int(rng.integers(50, 200)), 100)


def scaled(text: str, factor: Fraction) -> str:
    """factor * p for p in the canonical grammar, term by term."""
    parts = re.split(r" ([+-]) ", text.strip())
    signs, bodies = ["+"] + parts[1::2], parts[0::2]
    if bodies[0].startswith("-"):
        signs[0], bodies[0] = "-", bodies[0][1:]
    mag = f"{abs(factor.numerator)}/{factor.denominator}"
    out = []
    for sign, body in zip(signs, bodies):
        negative = (sign == "-") != (factor < 0)
        out.append(("-" if negative else "+", f"{mag}*{body}"))
    first = ("-" if out[0][0] == "-" else "") + out[0][1]
    return first + "".join(f" {s} {b}" for s, b in out[1:])


def _xs(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _cone_session(name, A, C, rng) -> Session:
    """d=2, r=0 with up to 4 refinement sweeps."""
    x0 = _cone_point(rng, C)
    A, C = np.asarray(A, float), np.asarray(C, float)
    cmds = [
        Command("find", ["find-lyap-cone", "--deg", "2", "--r", "0",
                         "--sweeps", "4"], 0, "certificate-found"),
        Command("verify", ["verify", "--certificate", "{cert}"], 0,
                "verified"),
        Command("verify-negative", ["verify", "--r", "0"], 1,
                "verification-failed", factor=str(_negation(rng))),
        Command("simulate", ["simulate", "--x0=" + _xs(x0),
                             "--T", repr(CONE_SIM_STEPS * CONE_DT),
                             "--dt", repr(CONE_DT), "--r", "0"], 0,
                "simulated", steps=CONE_SIM_STEPS),
    ]
    return Session(name, cone_spec(A, C), {"A": A, "C": C}, cmds,
                   int(rng.integers(2**31)))


def _set_session(name, f, g, box, x0, rng, deg, tier) -> Session:
    # The oracle keeps the CLI's default seed: its verdict on the SDP
    # certificates of cusp_box depends on where its samples land (see
    # CHANGES.md), and an outcome that moves with --seed cannot be counted.
    oracle = ["--samples", str(SET_ORACLE_SAMPLES)]
    cmds = [
        Command("find", ["find-lyap-sos", "--deg", str(deg), "--tier", tier]
                + oracle, 0, "certificate-found"),
        Command("verify", ["verify", "--certificate", "{cert}"] + oracle, 0,
                "verified"),
        Command("verify-negative", ["verify"] + oracle, 1,
                "verification-failed", factor=str(_negation(rng))),
        Command("simulate", ["simulate", "--x0=" + _xs(x0),
                             "--T", repr(SET_SIM_STEPS * SET_DT),
                             "--dt", repr(SET_DT)], 0,
                "simulated", steps=SET_SIM_STEPS),
    ]
    return Session(name, set_spec(f, g, box), {"f": f, "g": g, "box": box},
                   cmds, int(rng.integers(2**31)))


def _cusp_boundary_point(rng) -> np.ndarray:
    """A point of g1 = x1 - x2^2 = 0 inside g2 = 1 - x1 >= 0."""
    x2 = float(rng.uniform(0.5, 0.9)) * (1 if rng.integers(2) else -1)
    return np.array([x2 * x2, x2])


def _sphere_point(rng) -> np.ndarray:
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


def cone_refine(rng) -> list[Session]:
    sessions = []
    for k, A in enumerate(REFINING_FIELDS):
        sessions.append(_cone_session(f"refine{k + 1}", A, SQ3D_CONE, rng))
    sessions.append(_cone_session("sq3d", SQ3D_FIELD, SQ3D_CONE, rng))
    return sessions


def sos_sdp(rng) -> list[Session]:
    sessions = [_set_session(f"cusp-deg{d}", CUSP_F, CUSP_G, CUSP_BOX,
                             _cusp_boundary_point(rng), rng, d, "sdp")
                for d in (2, 4, 6)]
    sessions += [_set_session(f"ball-deg{d}", BALL_F, BALL_G,
                              BALL_BOX, _sphere_point(rng), rng, d, "sdp")
                 for d in (4, 6)]
    return sessions


def lp_solve(rng) -> list[Session]:
    sessions = [_set_session(f"cusp-dsos-deg{d}", CUSP_F, CUSP_G, CUSP_BOX,
                             _cusp_boundary_point(rng), rng, d, "dsos")
                for d in (2, 4)]
    A, C = np.asarray(SQ3D_FIELD, float), np.asarray(SQ3D_CONE, float)
    stall = Command("find", ["find-lyap-cone", "--deg", "4", "--r", "1",
                             "--sweeps", "0", "--dump-lp"], 0,
                    "certificate-found", known_fault="sq3d-deg4-r1-lp-stall")
    sessions.append(Session("sq3d-deg4-r1", cone_spec(A, C),
                            {"A": A, "C": C}, [stall]))
    return sessions


WORKLOADS = {"cone-refine": cone_refine, "sos-sdp": sos_sdp,
             "lp-solve": lp_solve}


def build(workload: str, seed: int) -> list[Session]:
    return WORKLOADS[workload](np.random.default_rng(seed))
