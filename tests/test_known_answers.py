"""Systems whose verdict is known from linear algebra, on both routes.

A linear field f = Ax with -(A + A^T) positive definite has V = |x|^2 as a
strict Lyapunov function on every set and cone that holds the origin: the
decrease is -2 x^T A x, and the normal-cone term <2x, eta> is at most 0.
So both SOS tiers must certify it at degree 2 on the ball and the box, and
the cone route on the square cone.  Each seed draws one block-structured A,
which the ball keeps under (x1, x2) -> -(x1, x2) and x3 -> -x3, and one
dense A, which only x -> -x keeps; the box of half-spaces 1 -+ x_i has no
flip at all.

The cone negatives have no asymptotically stable origin: the rotation on
the quadrant stops on the face x2 = 0, and the field (-x1, -x2, 0) keeps
the ray along x3 in the orthant as equilibria.  Neither may certify at any
level of the default schedule.
"""

import numpy as np
import pytest

from lyapcert.cli import EXIT_NOT_FOUND, EXIT_OK, main, parse_spec
from lyapcert.sos_cert import sign_group

SEEDS = [0, 1, 2]
BALL = ["1 - x1^2 - x2^2 - x3^2"]
BOX = [f"1 {s} x{i}" for i in (1, 2, 3) for s in "-+"]
SQUARE_CONE = ["1*x1 + 0.5*x3", "-1*x1 + 0.5*x3", "1*x2 + 0.5*x3",
               "-1*x2 + 0.5*x3"]


def dissipative(rng, n: int) -> np.ndarray:
    """A with entries on a 0.1 grid and -(A + A^T) >= 0.2 I."""
    B = np.round(rng.uniform(-2, 2, (n, n)), 1)
    lowest = np.linalg.eigvalsh(-(B + B.T) / 2).min()
    return B - max(np.ceil((0.2 - lowest) * 10) / 10, 0.0) * np.eye(n)


def block_structured(rng) -> np.ndarray:
    A = np.zeros((3, 3))
    A[:2, :2] = dissipative(rng, 2)
    A[2, 2] = -int(rng.integers(2, 10)) / 10
    return A


def field_lines(A) -> list[str]:
    lines = []
    for i, row in enumerate(A, start=1):
        terms = [f"{a!r}*x{j}" for j, a in enumerate(row.tolist(), start=1)
                 if a != 0]
        lines.append(f"f{i}: " + " + ".join(terms).replace("+ -", "- "))
    return lines


def run(tmp_path, capsys, lines, *argv) -> tuple[int, str]:
    spec = tmp_path / "system.spec"
    spec.write_text("\n".join(lines) + "\n")
    code = main([argv[0], str(spec), *argv[1:], "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["block", "dense"])
def test_dissipative_linear_field_certifies_at_degree_2(kind, seed, tmp_path,
                                                        capsys):
    rng = np.random.default_rng(seed)
    A = block_structured(rng) if kind == "block" else dissipative(rng, 3)
    assert np.linalg.eigvalsh(-(A + A.T)).min() > 0
    flips = {"block": [0b011, 0b100], "dense": [0b111]}[kind]
    for gens, group in ((BALL, flips), (BOX, [])):
        lines = ["dim: 3", *field_lines(A),
                 *(f"g{j}: {g}" for j, g in enumerate(gens, start=1)),
                 *(f"box{i}: -1.0 1.0" for i in (1, 2, 3))]
        spec = tmp_path / "set.spec"
        spec.write_text("\n".join(lines) + "\n")
        assert sign_group(parse_spec(spec).system) == group
        for tier in ("sdp", "dsos"):
            code, status = run(tmp_path, capsys, lines, "find-lyap-sos",
                               "--deg", "2", "--tier", tier,
                               "--samples", "2000")
            assert (code, status.split()[0]) == \
                (EXIT_OK, "status=certificate-found"), (gens, tier)
    cone = [f"cone{j}: {c}" for j, c in enumerate(SQUARE_CONE, start=1)]
    code, status = run(tmp_path, capsys, ["dim: 3", *field_lines(A), *cone],
                       "find-lyap-cone", "--deg", "2", "--r", "0")
    assert (code, status.split()[0]) == (EXIT_OK, "status=certificate-found")


@pytest.mark.parametrize("lines", [
    ["dim: 2", "f1: 1*x2", "f2: -1*x1", "cone1: 1*x1", "cone2: 1*x2"],
    ["dim: 3", "f1: -1*x1", "f2: -1*x2", "f3: 0", "cone1: 1*x1",
     "cone2: 1*x2", "cone3: 1*x3"],
], ids=["rotation-on-the-quadrant", "equilibrium-ray-in-the-orthant"])
def test_cone_route_refuses_a_field_that_is_not_stable(lines, tmp_path,
                                                       capsys):
    code, status = run(tmp_path, capsys, lines, "find-lyap-cone")
    assert code == EXIT_NOT_FOUND
    assert status.startswith("status=exhausted-schedule ")
