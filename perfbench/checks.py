"""What each benchmark command must produce, checked apart from lyapcert."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import checker

ACCEPT_MARGIN = 1e-6      # find-lyap-cone's default acceptance margin


def highs_margin(lp_path: Path) -> float:
    """Optimal value of a dumped margin LP, solved with HiGHS.

    The dump reads `max t` subject to rows `a.x >= 0` (t is the last
    variable) and box bounds.  It is parsed from the text, so no lyapcert
    object is involved.
    """
    text = lp_path.read_text()
    body, bounds_text = text.split("Subject To")[1].split("Bounds")
    bounds = []
    for line in bounds_text.split("End")[0].strip().splitlines():
        lo, _, _, _, hi = line.split()
        bounds.append((None if lo == "-inf" else float(lo),
                       None if hi == "+inf" else float(hi)))
    rows = []
    for line in body.strip().splitlines():
        expr, rel, rhs = line.split(":", 1)[1].rsplit(None, 2)
        if rel != ">=" or float(rhs) != 0.0:
            raise ValueError(f"unexpected row {line!r}")
        row, sign, coef = np.zeros(len(bounds)), 1.0, 0.0
        for tok in expr.split():
            if tok in "+-":
                sign = -1.0 if tok == "-" else 1.0
            elif tok.startswith("x"):
                row[int(tok[1:]) - 1] = sign * coef
                sign = 1.0
            else:
                coef = float(tok)
        rows.append(row)
    objective = np.zeros(len(bounds))
    objective[-1] = -1.0
    res = linprog(objective, A_ub=-np.array(rows), b_ub=np.zeros(len(rows)),
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS could not solve {lp_path}: {res.message}")
    return -res.fun


def _r(argv: list[str]) -> int:
    return int(argv[argv.index("--r") + 1]) if "--r" in argv else 0


class Checks:
    """Checks for one workload's sessions; caches the sympy set-up per text."""

    def __init__(self, sessions):
        self.sessions = {s.name: s for s in sessions}
        self._systems: dict = {}
        self._verdicts: dict = {}

    def system(self, name: str):
        if name not in self._systems:
            data = self.sessions[name].system
            self._systems[name] = checker.ConeSystem(
                np.asarray(data["A"], float), np.asarray(data["C"], float)) \
                if "C" in data else checker.SetSystem(**data)
        return self._systems[name]

    def candidate(self, name: str, text: str, r: int) -> list[str]:
        """Problems of a candidate on the session's seeded samples."""
        key = (name, text, r)
        if key not in self._verdicts:
            self._verdicts[key] = checker.check_candidate(
                self.system(name), text, r,
                seed=self.sessions[name].check_seed)
        return self._verdicts[key]

    def check(self, rec) -> tuple[list[str], bool]:
        """(problems, expected): no problems when the command did its job.

        expected is True when a failure is the known fault of this
        command and a computation made apart from the program confirms it.
        """
        name = rec["session"]
        cmd = self.sessions[name].commands[rec["index"]]
        if rec["exit"] is None:
            return [rec["status"]], False
        problems = []
        if rec["exit"] != cmd.expect_exit:
            problems.append(f"exit {rec['exit']}, expected {cmd.expect_exit}")
        if not rec["status"].startswith(cmd.expect_status):
            problems.append(f"status={rec['status']!r}, expected "
                            f"{cmd.expect_status}")
        out = Path(rec["out"])
        expected = False
        argv = rec["argv"]
        try:
            if cmd.known_fault and problems:
                expected = self._known_stall(rec, out, problems)
            if cmd.kind == "find" and not problems:
                text, r = checker.read_certificate(out / "certificate.txt")
                problems += self.candidate(name, text, r)
            elif cmd.kind == "verify-negative":
                if not self.candidate(name, argv[-1].split("=", 1)[1],
                                      _r(argv)):
                    problems.append("the checker accepts the negative control")
            elif cmd.kind == "simulate" and not problems:
                problems += checker.check_trajectory(
                    self.system(name), out / "trajectory.csv",
                    argv[-1].split("=", 1)[1], _r(argv), steps=cmd.steps)
        except (OSError, ValueError) as exc:  # missing or malformed output
            problems.append(f"unreadable output: {exc}")
        return problems, expected

    @staticmethod
    def _known_stall(rec, out: Path, problems: list[str]) -> bool:
        """True when a failed find shows exactly the known LP stall.

        The stall's symptom is exit 1 with `exhausted-schedule`, while the
        level's dumped LP, re-solved with HiGHS, has a margin at which a
        certificate should have been found.  Any other failure of the
        command is unexpected.
        """
        dumps = sorted(out.glob("lp-*.lp"))
        if not dumps:
            problems.append("no dumped LP to re-solve")
            return False
        margin = highs_margin(dumps[0])
        if margin < ACCEPT_MARGIN:
            problems.append(f"HiGHS margin {margin:.3e} is below the "
                            "acceptance margin")
            return False
        return rec["exit"] == 1 and rec["status"].startswith(
            "exhausted-schedule")
