"""Linear programs, solved by HiGHS through scipy.

`LinearProgram` holds a problem in the form the certificate builders
write it: one relation per row and optional bounds per variable.  `solve`
hands it to HiGHS's dual simplex (`scipy.optimize.linprog`,
`method="highs"`; Huangfu & Hall, Math. Prog. Comp. 10, 2018) and
re-checks the returned point against the original rows and bounds before
calling it optimal.

`scipy.optimize` is imported on the first solve, not with this module: a
run that never solves an LP (the SDP tier, verification, simulation)
never pays for that import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

LE, EQ, GE = "<=", "=", ">="
FEAS_TOL = 1e-8  # an optimal point satisfies every row and bound this closely

# scipy.optimize.linprog status codes other than 0 (optimal)
_STATUS = {2: "infeasible", 3: "unbounded"}


@dataclass
class LinearProgram:
    """max objective . x  subject to  A x (relations) b  and bounds.

    relations holds one of "<=", "=", ">=" per row; bounds holds one
    (lower, upper) pair per variable with None for an absent bound, the
    default being free variables.  Set maximize=False to minimize.
    """

    objective: np.ndarray
    A: np.ndarray
    relations: Sequence[str]
    b: np.ndarray
    bounds: list[tuple[float | None, float | None]] | None = None
    maximize: bool = True

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(
            len(self.b) if np.ndim(self.A) == 1 and len(self.objective) > 1 else -1,
            len(self.objective))
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape != (len(self.b), len(self.objective)):
            raise ValueError(f"A has shape {self.A.shape}, expected "
                             f"({len(self.b)}, {len(self.objective)})")
        if len(self.relations) != len(self.b):
            raise ValueError("one relation per row required")
        for rel in self.relations:
            if rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")
        if self.bounds is None:
            self.bounds = [(None, None)] * len(self.objective)
        if len(self.bounds) != len(self.objective):
            raise ValueError("one bound pair per variable required")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.objective).all()):
            raise ValueError("LP data must be finite")


@dataclass
class LpResult:
    """Outcome of a solve.

    status is one of "optimal", "infeasible", "unbounded", "stalled"; the
    last covers every other solver outcome, including an "optimal" point
    that fails the recheck.  x and value are set only when optimal.
    pivots is the solver's iteration count.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0


def solve(lp: LinearProgram) -> LpResult:
    """Solve an LP; never returns a wrong answer silently.

    An optimal point is reported only when it satisfies every row and
    bound of lp within FEAS_TOL; otherwise the status is "stalled".
    """
    from scipy.optimize import linprog as highs_linprog

    rels = np.asarray(lp.relations)
    le, ge, eq = rels == LE, rels == GE, rels == EQ
    sense = 1.0 if lp.maximize else -1.0
    res = highs_linprog(
        -sense * lp.objective,
        A_ub=np.vstack([lp.A[le], -lp.A[ge]]),
        b_ub=np.concatenate([lp.b[le], -lp.b[ge]]),
        A_eq=lp.A[eq], b_eq=lp.b[eq], bounds=lp.bounds, method="highs")
    pivots = int(res.nit)
    if res.status != 0:
        return LpResult(_STATUS.get(res.status, "stalled"), pivots=pivots)

    # adding 0.0 turns -0.0 into 0.0, keeping printed values deterministic
    x = np.asarray(res.x, dtype=float) + 0.0
    lo = np.array([-np.inf if l is None else l for l, _ in lp.bounds], float)
    hi = np.array([np.inf if h is None else h for _, h in lp.bounds], float)
    residual = lp.A @ x - lp.b
    ok = ((residual[le] <= FEAS_TOL).all()
          and (residual[ge] >= -FEAS_TOL).all()
          and (np.abs(residual[eq]) <= FEAS_TOL).all()
          and (x >= lo - FEAS_TOL).all() and (x <= hi + FEAS_TOL).all())
    if not ok:
        return LpResult("stalled", pivots=pivots)
    return LpResult("optimal", x=x, value=float(lp.objective @ x) + 0.0,
                    pivots=pivots)


def dump_lp_text(lp: LinearProgram) -> str:
    """CPLEX-LP-style textual dump for debugging."""
    lines = ["Maximize" if lp.maximize else "Minimize"]
    lines.append(" obj: " + _linear_text(lp.objective))
    lines.append("Subject To")
    for i, (row, rel, rhs) in enumerate(zip(lp.A, lp.relations, lp.b)):
        lines.append(f" c{i + 1}: {_linear_text(row)} {rel} {float(rhs)!r}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds or []):
        lo_s = "-inf" if lo is None else repr(float(lo))
        hi_s = "+inf" if hi is None else repr(float(hi))
        lines.append(f" {lo_s} <= x{j + 1} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_text(coeffs: np.ndarray) -> str:
    parts = []
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        sign = "+" if cj > 0 else "-"
        if parts or sign == "-":
            parts.append(f"{sign} {abs(float(cj))!r} x{j + 1}")
        else:
            parts.append(f"{abs(float(cj))!r} x{j + 1}")
    return " ".join(parts) if parts else "0"
