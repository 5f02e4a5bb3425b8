"""Projected time stepping for normal-cone constrained dynamics.

The catching-up discretization x+ = proj_S(x + dt f(x)) with a fixed step
(Moreau's scheme; Acary & Brogliato, Numerical Methods for Nonsmooth
Dynamical Systems, 2008): the projection realizes the velocity selection,
and eta_used recovers the discrete multiplier (x+ - x)/dt - f(x).  A step
that keeps z = x + dt f(x) records eta exactly 0, since N_S(x) = {0}
there.  One trajectory is sequential, so a step works on a tuple of Python
floats: on 2- and 3-vectors a numpy call costs more than the arithmetic,
and numpy is used only for the NNLS of a cone projection where several
rows bind and for the arrays built after the last step.  A free step is
one call of the system's euler_kernel (poly.euler_kernel, one
straight-line function per system, built once), which gives z = x + dt
f(x), f(x) and the constraint values at z; those values decide whether
to project and, when z is kept, are also the feasibility check of the
stored state.  A z or a value that is not finite ends the run: the state
has left the float range.

Projection onto a polyhedral cone is z + eta_projection(z, C) (Moreau's
decomposition: z minus its projection onto the polar cone), the same map
the oracle uses for its face checks; when one row is violated, its
closed-form half-space projection is taken on floats if it lies in the
cone.  Projection onto a convex semialgebraic set is Newton's method on
the KKT system of min 1/2 |y - z|^2 subject to g_i(y) >= 0, with an
active set and a posterior check that z - y lies in the normal cone
N_S(y); the set's generators, gradients and Hessians are evaluated by
float kernels (poly.float_kernel).  Along a trajectory it is
warm-started from the previous step's multipliers, so a step that slides
along the boundary takes one Newton solve.

Trajectories hold times, states and multipliers as arrays built after the
last step, and optionally a Lyapunov function candidate, evaluated on all
states at once; the CSV layout is "t,x1..xn,eta1..etan[,V]".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Sequence

import numpy as np

from .cones import PolyhedralCone
from .cop_lp import ConicSystem
from .poly import MonomialTable, Polynomial
from .sos_cert import SemialgebraicSystem
# nnls stays a module attribute: the benchmark's tracer patches flow.nnls
from .tangency import (SemialgebraicSet, TangencyError,  # noqa: F401
                       eta_projection, nnls)

FEAS_TOL = 1e-10         # a point this close to the set is not projected
STATE_TOL = 1e-8         # every stored state is this close to the set
KKT_TOL = 1e-12          # set projection residual, relative to 1 + |z|
MAX_PROJECTION_ITER = 100  # iterations of one set projection
OVERFLOW = "state overflowed the float range"

System = ConicSystem | SemialgebraicSystem


class FlowError(RuntimeError):
    """A numerical failure: a projection that fails or a state that leaves
    the set."""


class FlowInputError(FlowError):
    """A start state outside the set, or T or dt not positive."""


@dataclass
class Trajectory:
    """times (m,), states and eta_log (m, n) arrays, and the m values of V
    when one was given."""

    times: np.ndarray
    states: np.ndarray
    eta_log: np.ndarray
    v_values: list[float] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] \
            + [f"eta{i + 1}" for i in range(n)]
        columns = [self.times[:, None], self.states, self.eta_log]
        if self.v_values is not None:
            header.append("V")
            columns.append(np.array(self.v_values)[:, None])
        # tolist gives Python floats (repr of a numpy scalar is
        # "np.float64(...)", which CSV readers reject)
        lines = [",".join(header)] + [",".join(map(repr, row))
                                      for row in np.hstack(columns).tolist()]
        return "\n".join(lines) + "\n"


def project_cone(z, cone: PolyhedralCone) -> tuple[float, ...]:
    """Euclidean projection onto {x : Cx >= 0} (Moreau: z + eta), as
    float tuple.

    With one row c violated by more than FEAS_TOL, the projection onto the
    half-space c.x >= 0 (_half_space) is the answer when it satisfies
    every row within FEAS_TOL; otherwise, and with several rows violated,
    eta comes from all rows of C by eta_projection.
    """
    z = tuple(map(float, z))
    values = [sum(map(mul, row, z)) for row in cone.rows]
    violated = [i for i, v in enumerate(values) if v < -FEAS_TOL]
    if not violated:
        return z
    if len(violated) == 1:
        k = violated[0]
        p = _half_space(z, cone.rows[k], values[k])
        if all(sum(map(mul, row, p)) >= -FEAS_TOL for row in cone.rows):
            return p
    return tuple((np.array(z) + eta_projection(z, cone.C)).tolist())


def _half_space(z: tuple[float, ...], c: tuple[float, ...], cz: float,
                tol: float = 1e-9) -> tuple[float, ...]:
    """z + lam c with lam = max(0, -cz / |c|^2), cz = <c, z>: the projection
    onto c.x >= 0, with eta_projection's checks on the one row c:
    tangency <c, p> >= -max(tol, 1e-12 |c| |p|) and complementarity
    lam <c, p> <= max(tol, 1e-9 lam), else TangencyError."""
    norm_sq = sum(map(mul, c, c))
    if norm_sq == 0.0:
        raise TangencyError("active constraint gradient vanishes")
    lam = max(0.0, -cz / norm_sq)
    p = tuple([a + lam * b for a, b in zip(z, c)])
    cp = sum(map(mul, c, p))
    if cp < -tol and cp < -1e-12 * math.sqrt(norm_sq) * math.hypot(*p):
        raise TangencyError(f"tangency violated after projection: {cp:.3e}")
    if lam * cp > max(tol, 1e-9 * lam):
        raise TangencyError("complementarity violated after projection")
    return p


def project_set(z, S: SemialgebraicSet,
                multipliers: dict[int, float] | None = None,
                values: Sequence[float] | None = None) -> tuple[float, ...]:
    """Euclidean projection onto a convex {g_i >= 0} set, as float tuple.

    Newton's method on the KKT system of min 1/2 |y - z|^2 subject to
    g_i(y) = 0 for the active generators A:
        y - z - sum_A lam_i grad g_i(y) = 0,   g_A(y) = 0,
    whose Jacobian carries the Hessian term I - sum_A lam_i hess g_i(y)
    (S.float_kernels, built once per set).  Each step solves the
    (n + |A|) linear system in floats.  A starts as the generators that z
    violates by more than FEAS_TOL, lam at 0 and y at z, so a point inside
    the set comes back unchanged.  multipliers, when given, is the record
    {i: lam_i} of the previous projection along a trajectory: lam_i starts
    from it for each i in A, y at z + sum_A lam_i grad g_i(z), and on
    return the record holds the final A and lam.  values, when given, are
    the g_i(z), so they are not evaluated again.  Whenever the KKT
    residual of the current A is below KKT_TOL (1 + |z|), A changes: a
    generator with lam_i < 0 leaves it, else the generators that y
    violates by more than FEAS_TOL join it.  y is returned when neither
    happens, which is the posterior check: lam >= 0, every
    g_i(y) >= -FEAS_TOL and y - z = sum_A lam_i grad g_i(y), so z - y lies
    in N_S(y).  Convexity is assumed, not verified.  A singular system, or
    no pass of the check within MAX_PROJECTION_ITER iterations, raises
    FlowError.
    """
    z = tuple(map(float, z))
    n = len(z)
    values_at, gradient_at, hessian_at = S.float_kernels
    tol = KKT_TOL * (1.0 + max(map(abs, z)))
    if values is None:
        values = values_at(z)
    active = [i for i, v in enumerate(values) if v < -FEAS_TOL]
    lam = [multipliers.get(i, 0.0) if multipliers else 0.0 for i in active]
    y = z
    for i, li in zip(active, lam):
        if li:
            y = tuple([a + li * b for a, b in zip(y, gradient_at[i](z))])
    if y is not z:
        values = values_at(y)
    for _ in range(MAX_PROJECTION_ITER):
        J = [gradient_at[i](y) for i in active]
        r = list(map(sub, y, z))
        small = True
        for i, li, row in zip(active, lam, J):
            r = [a - li * b for a, b in zip(r, row)]
            small = small and abs(values[i]) <= tol * max(map(abs, row))
        if small and max(map(abs, r)) <= tol:
            if lam and min(lam) < 0.0:
                k = lam.index(min(lam))
                del active[k], lam[k]
                continue
            joining = [i for i, v in enumerate(values)
                       if v < -FEAS_TOL and i not in active]
            if not joining:
                if multipliers is not None:
                    multipliers.clear()
                    multipliers.update(zip(active, lam))
                return y
            active += joining
            lam += [0.0] * len(joining)
            continue
        # [[H, -J^T], [J, 0]] (dy, dlam) = -(r, g_A), H = I - sum lam hess g
        M = [[float(j == k) for k in range(n)] + [-row[j] for row in J]
             for j in range(n)]
        for i, li in zip(active, lam):
            if li:
                upper = iter(hessian_at[i](y))
                for j in range(n):
                    for k in range(j, n):
                        h = li * next(upper)
                        M[j][k] -= h
                        if k != j:
                            M[k][j] -= h
        M += [list(row) + [0.0] * len(J) for row in J]
        delta = _solve(M, [-v for v in r] + [-values[i] for i in active])
        y = tuple(map(add, y, delta))
        lam = list(map(add, lam, delta[n:]))
        values = values_at(y)
    raise FlowError(f"set projection did not converge in "
                    f"{MAX_PROJECTION_ITER} iterations")


def _solve(M: list[list[float]], b: list[float]) -> list[float]:
    """Solve M x = b by Gaussian elimination with partial pivoting; M and
    b are overwritten."""
    size = len(b)
    for k in range(size):
        column = [abs(row[k]) for row in M[k:]]
        p = k + column.index(max(column))
        if M[p][k] == 0.0:
            raise FlowError("singular KKT system in the set projection")
        M[k], M[p] = M[p], M[k]
        b[k], b[p] = b[p], b[k]
        pivot = M[k]
        for i in range(k + 1, size):
            row = M[i]
            factor = row[k] / pivot[k]
            if factor:
                for j in range(k + 1, size):
                    row[j] -= factor * pivot[j]
                b[i] -= factor * b[k]
    x = [0.0] * size
    for k in range(size - 1, -1, -1):
        row = M[k]
        x[k] = (b[k] - sum(map(mul, row[k + 1:], x[k + 1:]))) / row[k]
    return x


def _lowest(system: System, x) -> float:
    """The smallest constraint value at x: the rows of C x for a cone
    (inf without rows), the g_i(x) for a set."""
    if isinstance(system, ConicSystem):
        return min([sum(map(mul, row, x)) for row in system.cone.rows],
                   default=math.inf)
    return min(system.S.float_kernels[0](x))


def step(x: Sequence[float], dt: float, system: System,
         feas_tol: float = STATE_TOL,
         multipliers: dict[int, float] | None = None
         ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One projected Euler step on float tuples; returns (x_next, eta_used).

    One call of the system's euler_kernel gives z = x + dt f(x), f(x) and
    the constraint values at z.  z is kept, with eta_used exactly 0 and
    the multipliers record cleared, when no value is below -FEAS_TOL;
    otherwise x_next is its projection (a set projection warm-started from
    and updating the record, see project_set, and given the values at z)
    and the constraints are evaluated again at x_next.  x_next below
    -feas_tol raises FlowError, and so does a z or a constraint value past
    the float range: float ** raises OverflowError where * gives inf or
    NaN.
    """
    try:
        z, fx, values = system.euler_kernel(x, dt)
    except OverflowError as exc:
        raise FlowError(OVERFLOW) from exc
    if not all(map(math.isfinite, z + values)):
        raise FlowError(OVERFLOW)
    lowest = min(values) if values else math.inf
    if lowest >= -FEAS_TOL:
        if multipliers:
            multipliers.clear()
        x_next, eta_used = z, (0.0,) * len(z)
    else:
        if isinstance(system, ConicSystem):
            x_next = project_cone(z, system.cone)
        else:
            x_next = project_set(z, system.S, multipliers, values)
        lowest = _lowest(system, x_next)
        eta_used = tuple([(a - b) / dt - c
                          for a, b, c in zip(x_next, x, fx)])
    if not lowest >= -feas_tol:
        raise FlowError("state left the set")
    return x_next, eta_used


def simulate(x0: Sequence[float], T: float, dt: float, system: System,
             V: Callable[[np.ndarray], np.ndarray] | Polynomial | None = None,
             feas_tol: float = STATE_TOL) -> Trajectory:
    """Fixed-step projected Euler from a feasible start.

    Records eta along the way; every recorded state is feasible within
    feas_tol or the step raises.  The states stay float tuples until the
    last step, and one multipliers record warm-starts each set projection
    from the previous step's.  V, when given, is a Polynomial or a map
    from an (m, n) array of states to an array of their m values (such as
    RationalLyapunovCandidate.value); it is evaluated once, on all stored
    states, after the last step.
    """
    x = tuple(map(float, x0))
    if not _lowest(system, x) >= -feas_tol:
        raise FlowInputError("initial state is outside the constraint set")
    if dt <= 0 or T <= 0:
        raise FlowInputError("T and dt must be positive")

    times, states, etas = [0.0], [x], []
    multipliers: dict[int, float] = {}
    t = 0.0
    for _ in range(int(round(T / dt))):
        try:
            # through the module global, so a wrapped step sees every call
            x, eta_used = step(x, dt, system, feas_tol, multipliers)
        except FlowError as exc:
            raise FlowError(f"{exc} at t = {t + dt}") from exc
        t += dt
        times.append(t)
        states.append(x)
        etas.append(eta_used)
    etas.append((0.0,) * len(x))
    traj = Trajectory(np.array(times), np.array(states), np.array(etas))
    if V is not None:
        values = MonomialTable([V])(traj.states)[:, 0] \
            if isinstance(V, Polynomial) else V(traj.states)
        traj.v_values = values.tolist()
    return traj
