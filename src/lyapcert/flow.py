"""Projected time stepping for normal-cone constrained dynamics.

The catching-up discretization x+ = proj_S(x + dt f(x)) with a fixed step
(Moreau's scheme; Acary & Brogliato, Numerical Methods for Nonsmooth
Dynamical Systems, 2008): the projection realizes the velocity selection,
and eta_used recovers the discrete multiplier (x+ - x)/dt - f(x).  A step
that keeps z = x + dt f(x) records eta exactly 0, since N_S(x) = {0}
there.  One trajectory is sequential, so a step works on a tuple of Python
floats: on 2- and 3-vectors a numpy call costs more than the arithmetic,
and numpy is used only for the NNLS of a cone projection where several
rows bind, for the rare KKT system of a set projection and for the arrays
built after the last step.  simulate is one call of the system's
euler_kernel (poly.euler_kernel: one generated loop of Euler steps per
system, built once), which takes every step: it computes f(x), z and the
constraint values at z, keeps z when all are finite and every value is
>= -FEAS_TOL, and otherwise projects.  For a set, a step that slides along
one generator's boundary after a projected step is projected inside the
loop, in straight-line floats: project_set's warm-started Newton steps for
one active generator (below), with the same bits.  Every other projected
step is handed off to the projection callback that simulate passes the
loop: it calls step, which projects z, checks the projected state and
returns it with eta_used.  A z or a value that is not finite ends the run:
the state has left the float range.

Projection onto a polyhedral cone is z + eta_projection(z, C) (Moreau's
decomposition: z minus its projection onto the polar cone), the same map
the oracle uses for its face checks; when one row is violated, its
closed-form half-space projection is taken on floats if it lies in the
cone.  Projection onto a convex semialgebraic set is Newton's method on
the KKT system of min 1/2 |y - z|^2 subject to g_i(y) >= 0, with an
active set and a posterior check that z - y lies in the normal cone
N_S(y).  With one active generator and a multiplier >= 0, a Newton step
is one call of that generator's kernel (poly.newton_kernel: g, its
gradient and Hessian, an unrolled LDL^T of I - lam hess g and the scalar
Schur complement, in straight-line floats).  With two or more active
generators, a negative multiplier, or a pivot or Schur complement that is
not positive, the step solves the (n + |A|) KKT system with numpy, from
the float kernels of the generators, gradients and Hessians
(poly.float_kernel).  Along a trajectory the projection is warm-started
from the previous step's multipliers, so a step that slides along the
boundary takes one Newton step; the loop's sliding step takes it from the
same lines as newton_kernel (poly._newton_lines).

Trajectories hold times, states and multipliers as arrays built after the
last step (the states in one pass over the loop's tuples), and optionally
the values of a Lyapunov function candidate, evaluated on all states at
once; the CSV layout is "t,x1..xn,eta1..etan[,V]", written in chunks of
CSV_CHUNK rows to a stream (write_csv), every value as its repr, except
that a free row (eta +0.0 in every coordinate) writes the literal 0.0 for
eta: repr(0.0) is "0.0", so the bytes are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import mul
from typing import Callable, Sequence, TextIO

import numpy as np

from .cones import PolyhedralCone
from .cop_lp import ConicSystem
from .errors import InputError, NumericalError
# the tolerances and the iteration cap of a projection live in poly, since
# the loop that poly.euler_kernel generates decides free and sliding steps
from .poly import (FEAS_TOL, KKT_TOL, MAX_PROJECTION_ITER, STATE_TOL,
                   MonomialTable, Polynomial)
from .sos_cert import SemialgebraicSystem
# nnls stays a module attribute: the benchmark's tracer patches flow.nnls
from .tangency import SemialgebraicSet, eta_projection, nnls  # noqa: F401

OVERFLOW = "state overflowed the float range"
CSV_CHUNK = 4096         # trajectory rows formatted per write

System = ConicSystem | SemialgebraicSystem


@dataclass
class Trajectory:
    """times (m,), states and eta_log (m, n) arrays, and the (m,) array of
    the values of V when one was given."""

    times: np.ndarray
    states: np.ndarray
    eta_log: np.ndarray
    v_values: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, out: TextIO) -> None:
        """Write the CSV to out in chunks of CSV_CHUNK rows: each chunk is
        one % format of its floats, and %r of a float is its repr.  A free
        row (eta +0.0 in every coordinate) writes the literal 0.0 for eta,
        the same bytes as repr(0.0), so only its t, x and V go through %r;
        a chunk without a free row repeats one template of %r cells."""
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] \
            + [f"eta{i + 1}" for i in range(n)]
        columns = [self.times[:, None], self.states, self.eta_log]
        if self.v_values is not None:
            header.append("V")
            columns.append(self.v_values[:, None])
        out.write(",".join(header) + "\n")
        cells = ["%r"] * len(header)
        row = ",".join(cells) + "\n"
        cells[1 + n:1 + 2 * n] = ["0.0"] * n
        free_row = ",".join(cells) + "\n"
        # the cells that go through %r in a free row
        kept = np.array([c == "%r" for c in cells])
        # +0.0 is the one float whose bits are all zero, so a -0.0 eta is
        # not free and still prints -0.0
        free = reduce(np.bitwise_or, self.eta_log.view(np.uint64).T) == 0
        for k in range(0, len(self), CSV_CHUNK):
            chunk = np.hstack([c[k:k + CSV_CHUNK] for c in columns])
            is_free = free[k:k + CSV_CHUNK]
            if is_free.any():
                text = "".join([free_row if f else row
                                for f in is_free.tolist()])
                chunk = chunk[kept | ~is_free[:, None]]
            else:
                text = row * len(chunk)
            # tolist gives Python floats (repr of a numpy scalar is
            # "np.float64(...)", which CSV readers reject)
            out.write(text % tuple(chunk.ravel().tolist()))


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
    lam <c, p> <= max(tol, 1e-9 lam), else NumericalError."""
    norm_sq = sum(map(mul, c, c))
    if norm_sq == 0.0:
        raise NumericalError("active constraint gradient vanishes")
    lam = max(0.0, -cz / norm_sq)
    p = tuple([a + lam * b for a, b in zip(z, c)])
    cp = sum(map(mul, c, p))
    if cp < -tol and cp < -1e-12 * math.sqrt(norm_sq) * math.hypot(*p):
        raise NumericalError(f"tangency violated after projection: {cp:.3e}")
    if lam * cp > max(tol, 1e-9 * lam):
        raise NumericalError("complementarity violated after projection")
    return p


def project_set(z, S: SemialgebraicSet,
                multipliers: dict[int, float] | None = None,
                values: Sequence[float] | None = None) -> tuple[float, ...]:
    """Euclidean projection onto a convex {g_i >= 0} set, as float tuple.

    Newton's method on the KKT system of min 1/2 |y - z|^2 subject to
    g_i(y) = 0 for the active generators A:
        y - z - sum_A lam_i grad g_i(y) = 0,   g_A(y) = 0,
    whose Jacobian carries the Hessian term H = I - sum_A lam_i hess g_i(y).
    With one active generator and lam >= 0, a step is one call of its
    S.newton_kernels entry (poly.newton_kernel: an unrolled factorization
    of the n x n H and the Schur complement a.H^-1 a, built once per set).
    With two or more, with lam < 0, or when that kernel meets a pivot of
    H or an a.H^-1 a that is not positive, the step solves the (n + |A|)
    linear system with numpy (_kkt_step, from S.float_kernels).  A
    starts as the generators that z violates by more than FEAS_TOL, lam
    at 0 and y at z, so a point inside the set comes back unchanged.
    multipliers, when given, is the record {i: lam_i} of the previous
    projection along a trajectory: lam_i starts from it for each i in A,
    y at z + sum_A lam_i grad g_i(z), and on return the record holds the
    final A and lam.  values, when given, are the g_i(z), so they are not
    evaluated again.  Whenever the KKT residual of the current A is below
    KKT_TOL (1 + |z|), A changes: a generator with lam_i < 0 leaves it,
    else the generators that y violates by more than FEAS_TOL join it.
    y is returned when neither happens, which is the posterior check:
    lam >= 0, every g_i(y) >= -FEAS_TOL and y - z = sum_A lam_i
    grad g_i(y), so z - y lies in N_S(y).  Convexity is assumed, not
    verified.  A singular system, or no pass of the check within
    MAX_PROJECTION_ITER iterations, raises NumericalError.
    """
    z = tuple(map(float, z))
    values_at, gradient_at, _ = S.float_kernels
    newton_at = S.newton_kernels
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
        newton = None
        if len(active) == 1 and lam[0] >= 0.0:
            newton = newton_at[active[0]](y, z, lam[0], tol)
        if newton is None:
            newton = _kkt_step(y, z, S, active, lam, values, tol)
        if newton is not True:
            y, lam = newton[0], list(newton[1])
            values = values_at(y)
            continue
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
    raise NumericalError(f"set projection did not converge in "
                         f"{MAX_PROJECTION_ITER} iterations")


def _kkt_step(y: tuple[float, ...], z: tuple[float, ...],
              S: SemialgebraicSet, active: list[int], lam: list[float],
              values: Sequence[float], tol: float):
    """True when the KKT residual at (y, lam) is below tol: every
    |g_i(y)| <= tol max|grad g_i(y)| and |y - z - sum_A lam_i grad g_i(y)|
    <= tol in each coordinate; else the Newton step (y + dy, lam + dlam)
    from the (n + |A|) system, solved by np.linalg.solve."""
    n = len(z)
    _, gradient_at, hessian_at = S.float_kernels
    J = np.array([gradient_at[i](y) for i in active]).reshape(-1, n)
    g = np.array([values[i] for i in active])
    r = np.subtract(y, z)
    for li, row in zip(lam, J):
        r = r - li * row
    if (np.abs(g) <= tol * np.abs(J).max(axis=1)).all() \
            and np.abs(r).max() <= tol:
        return True
    # [[H, -J^T], [J, 0]] (dy, dlam) = -(r, g_A), H = I - sum lam hess g
    M = np.zeros((n + len(active), n + len(active)))
    M[:n, :n] = np.eye(n)
    M[:n, n:], M[n:, :n] = -J.T, J
    upper = np.triu_indices(n)
    for i, li in zip(active, lam):
        if li:
            h = np.zeros((n, n))
            h[upper] = hessian_at[i](y)
            M[:n, :n] -= li * (h + np.triu(h, 1).T)
    try:
        delta = np.linalg.solve(M, -np.concatenate([r, g]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "singular KKT system in the set projection") from exc
    return (tuple(np.add(y, delta[:n]).tolist()),
            np.add(lam, delta[n:]).tolist())


def _lowest(system: System, x) -> float:
    """The smallest constraint value at x: the rows of C x for a cone
    (inf without rows), the g_i(x) for a set."""
    if isinstance(system, ConicSystem):
        return min([sum(map(mul, row, x)) for row in system.cone.rows],
                   default=math.inf)
    return min(system.S.float_kernels[0](x))


def step(x: tuple[float, ...], z: tuple[float, ...], fx: tuple[float, ...],
         values: tuple[float, ...], dt: float, system: System,
         multipliers: dict[int, float]
         ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Project the Euler point z = x + dt f(x) of a step that the loop of
    poly.euler_kernel hands off (it neither keeps z nor slides); returns
    (x_next, eta_used).

    fx is f(x) and values the constraint values at z, as the loop computed
    them.  A z or a value past the float range raises NumericalError.
    x_next is the projection of z (a set projection warm-started from and
    updating the multipliers record, see project_set, and given the
    values at z) and eta_used = (x_next - x)/dt - f(x).  An x_next with a
    constraint value below -STATE_TOL raises NumericalError.
    """
    if not all(map(math.isfinite, z + values)):
        raise NumericalError(OVERFLOW)
    if isinstance(system, ConicSystem):
        x_next = project_cone(z, system.cone)
    else:
        x_next = project_set(z, system.S, multipliers, values)
    if not _lowest(system, x_next) >= -STATE_TOL:
        raise NumericalError("state left the set")
    return x_next, tuple([(a - b) / dt - c for a, b, c in zip(x_next, x, fx)])


def simulate(x0: Sequence[float], T: float, dt: float, system: System,
             V: Callable[[np.ndarray], np.ndarray] | Polynomial | None = None
             ) -> Trajectory:
    """Fixed-step projected Euler from a feasible start.

    round(T / dt) steps.  A start outside the set, or a T or dt that is not
    finite and positive, is an InputError.  Every step is taken by one
    call of the system's euler_kernel loop.  A set's loop takes a step
    that slides along one generator's boundary itself, after a projected
    step (see poly.euler_kernel), and hands every other step it does not
    keep to a projection callback, as a cone's loop hands all of them: the
    callback clears the multipliers record when a free step came before
    (so a set projection is warm-started from the previous step's
    multipliers only along a run of projected steps), calls step through
    the module global and records eta_used on the row of the step's start
    state, where a sliding step records its own.  eta_log is zero on every
    other row.  Every recorded state is feasible within STATE_TOL or the
    run raises NumericalError, as does a failed projection or a state past
    the float range, with the time of the step that fails.  The states
    stay float tuples until the last step.  V, when given, is a Polynomial
    or a map from an (m, n) array of states to an array of their m values
    (such as RationalLyapunovCandidate.value); it is evaluated once, on
    all stored states, after the last step.
    """
    x = tuple(map(float, x0))
    if not _lowest(system, x) >= -STATE_TOL:
        raise InputError("initial state is outside the constraint set")
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf
            and T / dt < math.inf):
        raise InputError("T and dt must be finite and positive, "
                         "with T / dt finite")

    times, states, projected = [0.0], [x], {}
    multipliers: dict[int, float] = {}

    def project(x, z, fx, values):
        row = len(states) - 1
        if row - 1 not in projected:
            multipliers.clear()    # a free step came before
        # through the module global, so a wrapped step sees every call
        x_next, projected[row] = step(x, z, fx, values, dt, system,
                                      multipliers)
        return x_next

    try:
        system.euler_kernel(times, states, dt, int(round(T / dt)), project,
                            multipliers, projected)
    except OverflowError as exc:
        raise NumericalError(f"{OVERFLOW} at t = {times[-1] + dt}") from exc
    except NumericalError as exc:
        raise NumericalError(f"{exc} at t = {times[-1] + dt}") from exc
    m, n = len(states), len(x)
    states = np.fromiter(chain.from_iterable(states), float,
                         m * n).reshape(m, n)
    eta_log = np.zeros_like(states)
    if projected:
        eta_log[list(projected)] = list(projected.values())
    traj = Trajectory(np.array(times), states, eta_log)
    if V is not None:
        values = MonomialTable([V])(traj.states)[:, 0] \
            if isinstance(V, Polynomial) else V(traj.states)
        traj.v_values = values
    return traj
