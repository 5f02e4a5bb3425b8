"""Projected time stepping for normal-cone constrained dynamics.

The catching-up discretization x+ = proj_S(x + dt f(x)) with a fixed step
(Moreau's scheme; Acary & Brogliato, Numerical Methods for Nonsmooth
Dynamical Systems, 2008): the projection realizes the velocity selection,
and eta_used recovers the discrete multiplier (x+ - x)/dt - f(x).  A step
that keeps z = x + dt f(x) records eta exactly 0, since N_S(x) = {0}
there.  One trajectory is sequential, so a step works on a tuple of Python
floats: on 2- and 3-vectors a numpy call costs more than the arithmetic,
and numpy is used only for the NNLS of a cone projection where several
rows bind, for the KKT system of a set projection that the loop hands
off and for the arrays built after the last step.  simulate is one call
of the system's euler_kernel (poly.euler_kernel: one generated loop of
Euler steps per system, built once), which takes every step: it computes
f(x), z and the constraint values at z, keeps z when all are finite and
every value is >= -FEAS_TOL, and otherwise projects.  The loop's source
holds only arithmetic that can change a bit (no factor 1.0, no zero
column of a cone row) and calls no abs or max.  For a set, a step
that violates one generator only is projected inside the loop, in
straight-line floats: Newton steps on the KKT system of that one
generator, warm-started from the step before when it was projected along
the same generator, else cold.  That sliding step is the package's one
single-generator projection.  Every other projected step (a cone's, a
set's where two or more generators are violated, or one the sliding step
could not keep) is handed off to the projection callback that simulate
passes the loop: it calls step, which projects z, checks the projected
state and returns it with eta_used.  A z or a value that is not finite
ends the run: the state has left the float range.

Projection onto a polyhedral cone is z + eta_projection(z, C) (Moreau's
decomposition: z minus its projection onto the polar cone), the same map
the oracle uses for its face checks; when one row is violated, its
closed-form half-space projection is taken on floats if it lies in the
cone.  Projection onto a convex semialgebraic set (project_set) is
Newton's method on the KKT system of min 1/2 |y - z|^2 subject to
g_i(y) >= 0, with an active set and a posterior check that z - y lies in
the normal cone N_S(y).  Each step solves the (n + |A|) KKT system with
numpy, from the float kernels of the generators, gradients and Hessians
(poly.float_kernel, each list built on first use, so a run that hands off
no set projection builds only the values').  Along a run of handed-off
steps, such as a corner where two generators bind, the projection is
warm-started from the previous step's multipliers.

Trajectories hold times, states and multipliers as arrays built after the
last step (the states and the recorded eta each in one np.fromiter pass
over the loop's tuples), and optionally
the values of a Lyapunov function candidate, evaluated on all states at
once; the CSV layout is "t,x1..xn,eta1..etan[,V]", written in chunks of
CSV_CHUNK rows to a stream (write_csv), every value as its repr: orjson
writes the cells whose text is repr's, a second orjson call the cells
whose text is repr's but for one exponent digit (e-6 for e-06), and repr
the rest, joined into the rows in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .tangency import (COMPLEMENTARITY_REL_TOL, PROJECTION_TOL,  # noqa: F401
                       TANGENCY_REL_TOL, SemialgebraicSet, eta_projection,
                       nnls)

OVERFLOW = "state overflowed the float range"
# trajectory rows formatted per write: 1,024 keeps write_csv's temporaries
# near 1 MB on a 3-D trajectory with V, as fast as 4,096 rows
CSV_CHUNK = 1024
# the |v| bounds of orjson's float text (write_csv): repr's where |v| <
# ORJSON_TINY or ORJSON_LOW <= |v| < ORJSON_HIGH, and repr's with a
# one-digit exponent (e-6 for e-06) where ORJSON_TINY <= |v| < ORJSON_SCI
ORJSON_TINY, ORJSON_SCI, ORJSON_LOW, ORJSON_HIGH = 1e-9, 1e-5, 1e-4, 1e16

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
        """Write the CSV to out in chunks of CSV_CHUNK rows, every value
        as its repr.  orjson writes a chunk's floats as the same shortest
        digits as repr, in the same notation where |v| < ORJSON_TINY (0.0
        and -0.0 among them) or ORJSON_LOW <= |v| < ORJSON_HIGH; the other
        cells go in as NaN, which orjson writes as null, and become holes.
        A second orjson call writes the holes with ORJSON_TINY <= |v| <
        ORJSON_SCI (4.05e-6), whose text is repr's once "e-" becomes
        "e-0" (4.05e-06); the rest (1e-05, 1e+20, inf, nan) take their
        repr, and one join puts the texts of the holes between the pieces
        of the rows."""
        import orjson
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] \
            + [f"eta{i + 1}" for i in range(n)]
        columns = [self.times[:, None], self.states, self.eta_log]
        if self.v_values is not None:
            header.append("V")
            columns.append(self.v_values[:, None])
        out.write(",".join(header) + "\n")
        for k in range(0, len(self), CSV_CHUNK):
            chunk = np.hstack([c[k:k + CSV_CHUNK] for c in columns])
            size = np.abs(chunk)
            # NaN fails every comparison, so it is one of the other cells
            other = ~((size < ORJSON_TINY)
                      | ((size >= ORJSON_LOW) & (size < ORJSON_HIGH)))
            text = orjson.dumps(np.where(other, np.nan, chunk),
                                option=orjson.OPT_SERIALIZE_NUMPY)
            text = text[2:-2].replace(b"],[", b"\n").decode()
            if other.any():
                holes, size = chunk[other], size[other]
                sci = (size >= ORJSON_TINY) & (size < ORJSON_SCI)
                # the pieces of the rows, each hole's text after its piece
                parts = np.empty(2 * len(holes) + 1, object)
                parts[::2] = text.split("null")
                texts = parts[1::2]
                # null at the other holes, which take their repr below
                texts[:] = orjson.dumps(
                    np.where(sci, holes, np.nan),
                    option=orjson.OPT_SERIALIZE_NUMPY,
                )[1:-1].decode().replace("e-", "e-0").split(",")
                # tolist gives Python floats (repr of a numpy scalar is
                # "np.float64(...)", which CSV readers reject)
                texts[~sci] = list(map(repr, holes[~sci].tolist()))
                text = "".join(parts)
            out.write(text + "\n")


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


def _half_space(z: tuple[float, ...], c: tuple[float, ...], cz: float
                ) -> tuple[float, ...]:
    """z + lam c with lam = max(0, -cz / |c|^2), cz = <c, z>: the projection
    onto c.x >= 0, with eta_projection's checks on the one row c:
    tangency <c, p> >= -max(PROJECTION_TOL, TANGENCY_REL_TOL |c| |p|) and
    complementarity lam <c, p> <= max(PROJECTION_TOL,
    COMPLEMENTARITY_REL_TOL lam), else NumericalError."""
    norm_sq = sum(map(mul, c, c))
    if norm_sq == 0.0:
        raise NumericalError("active constraint gradient vanishes")
    lam = max(0.0, -cz / norm_sq)
    p = tuple([a + lam * b for a, b in zip(z, c)])
    cp = sum(map(mul, c, p))
    if cp < -PROJECTION_TOL \
            and cp < -TANGENCY_REL_TOL * math.sqrt(norm_sq) * math.hypot(*p):
        raise NumericalError(f"tangency violated after projection: {cp:.3e}")
    if lam * cp > max(PROJECTION_TOL, COMPLEMENTARITY_REL_TOL * lam):
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
    Each step solves that (n + |A|) linear system with numpy (_kkt_step,
    from S's float kernels).  A starts as the generators that z violates by
    more than FEAS_TOL, lam at 0 and y at z, so a point inside the set
    comes back unchanged.  multipliers, when given, is the record
    {i: lam_i} of the previous projection along a trajectory: lam_i
    starts from it for each i in A, y at z + sum_A lam_i grad g_i(z), and
    on return the record holds the final A and lam.  values, when given,
    are the g_i(z), so they are not evaluated again.  Whenever the KKT
    residual of the current A is below KKT_TOL (1 + |z|), A changes: a
    generator with lam_i < 0 leaves it, else the generators that y
    violates by more than FEAS_TOL join it.  y is returned when neither
    happens, which is the posterior check: lam >= 0, every
    g_i(y) >= -FEAS_TOL and y - z = sum_A lam_i grad g_i(y), so z - y
    lies in N_S(y).  Convexity is assumed, not verified.  A singular
    system, or no pass of the check within MAX_PROJECTION_ITER
    iterations, raises NumericalError.  Along a trajectory the loop of
    poly.euler_kernel takes the steps that violate one generator itself
    and hands project_set the rest.
    """
    z = tuple(map(float, z))
    values_at, gradient_at = S.values_kernel, S.gradient_kernels
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
        newton = _kkt_step(y, z, S, active, lam, values, tol)
        if newton is not True:
            y, lam = newton
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
    gradient_at, hessian_at = S.gradient_kernels, S.hessian_kernels
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
    return min(system.S.values_kernel(x))


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

    round(T / dt) steps.  A start with a coordinate that is not finite or
    outside the set, or a T or dt that is not finite and positive, is an
    InputError.  Every step is taken by one call of the system's
    euler_kernel loop.  A set's loop takes each step that violates one
    generator only itself, sliding along its boundary (see
    poly.euler_kernel), and hands every other step it does not keep to a
    projection callback, as a cone's loop hands all of them: the callback
    calls step through the module global with the loop's multipliers
    record and records eta_used on the row of the step's start state,
    where a sliding step records its own; eta_log is zero on every other
    row.  The loop clears the record at each free step and each sliding
    attempt, so a set projection is warm-started from the previous step's
    multipliers only along a run of handed-off steps.  Every recorded
    state is feasible within STATE_TOL or the run raises NumericalError,
    as does a failed projection or a state past the float range, with the
    time of the step that fails.  The states stay float tuples until the
    last step.  V, when given, is a Polynomial or a map from an (m, n)
    array of states to an array of their m values (such as
    RationalLyapunovCandidate.value); it is evaluated once, on all stored
    states, after the last step.
    """
    x = tuple(map(float, x0))
    if not all(map(math.isfinite, x)):
        raise InputError("initial state must be finite")
    if not _lowest(system, x) >= -STATE_TOL:
        raise InputError("initial state is outside the constraint set")
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf
            and T / dt < math.inf):
        raise InputError("T and dt must be finite and positive, "
                         "with T / dt finite")

    times, states, projected = [0.0], [x], {}
    multipliers: dict[int, float] = {}

    def project(x, z, fx, values):
        # through the module global, so a wrapped step sees every call
        x_next, projected[len(states) - 1] = step(x, z, fx, values, dt,
                                                  system, multipliers)
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
        k = len(projected)
        eta_log[np.fromiter(projected, int, k)] = np.fromiter(
            chain.from_iterable(projected.values()), float, k * n
        ).reshape(k, n)
    traj = Trajectory(np.array(times), states, eta_log)
    if V is not None:
        values = MonomialTable([V])(traj.states)[:, 0] \
            if isinstance(V, Polynomial) else V(traj.states)
        traj.v_values = values
    return traj
