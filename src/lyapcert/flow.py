"""Projected time stepping for normal-cone constrained dynamics.

The catching-up discretization x+ = proj_S(x + dt f(x)) with a fixed step:
the projection realizes the velocity selection, and eta_used recovers the
discrete multiplier (x+ - x)/dt - f(x).  Projection onto a polyhedral cone
is z + eta_projection(z, C) (Moreau's decomposition: z minus its projection
onto the polar cone), the same map the oracle uses for its face checks;
projection onto a general convex semialgebraic set runs Dykstra's
alternating scheme with a Newton sub-step per smooth constraint.

Trajectories record states and multipliers along the way, and optionally
a Lyapunov function candidate, evaluated on all states at once after the
last step; the CSV layout is "t,x1..xn,eta1..etan[,V]".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cones import PolyhedralCone
from .cop_lp import ConicSystem
from .poly import Polynomial
from .sos_cert import SemialgebraicSystem
# nnls stays a module attribute: the benchmark's tracer patches flow.nnls
from .tangency import SemialgebraicSet, eta_projection, nnls  # noqa: F401

logger = logging.getLogger(__name__)

FEAS_TOL = 1e-10
MAX_PROJECTION_ITER = 500


class FlowError(RuntimeError):
    """A numerical failure: a projection that fails or a state that leaves
    the set."""


class FlowInputError(FlowError):
    """A start state outside the set, or T or dt not positive."""


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)
    eta_log: list[np.ndarray] = field(default_factory=list)
    v_values: list[float] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        n = len(self.states[0])
        header = ["t"] + [f"x{i + 1}" for i in range(n)] \
            + [f"eta{i + 1}" for i in range(n)]
        if self.v_values is not None:
            header.append("V")
        lines = [",".join(header)]
        # repr of a numpy scalar is "np.float64(...)", which CSV readers reject
        for k, t in enumerate(self.times):
            values = [t, *self.states[k], *self.eta_log[k]]
            if self.v_values is not None:
                values.append(self.v_values[k])
            lines.append(",".join(repr(float(v)) for v in values))
        return "\n".join(lines) + "\n"


def project_cone(z: np.ndarray, cone: PolyhedralCone) -> np.ndarray:
    """Euclidean projection onto {x : Cx >= 0} (Moreau: z + eta)."""
    if (cone.C @ z >= -FEAS_TOL).all():
        return z
    return z + eta_projection(z, cone.C)


def project_set(z: np.ndarray, S: SemialgebraicSet) -> np.ndarray:
    """Euclidean projection onto a convex {g_i >= 0} set (Dykstra).

    Convexity is assumed, not verified.  Each per-constraint projection is
    a Newton walk along the constraint gradient onto the zero level set.
    """
    vals = S.values(z)
    if (vals >= -FEAS_TOL).all():
        return z

    def project_one(y: np.ndarray, i: int) -> np.ndarray:
        g = S.generators[i]
        for _ in range(60):
            val = g.evaluate_float(y)
            if val >= -FEAS_TOL:
                return y
            grad = np.array([c.evaluate_float(y) for c in S.gradients[i]])
            nrm2 = float(grad @ grad)
            if nrm2 == 0.0:
                raise FlowError("constraint gradient vanished during projection")
            y = y - (val / nrm2) * grad
        return y

    m = len(S.generators)
    y = z.copy()
    corrections = [np.zeros_like(z) for _ in range(m)]
    for sweep in range(MAX_PROJECTION_ITER):
        y_prev = y.copy()
        for i in range(m):
            target = y + corrections[i]
            projected = project_one(target, i)
            corrections[i] = target - projected
            y = projected
        if (S.values(y) >= -FEAS_TOL).all() and \
                np.linalg.norm(y - y_prev) <= 1e-14 + 1e-12 * np.linalg.norm(y):
            return y
    if (S.values(y) >= -FEAS_TOL).all():
        return y
    raise FlowError(
        f"projection did not converge in {MAX_PROJECTION_ITER} sweeps")


System = ConicSystem | SemialgebraicSystem


def _projector(system: System) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(system, ConicSystem):
        return lambda z: project_cone(z, system.cone)
    return lambda z: project_set(z, system.S)


def _feasible(system: System, x: np.ndarray, tol: float) -> bool:
    if isinstance(system, ConicSystem):
        return system.cone.contains(x, tol)
    return system.S.contains(x, tol)


def step(x: np.ndarray, dt: float, system: System,
         projector: Callable[[np.ndarray], np.ndarray] | None = None
         ) -> tuple[np.ndarray, np.ndarray]:
    """One projected Euler step; returns (x_next, eta_used)."""
    x = np.asarray(x, dtype=float)
    fx = system.field_at(x)
    z = x + dt * fx
    proj = projector if projector is not None else _projector(system)
    x_next = proj(z)
    eta_used = (x_next - x) / dt - fx
    return x_next, eta_used


def simulate(x0: Sequence[float], T: float, dt: float, system: System,
             V: Callable[[np.ndarray], np.ndarray] | Polynomial | None = None,
             feas_tol: float = 1e-8) -> Trajectory:
    """Fixed-step projected Euler from a feasible start.

    Records eta along the way; every recorded state is feasible within
    feas_tol or the step raises.  V, when given, is a Polynomial or a map
    from an (m, n) array of states to an array of their m values (such as
    RationalLyapunovCandidate.value); it is evaluated once, on all stored
    states, after the last step.
    """
    x = np.asarray(x0, dtype=float)
    if not _feasible(system, x, feas_tol):
        raise FlowInputError("initial state is outside the constraint set")
    if dt <= 0 or T <= 0:
        raise FlowInputError("T and dt must be positive")
    projector = _projector(system)

    traj = Trajectory()
    steps = int(round(T / dt))
    t = 0.0
    for k in range(steps + 1):
        traj.times.append(t)
        traj.states.append(x.copy())
        if k == steps:
            traj.eta_log.append(np.zeros_like(x))
            break
        x_next, eta_used = step(x, dt, system, projector)
        if not _feasible(system, x_next, feas_tol):
            raise FlowError(f"state left the set at t = {t + dt}")
        traj.eta_log.append(eta_used)
        x = x_next
        t += dt
    if V is not None:
        v_of = V.eval_many if isinstance(V, Polynomial) else V
        traj.v_values = v_of(np.array(traj.states)).tolist()
    return traj
