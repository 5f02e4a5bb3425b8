"""Independent checks of lyapcert outputs.

Nothing here imports lyapcert.  Candidates are parsed with sympy from the
`h:` / `V:` line of a certificate (or from candidate text), the systems are
described by the benchmark's own data, and the boundary correction `eta`
comes from `scipy.optimize.nnls`.  A check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy.optimize import nnls
from sympy.parsing.sympy_parser import (auto_number, convert_xor, parse_expr,
                                        rationalize)

FEAS_TOL = 1e-7        # simulate keeps states within 1e-8 of the set
DECREASE_TOL = 1e-9    # float noise allowed in a non-increase test
ACTIVE_TOL = 1e-7      # active constraint: |g| (or |c.x| / |c|) below this


def symbols(n: int) -> list[sp.Symbol]:
    return list(sp.symbols(f"x1:{n + 1}"))


def parse_poly(text: str, n: int) -> sp.Expr:
    """Parse the canonical polynomial grammar (`2.9*x1^2 + 1/2*x2`) exactly."""
    names = {str(s): s for s in symbols(n)}
    return parse_expr(text, local_dict=names,
                      transformations=(auto_number, rationalize, convert_xor))


def read_certificate(path) -> tuple[str, int]:
    """(candidate text, r) from a certificate file; r is 0 for SOS ones."""
    text, r = None, 0
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(": ")
            if key in ("h", "V"):
                text = value.strip()
            elif key == "r":
                r = int(value)
    if text is None:
        raise ValueError(f"{path}: no h: or V: line")
    return text, r


class NumericPoly:
    """Float evaluation of an exact sympy polynomial and of its gradient."""

    def __init__(self, expr: sp.Expr, n: int):
        terms = sp.Poly(expr, *symbols(n)).terms() or [((0,) * n, 0)]
        self.exps = np.array([m for m, _ in terms], dtype=float).reshape(-1, n)
        self.coefs = np.array([float(c) for _, c in terms])

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.prod(pts[:, None, :] ** self.exps[None], axis=2) @ self.coefs

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts)
        for i in range(pts.shape[1]):
            exps = self.exps.copy()
            coefs = self.coefs * exps[:, i]
            exps[:, i] = np.maximum(exps[:, i] - 1, 0)
            out[:, i] = np.prod(pts[:, None, :] ** exps[None], axis=2) @ coefs
        return out


class Candidate:
    """V = h / |x|^(2r) for a polynomial h given as text."""

    def __init__(self, text: str, n: int, r: int = 0):
        self.h = NumericPoly(parse_poly(text, n), n)
        self.r = r

    def value(self, pts: np.ndarray) -> np.ndarray:
        nrm2 = (pts * pts).sum(axis=1)
        return self.h(pts) / nrm2 ** self.r

    def decrease(self, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """|x|^(2r+2) <grad V, vel>; same sign as the derivative of V."""
        nrm2 = (pts * pts).sum(axis=1)
        return nrm2 * (self.h.gradient(pts) * vel).sum(axis=1) \
            - 2 * self.r * self.h(pts) * (pts * vel).sum(axis=1)


@dataclass
class ConeSystem:
    """x' = A x on {x : C x >= 0}."""

    A: np.ndarray
    C: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def field(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.A.T

    def slack(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.C.T / np.linalg.norm(self.C, axis=1)

    def normals(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Constraint gradients (points x constraints x n) and activity."""
        grads = np.broadcast_to(self.C, (len(pts),) + self.C.shape)
        return grads, np.abs(self.slack(pts)) <= ACTIVE_TOL

    def samples(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit-norm points of the cone, and points on its faces."""
        def draw(k):
            x = rng.standard_normal((k, self.n))
            return x / np.linalg.norm(x, axis=1, keepdims=True)
        pts = _accept(count, draw, lambda p: self.slack(p).min(axis=1) >= 0)
        faces = []
        for c in self.C:
            on_face = pts - np.outer(pts @ c / (c @ c), c)
            keep = self.slack(on_face).min(axis=1) >= -1e-12
            faces.append(on_face[keep])
        face_pts = np.vstack(faces)
        face_pts = face_pts[np.linalg.norm(face_pts, axis=1) > 1e-6]
        face_pts /= np.linalg.norm(face_pts, axis=1, keepdims=True)
        return pts, face_pts

    def feasibility(self, pts: np.ndarray) -> np.ndarray:
        return self.slack(pts).min(axis=1)


@dataclass
class SetSystem:
    """x' = f(x) on {x : g_j(x) >= 0}, sampled inside a bounding box."""

    f: list[str]
    g: list[str]
    box: list[tuple[float, float]]

    def __post_init__(self):
        n = len(self.f)
        self._f = [NumericPoly(parse_poly(t, n), n) for t in self.f]
        self._g = [NumericPoly(parse_poly(t, n), n) for t in self.g]

    @property
    def n(self) -> int:
        return len(self.f)

    def field(self, pts: np.ndarray) -> np.ndarray:
        return np.column_stack([f(pts) for f in self._f])

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.column_stack([g(pts) for g in self._g])

    def gradient(self, j: int, pts: np.ndarray) -> np.ndarray:
        return self._g[j].gradient(pts)

    def normals(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Constraint gradients (points x constraints x n) and activity."""
        grads = np.stack([g.gradient(pts) for g in self._g], axis=1)
        return grads, np.abs(self.values(pts)) <= ACTIVE_TOL

    def samples(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Points of the set away from the origin, and boundary points."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        pts = _accept(count, lambda k: rng.uniform(lo, hi, size=(k, self.n)),
                      lambda p: (self.values(p) >= 0).all(axis=1)
                      & (np.linalg.norm(p, axis=1) >= 1e-2))
        boundary = []
        for j in range(len(self.g)):
            y = pts.copy()
            for _ in range(60):  # Newton steps along grad g_j onto g_j = 0
                val = self._g[j](y)
                if np.abs(val).max() <= 1e-13:
                    break
                grad = self.gradient(j, y)
                nrm2 = np.maximum((grad * grad).sum(axis=1), 1e-300)
                y = y - (val / nrm2)[:, None] * grad
            vals = self.values(y)
            keep = (np.abs(vals[:, j]) <= 1e-10) \
                & (vals >= -1e-10).all(axis=1) \
                & (np.linalg.norm(y, axis=1) >= 1e-2)
            boundary.append(y[keep])
        return pts, np.vstack(boundary)

    def feasibility(self, pts: np.ndarray) -> np.ndarray:
        return self.values(pts).min(axis=1)


def _accept(count, draw, keep) -> np.ndarray:
    """count points of draw(k) batches that pass keep: rejection sampling."""
    out, total = [], 0
    for _ in range(1000):
        batch = draw(4 * count)
        batch = batch[keep(batch)]
        out.append(batch)
        total += len(batch)
        if total >= count:
            return np.vstack(out)[:count]
    raise ValueError("sampler found too few feasible points")


def tangent_field(system, pts: np.ndarray) -> np.ndarray:
    """f + eta at each point: f minus its projection onto the normal cone.

    The normal cone is spanned by the outward normals -n_k of the active
    constraints, so -P_N(f) = N^T lam with lam = argmin_{lam>=0} |N^T lam + f|.
    """
    vel = system.field(pts)
    grads, active = system.normals(pts)
    for i in np.flatnonzero(active.any(axis=1)):
        N = grads[i][active[i]]
        lam, _ = nnls(N.T, -vel[i])
        vel[i] += N.T @ lam
    return vel


def check_candidate(system, text: str, r: int = 0, seed: int = 0,
                    count: int = 600) -> list[str]:
    """Positivity and decrease of V on seeded samples; [] when both hold."""
    cand = Candidate(text, system.n, r)
    rng = np.random.default_rng(seed)
    pts, bnd = system.samples(rng, count)
    problems = []
    vals = cand.value(pts)
    if vals.min() <= 0:
        problems.append(f"V <= 0 at {pts[vals.argmin()].tolist()}: "
                        f"{vals.min():.3e}")
    dec = cand.decrease(pts, system.field(pts))
    if dec.max() > DECREASE_TOL:
        problems.append(f"V increases at {pts[dec.argmax()].tolist()}: "
                        f"{dec.max():.3e}")
    if len(bnd):
        dec = cand.decrease(bnd, tangent_field(system, bnd))
        if dec.max() > DECREASE_TOL:
            problems.append(f"V increases on the boundary at "
                            f"{bnd[dec.argmax()].tolist()}: {dec.max():.3e}")
    return problems


def read_trajectory(csv_path) -> np.ndarray:
    """Rows of trajectory.csv as floats.

    lyapcert writes state and eta entries as `np.float64(...)` under
    numpy 2; the wrapper is stripped so that the values can be checked.
    """
    with open(csv_path) as fh:
        next(fh)
        return np.array([[float(v.removeprefix("np.float64(").rstrip(")"))
                          for v in line.strip().split(",")] for line in fh],
                        ndmin=2)


def check_trajectory(system, csv_path, text: str, r: int = 0,
                     steps: int | None = None) -> list[str]:
    """The states stay feasible, V never increases, the norm does not grow."""
    data = read_trajectory(csv_path)
    n = system.n
    states = data[:, 1:1 + n]
    problems = []
    if steps is not None and len(states) != steps + 1:
        problems.append(f"{len(states)} states, expected {steps + 1}")
    feas = system.feasibility(states)
    if feas.min() < -FEAS_TOL:
        problems.append(f"state {int(feas.argmin())} is outside the set "
                        f"by {-feas.min():.3e}")
    v = Candidate(text, n, r).value(states)
    rise = np.diff(v)
    if rise.max() > DECREASE_TOL * max(1.0, abs(v[0])):
        problems.append(f"V rises by {rise.max():.3e} at step "
                        f"{int(rise.argmax())}")
    norms = np.linalg.norm(states, axis=1)
    if norms[-1] > norms[0]:
        problems.append(f"final norm {norms[-1]:.6g} exceeds initial "
                        f"{norms[0]:.6g}")
    return problems
