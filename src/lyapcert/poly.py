"""Exact sparse multivariate polynomials and symmetric multilinear forms.

A polynomial is a map from exponent tuples to rational coefficients
(fractions.Fraction), so arithmetic, differentiation and tensor
symmetrization are exact; floats enter only at solver and sampler
boundaries.  A homogeneous polynomial of degree d has an equivalent
symmetric order-d tensor whose diagonal restriction reproduces it; its
evaluations on tuples of simplex vertices are the polynomial's Bernstein
coefficients on that simplex, which turn copositivity into finitely many
linear constraints.  bernstein_coefficients computes them from values at
the simplicial lattice points, simplex_lattice, which is also the
oracle's sample grid on a cell.

Floats are evaluated in two ways, each built once per polynomial list
and held by its owner.  MonomialTable is the one batch evaluator: every
polynomial at every row of a point array, from a graded table of
monomials formed by multiplies alone.  float_kernel generates one
straight-line float function for a list of polynomials, for inner loops
that evaluate them at one point at a time; euler_kernel, from the same
term emitter, generates the loop of explicit Euler steps of a field that
keeps each step whose constraint values stay in the set, projects a step
that violates one generator of a set itself (the Euclidean projection
onto {g >= 0} by Newton steps, the one single-generator projection of
the package), and hands every other step to a projection callback.

Monomial order is graded lexicographic (total degree ascending, exponent
tuple descending within a degree) and is used everywhere a coefficient
vector is laid out, so layouts are reproducible across runs.

The text grammar "2.9*x1^2 + 1*x1*x2 + 1*x2^2" (coefficients decimal or
"p/q", variables x1..xn) is the canonical exchange format for the CLI and
certificate files; see parse_polynomial / format_polynomial.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial, prod
from operator import add
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

Mono = tuple[int, ...]
Scalar = int | float | Fraction


def grlex_key(mono: Mono) -> tuple:
    """Sort key for the global graded-lexicographic monomial order."""
    return (sum(mono), tuple(-e for e in mono))


def monomials_of_degree(dimension: int, degree: int) -> list[Mono]:
    """All exponent tuples of total degree `degree`, in graded-lex order
    (the first exponent descending, then the rest by the same rule)."""
    if dimension == 0:
        return [()] if degree == 0 else []
    if dimension == 1:
        return [(degree,)]
    return [(e, *rest) for e in range(degree, -1, -1)
            for rest in monomials_of_degree(dimension - 1, degree - e)]


def monomials_up_to_degree(dimension: int, degree: int,
                           include_constant: bool = True) -> list[Mono]:
    """All exponent tuples of total degree <= `degree`, graded-lex order."""
    out: list[Mono] = []
    for d in range(0 if include_constant else 1, degree + 1):
        out.extend(monomials_of_degree(dimension, d))
    return out


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    The constructor is the validating boundary for outside input (the
    parser, spec values, certificates): it checks every monomial's length
    and signs and converts every coefficient to a Fraction.  The results
    of +, -, negation, scale, * and gradient are valid by construction, so
    they take the trusted path, Polynomial.trusted, which only drops zero
    coefficients.  Immutable by convention: no method mutates self,
    arithmetic returns new instances, values are safe to share between
    threads.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int,
                 terms: Mapping[Mono, Scalar] | None = None):
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension
        clean: dict[Mono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != dimension:
                raise ValueError(
                    f"monomial {mono} has length {len(mono)}, expected {dimension}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c = _as_fraction(coeff)
            if c != 0:
                acc = clean.get(mono)
                clean[mono] = c if acc is None else acc + c
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def trusted(cls, dimension: int, terms: Mapping[Mono, Fraction]
                ) -> Polynomial:
        """The polynomial of terms whose keys are already exponent tuples of
        `dimension` nonnegative ints and whose values are Fractions; only
        zero coefficients are dropped, nothing is checked."""
        p = object.__new__(cls)
        p.dimension = dimension
        p.terms = {m: c for m, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, dimension: int) -> Polynomial:
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value: Scalar) -> Polynomial:
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> Polynomial:
        """The polynomial x_{index} (0-based index)."""
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * dimension
        exps[index] = 1
        return cls(dimension, {tuple(exps): 1})

    @classmethod
    def monomial(cls, mono: Mono, coeff: Scalar = 1) -> Polynomial:
        return cls(len(mono), {tuple(mono): coeff})

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other: Polynomial) -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}")

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
        return Polynomial.trusted(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial.trusted(self.dimension,
                                  {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return Polynomial.constant(self.dimension, other) - self

    def scale(self, factor: Scalar) -> Polynomial:
        f = _as_fraction(factor)
        return Polynomial.trusted(self.dimension,
                                  {m: c * f for m, c in self.terms.items()})

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_dim(other)
        out: dict[Mono, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(map(add, ma, mb))
                acc = out.get(mono)
                out[mono] = ca * cb if acc is None else acc + ca * cb
        return Polynomial.trusted(self.dimension, out)

    def __rmul__(self, other: Scalar) -> Polynomial:
        return self.scale(other)

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        acc = Polynomial.constant(self.dimension, 1)
        for _ in range(exponent):
            acc = acc * self
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> int | None:
        """Common degree of all terms, or None if degrees are mixed.

        The zero polynomial reports degree 0 (it is homogeneous of every
        degree; 0 avoids an error path in hierarchy loops).
        """
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient(self, mono: Mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- calculus and evaluation --------------------------------------------

    def gradient(self) -> tuple[Polynomial, ...]:
        """Partial derivatives (d/dx_1 p, ..., d/dx_n p)."""
        comps = []
        for i in range(self.dimension):
            terms: dict[Mono, Fraction] = {}
            for mono, coeff in self.terms.items():
                if mono[i] == 0:
                    continue
                dm = list(mono)
                dm[i] -= 1
                terms[tuple(dm)] = coeff * mono[i]
            comps.append(Polynomial.trusted(self.dimension, terms))
        return tuple(comps)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Evaluate at a point; exact when the point is exact."""
        if len(point) != self.dimension:
            raise ValueError("point dimension mismatch")
        total: Scalar = 0
        for mono, coeff in self.terms.items():
            total += coeff * prod(
                x ** e for x, e in zip(point, mono) if e)
        return total

    # -- tensor representation ----------------------------------------------

    def to_tensor(self) -> SymmetricTensor:
        """Symmetric order-d tensor whose diagonal reproduces self.

        Requires a homogeneous polynomial of degree >= 1; each coefficient
        is divided by the number of distinct index permutations, which keeps
        the diagonal identity exact.
        """
        d = self.is_homogeneous()
        if d is None:
            raise ValueError("tensor representation needs a homogeneous polynomial")
        if d < 1:
            raise ValueError("tensor representation needs degree >= 1")
        entries: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            idx = _mono_to_indices(mono)
            entries[idx] = coeff / _permutation_count(idx)
        return SymmetricTensor(d, self.dimension, entries)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {format_polynomial(self)!r})"


_KERNEL_CHUNK = 64  # terms per statement; one long sum nests too deep to compile
FEAS_TOL = 1e-10    # a constraint value >= -FEAS_TOL keeps an Euler step
STATE_TOL = 1e-8    # every stored state is this close to the set
KKT_TOL = 1e-12     # set projection residual, relative to 1 + |z|
MAX_PROJECTION_ITER = 100  # iterations of one set projection


def _sum_lines(var: str, form: Polynomial | Sequence[float],
               names: Sequence[str]) -> list[str]:
    """Statements that set var to the value of form at the point names.

    The value is summed from 0.0 term by term: a polynomial's terms in
    graded-lex order, each its coefficient times names[j] ** e for its
    nonzero exponents in variable order (names[j] itself for e = 1); a row
    c of floats as c_j * names[j] over its nonzero columns in order.  A
    factor 1.0 is left out and -1.0 becomes a negation, which changes no
    bit.  Nor does leaving out a zero column at a finite point: a sum
    that starts at 0.0 is never -0.0, and adding +-0.0 keeps it.
    """
    if isinstance(form, Polynomial):
        terms = [(c, [names[j] if e == 1 else f"{names[j]}**{e}"
                      for j, e in enumerate(m) if e])
                 for m, c in form.sorted_terms()]
    else:
        terms = [(c, [x]) for c, x in zip(form, names) if c]
    code = []
    for c, factors in terms:
        c = float(c)
        if factors and c in (1.0, -1.0):
            code.append(("-" if c < 0 else "") + "*".join(factors))
        else:
            code.append("*".join([repr(c)] + factors))
    lines, head = [], "0.0"
    for k in range(0, len(code), _KERNEL_CHUNK):
        lines.append(f"    {var} = {head} + "
                     + " + ".join(code[k:k + _KERNEL_CHUNK]))
        head = var
    return lines or [f"    {var} = 0.0"]


def _tuples(values: Sequence[Sequence[str]]) -> str:
    """The expression of the tuples of the names in values."""
    return ", ".join(f"({''.join(f'{v}, ' for v in names)})"
                     for names in values)


def _compile(lines: list[str], values: Sequence[Sequence[str]]) -> Callable:
    """The function `kernel` of lines, returning the tuples of values
    (None when there are none) where the lines do not return first."""
    namespace: dict = {}
    exec("\n".join(lines + [f"    return {_tuples(values)}"]), namespace)
    return namespace["kernel"]


def float_kernel(polys: Sequence[Polynomial]
                 ) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """One straight-line float function for a list of polynomials.

    The returned function maps a point (a sequence of exactly n numbers)
    to the tuple of the polynomials' values.  Its source is generated once from
    float literals and exponents, as collections.namedtuple builds its
    class: each value is summed from 0.0 in graded-lex term order, and
    each term is its coefficient times x_j ** e for its nonzero exponents
    in variable order (x_j itself for e = 1), so a value is bit for bit
    what that term loop gives.
    """
    polys = list(polys)
    dims = {p.dimension for p in polys}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch in float kernel: {sorted(dims)}")
    names = [f"x{j}" for j in range(dims.pop())] if polys else []
    lines = ["def kernel(p):"]
    if names:
        lines.append(f"    {', '.join(names)}, = p")
    for i, p in enumerate(polys):
        lines += _sum_lines(f"v{i}", p, names)
    return _compile(lines, [[f"v{i}" for i in range(len(polys))]])


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    """lines, each indented by depth more levels of four spaces."""
    return ["    " * depth + line for line in lines]


def _largest_lines(var: str, names: Sequence[str]) -> list[str]:
    """Statements that set var to max(abs(a) for a in names) without a
    builtin call, as max gives it: a later value replaces the one kept only
    when it is larger, so the result is NaN when the first is and a later
    NaN is passed over.  -a stands for abs(a) when a < 0.0; var may then
    differ from max's result in the sign of a zero or a NaN, which no
    comparison sees."""
    first, *rest = [f"{a} if {a} >= 0.0 else -{a}" for a in names]
    lines = [f"    {var} = {first}"]
    for size in rest:
        lines += [f"    size = {size}",
                  f"    {var} = size if size > {var} else {var}"]
    return lines


def _finite(names: Sequence[str]) -> str:
    """The test that every name is finite: a - a is 0.0 for a finite a
    and NaN otherwise, so the test itself cannot overflow."""
    return " + ".join(f"{a} - {a}" for a in names) + " == 0.0"


def euler_kernel(field: Sequence[Polynomial],
                 constraints: Sequence[Polynomial | Sequence[float]],
                 derivatives: Sequence[tuple[Sequence[Polynomial],
                                             Sequence[Polynomial]]] = ()
                 ) -> Callable[[list, list, float, int, Callable, dict, dict],
                               None]:
    """One generated loop of explicit Euler steps with a projection callback.

    The returned kernel(times, states, dt, count, project, record, etas)
    takes count steps of a field of n polynomials in n variables from
    states[-1] and times[-1].  A step computes f(x), z_j = x_j + dt * f_j(x)
    and the constraint values at z, summed as in float_kernel; a constraint
    that is a row c of floats is ((0.0 + c_1*z_1) + c_2*z_2) + ... over
    its nonzero c_j (_sum_lines), which at a finite z is
    sum(map(mul, c, z)) bit for bit.  The step keeps z when every z_j
    and value is finite and every value is >= -FEAS_TOL; otherwise the
    next state is project(x, z, f(x), values), each a tuple of floats,
    unless the step slides (below).  Either way the loop appends
    times[-1] + dt to times and the state to states and goes on from that
    state.  An OverflowError of float ** or an exception of project ends
    the loop, with every step before it appended.

    Without derivatives (the rows of a cone) record and etas are not used.
    With them, for polynomial constraints g_i, the gradient and the upper
    triangle of the Hessian of each g_i (SemialgebraicSet.derivatives),
    the loop slides along the boundary itself.  record is the multipliers
    record {i: lam_i} of the projections (flow.project_set), cleared at
    each step that keeps z, and etas maps the row of a step's start state
    (the loop's index, from len(states) - 1 on) to the step's eta.  A
    step whose z and values are finite and whose only value below
    -FEAS_TOL is g_i's slides.  It clears record, sets
    tol = KKT_TOL (1 + max|z_j|) and starts warm, at lam from the step
    before and y = z + lam grad g_i(z), when that step slid on g_i or was
    a project call that left record = {i: lam} with lam > 0; otherwise,
    and again when that warm slide does not keep its y, it starts cold at
    lam = 0 and y = z (no 0 grad g_i is added, so the signs of zeros
    stay).  Each slide takes Newton steps (_newton_lines) while lam >= 0,
    evaluating every g_k at each y, until the KKT residual at y is within
    tol, in at most MAX_PROJECTION_ITER iterations.  It keeps that y when
    lam > 0, y is finite, every other g_k(y) >= -FEAS_TOL and
    g_i(y) >= -STATE_TOL (flow.project_set's posterior check and
    flow.step's check of the state); then record = {i: lam} and the
    state's row in etas is (y - x)/dt - f(x).  When the cold slide does
    not keep its y either (a negative multiplier, a pivot that is not
    positive, no convergence, a failed check), the step goes to project
    with the record empty, so project_set starts it cold.  The max and abs
    of tol and of the KKT test are conditional expressions
    (_largest_lines) with the truth values of the builtins' for every
    float, and the Newton iterations run over one range built before the
    loop, so a sliding step calls no builtin function.
    """
    n = len(field)
    xs, fs, zs = ([f"{a}{j}" for j in range(n)] for a in "xfz")
    vs = [f"v{i}" for i in range(len(constraints))]
    lines = ["def kernel(times, states, dt, count, project, record, etas):",
             "    t = times[-1]", f"    {', '.join(xs)}, = states[-1]",
             "    add_time, add_state = times.append, states.append",
             *(["    slide = -1", f"    newton = range({MAX_PROJECTION_ITER})"]
               if derivatives else []),
             "    first = len(states) - 1",
             "    for row in range(first, first + count):"]
    for f, p in zip(fs, field):
        lines += _indent(_sum_lines(f, p, xs))
    lines += [f"        {z} = {x} + dt*{f}" for x, f, z in zip(xs, fs, zs)]
    for v, g in zip(vs, constraints):
        lines += _indent(_sum_lines(v, g, zs))
    kept = " and ".join([f"{v} >= {-FEAS_TOL!r}" for v in vs]
                        + [_finite(zs + vs)])
    lines += [f"        if {kept}:", f"            x = {_tuples([zs])}"]
    project = [f"x = project({_tuples([xs, zs, fs, vs])})"]
    if derivatives:
        lines += ["            slide = -1", "            record.clear()"]
        project = ["x = None",
                   *_slide_lines(constraints, derivatives, xs, fs, zs),
                   "if x is None:", *_indent(project),
                   "    slide = -1", "    if len(record) == 1:",
                   "        (i, lam), = record.items()",
                   "        if lam > 0.0:", "            slide = i"]
    lines += ["        else:", *_indent(project, 3),
              "        t += dt", "        add_time(t)", "        add_state(x)",
              f"        {', '.join(xs)}, = x"]
    return _compile(lines, [])


def _slide_lines(constraints: Sequence[Polynomial],
                 derivatives: Sequence[tuple[Sequence[Polynomial],
                                             Sequence[Polynomial]]],
                 xs: list[str], fs: list[str], zs: list[str]
                 ) -> list[str]:
    """The sliding branch of euler_kernel's loop, one if/elif per
    generator, unindented: each sets x only when it keeps the step."""
    ys, a = ([f"{c}{j}" for j in range(len(zs))] for c in "ya")
    vs, qs = ([f"{c}{k}" for k in range(len(constraints))]  # q_k = g_k(y)
              for c in "vq")
    lines = []
    for i, (gradient, hessian) in enumerate(derivatives):
        def others(values):
            return [f"{v} >= {-FEAS_TOL!r}" for k, v in enumerate(values)
                    if k != i]
        keep = ["    if " + " and ".join(
                    ["lam > 0.0", *others(qs), f"q{i} >= {-STATE_TOL!r}",
                     _finite(ys)]) + ":",
                f"        x = {_tuples([ys])}",
                f"        record[{i}] = lam",
                f"        slide = {i}",
                "        etas[row] = " + _tuples([[
                    f"({y} - {x})/dt - {f}" for y, x, f in zip(ys, xs, fs)]]),
                "    break"]
        iteration = [line for q, g in zip(qs, constraints)
                     for line in _sum_lines(q, g, ys)]
        iteration += ["    if not lam >= 0.0:", "        break",
                      *_newton_lines(f"q{i}", gradient, hessian, ys, keep)]
        warm = [line for name, d in zip(a, gradient)
                for line in _sum_lines(name, d, zs)]
        warm += [f"    {y} = {z} + lam*{aj}" for y, z, aj in zip(ys, zs, a)]
        cold = ["    lam = 0.0", *(f"    {y} = {z}" for y, z in zip(ys, zs))]
        # a warm slide that keeps no y goes round once more, cold
        body = ["    record.clear()", *_largest_lines("tol", zs),
                f"    tol = {KKT_TOL!r}*(1.0 + tol)",
                f"    if slide == {i}:", *_indent(warm), "    else:",
                *_indent(cold), "    while True:",
                "        for _ in newton:",
                *_indent(iteration, 2),
                f"        if x is None and slide == {i}:",
                "            slide = -1", *_indent(cold, 2),
                "            continue", "        break"]
        lines += [("elif " if i else "if ")
                  + " and ".join(others(vs) + [_finite(zs + vs)]) + ":",
                  *body]
    return lines


def _newton_lines(g: str, gradient: Sequence[Polynomial],
                  hessian: Sequence[Polynomial], ys: list[str],
                  converged: list[str]) -> list[str]:
    """Statements of one Newton step of the projection of z onto {g >= 0},
    for euler_kernel's sliding step.

    g names the value of g at the point ys, and z_j, lam and tol are
    bound.  The statements evaluate a = grad g at y and the residual
    r = (y - z) - lam a, and run the statements converged when
    |g| <= tol max|a_j| and max|r_j| <= tol.  Otherwise they factor
    H = I - lam hess g as L D L^T (Cholesky without square roots,
    unrolled), solve H u = -r and H w = a, and set y to y + dy and lam to
    lam + dlam, with dlam = (-g - a.u) / a.w and dy = u + dlam w: the
    solution of [[H, -a], [a^T, 0]] (dy, dlam) = -(r, g).  A pivot of D or
    an a.w that is not positive (or not a number) breaks out of the
    enclosing loop in place of the step.  converged is one indent deep
    and must leave the statements (break).
    """
    n = len(ys)
    zs, rs, a, u, w = ([f"{c}{j}" for j in range(n)] for c in "zrauw")
    h = [[f"h{j}_{k}" for k in range(n)] for j in range(n)]
    lines = []
    for name, d in zip(a, gradient):
        lines += _sum_lines(name, d, ys)
    lines += [f"    {r} = ({y} - {z}) - lam*{aj}"
              for r, y, z, aj in zip(rs, ys, zs, a)]
    # the converged test, |g| <= tol max|a_j| and then max|r_j| <= tol
    lines += [*_largest_lines("big", a),
              f"    if ({g} if {g} >= 0.0 else -{g}) <= tol*big:",
              *_indent(_largest_lines("big", rs)), "        if big <= tol:",
              *_indent(converged, 2)]
    upper = iter(hessian)
    for j in range(n):
        for k in range(j, n):
            lines += _sum_lines(h[j][k], next(upper), ys)
    # H = L D L^T: e_ij = l_ij d_j, d_j the pivots, l_jj = 1
    for j in range(n):
        lines.append(f"    d{j} = (1.0 - lam*{h[j][j]})"
                     + "".join(f" - l{j}_{k}*e{j}_{k}" for k in range(j)))
        lines += [f"    if not d{j} > 0.0:", "        break"]
        for i in range(j + 1, n):
            lines.append(f"    e{i}_{j} = -(lam*{h[j][i]})"
                         + "".join(f" - l{i}_{k}*e{j}_{k}" for k in range(j)))
            lines.append(f"    l{i}_{j} = e{i}_{j}/d{j}")
    for x, b in ((u, [f"-{r}" for r in rs]), (w, a)):
        for i in range(n):    # L v = b
            lines.append(f"    {x[i]} = {b[i]}" + "".join(
                f" - l{i}_{k}*{x[k]}" for k in range(i)))
        for i in reversed(range(n)):    # L^T x = v / D
            lines.append(f"    {x[i]} = {x[i]}/d{i}" + "".join(
                f" - l{k}_{i}*{x[k]}" for k in range(i + 1, n)))
    dot = (lambda left, right:
           " + ".join(f"{p}*{q}" for p, q in zip(left, right)))
    lines += [f"    aw = {dot(a, w)}", "    if not aw > 0.0:", "        break",
              f"    dlam = (-{g} - ({dot(a, u)}))/aw",
              "    lam = lam + dlam"]
    lines += [f"    {y} = {y} + ({uj} + dlam*{wj})"
              for y, uj, wj in zip(ys, u, w)]
    return lines


class MonomialTable:
    """Batch float values of a fixed list of polynomials.

    Calling the table on an (m, n) array of points (or one point) gives
    the (m, len(polys)) array of every polynomial at every point.  The
    layout is built once: every monomial that a polynomial uses, and the
    chain of parents down to 1, in graded-lex order, where a monomial's
    parent drops one power of its last variable.  A call fills one row per
    monomial, its parent's row times one coordinate, so only IEEE
    multiplies form the monomials (no pow), and one (polys x monomials)
    coefficient-matrix product sums the terms.  `degrees` holds the total
    degrees of all the polynomials' terms.

    The layout takes one pass over the support: each monomial's chain is
    walked down, one exponent list decremented in place, until it meets a
    monomial already placed, and each link records its parent and
    variable.  Sorting the exponent tuples descending and then, stably, by
    total degree gives the graded-lex order.
    """

    __slots__ = ("degrees", "_steps", "_coefs")

    def __init__(self, polys: Sequence[Polynomial]):
        dims = {p.dimension for p in polys}
        if len(dims) > 1:
            raise ValueError(
                f"dimension mismatch in monomial table: {sorted(dims)}")
        n = dims.pop() if dims else 0
        monos = {m for p in polys for m in p.terms}
        self.degrees = frozenset(map(sum, monos))
        link: dict[Mono, tuple[Mono, int] | None] = {(0,) * n: None}
        for mono in monos:
            exps, j = list(mono), n - 1
            while mono not in link:
                while not exps[j]:
                    j -= 1
                exps[j] -= 1
                up = tuple(exps)
                link[mono] = up, j
                mono = up
        order = sorted(sorted(link, reverse=True), key=sum)
        row = dict(zip(order, range(len(order))))
        self._steps = [(row[up], j) for up, j in map(link.get, order[1:])]
        self._coefs = coefs = np.zeros((len(polys), len(order)))
        for k, p in enumerate(polys):
            for mono, c in p.terms.items():
                # float(c), without numbers.Rational.__float__'s int() calls
                coefs[k, row[mono]] = c.numerator / c.denominator

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        cols = np.ascontiguousarray(points.T)
        table = np.empty((len(self._steps) + 1, len(points)))
        table[0] = 1.0
        for i, (parent, j) in enumerate(self._steps, start=1):
            np.multiply(table[parent], cols[j], out=table[i])
        return (self._coefs @ table).T


def _mono_to_indices(mono: Mono) -> Mono:
    """Exponent tuple -> sorted variable-index tuple, e.g. (2,1) -> (0,0,1)."""
    idx: list[int] = []
    for var, e in enumerate(mono):
        idx.extend([var] * e)
    return tuple(idx)


def _indices_to_mono(idx: Mono, dimension: int) -> Mono:
    exps = [0] * dimension
    for i in idx:
        exps[i] += 1
    return tuple(exps)


def _permutation_count(idx: Mono) -> int:
    """Number of distinct permutations of a sorted index tuple."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    total = factorial(len(idx))
    for c in counts.values():
        total //= factorial(c)
    return total


def distinct_permutations(items: Mono) -> Iterator[Mono]:
    """All distinct permutations of a (sorted) tuple, lexicographic order."""
    pool = sorted(items)
    n = len(pool)
    if n == 0:
        yield ()
        return
    cur = list(pool)
    while True:
        yield tuple(cur)
        # next_permutation
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1:] = reversed(cur[i + 1:])


class SymmetricTensor:
    """Symmetric multilinear form of fixed order and dimension.

    Symmetry is structural: only sorted index tuples are stored, and every
    unsorted index tuple refers to its sorted representative.
    """

    __slots__ = ("order", "dimension", "entries")

    def __init__(self, order: int, dimension: int,
                 entries: Mapping[Mono, Scalar]):
        if order < 1 or dimension < 1:
            raise ValueError("order and dimension must be positive")
        self.order = order
        self.dimension = dimension
        clean: dict[Mono, Fraction] = {}
        for idx, value in entries.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != order:
                raise ValueError(f"index tuple {idx} has wrong arity")
            if tuple(sorted(idx)) != idx:
                raise ValueError(f"index tuple {idx} is not sorted")
            if not all(0 <= i < dimension for i in idx):
                raise ValueError(f"index out of range in {idx}")
            v = _as_fraction(value)
            if v != 0:
                clean[idx] = v
        self.entries = clean

    def value(self, idx: Mono) -> Fraction:
        """Entry for an arbitrary (possibly unsorted) index tuple."""
        return self.entries.get(tuple(sorted(idx)), Fraction(0))

    def eval(self, points: Sequence[Sequence[Scalar]]) -> Scalar:
        """Multilinear value H[x^1, ..., x^d]; exact on exact inputs."""
        if len(points) != self.order:
            raise ValueError(
                f"expected {self.order} argument vectors, got {len(points)}")
        for p in points:
            if len(p) != self.dimension:
                raise ValueError("argument vector dimension mismatch")
        total: Scalar = 0
        for idx, value in self.entries.items():
            s: Scalar = 0
            for perm in distinct_permutations(idx):
                s += prod(points[k][perm[k]] for k in range(self.order))
            total += value * s
        return total

    def diagonal_polynomial(self) -> Polynomial:
        """The homogeneous polynomial x -> H[x, ..., x]."""
        terms: dict[Mono, Fraction] = {}
        for idx, value in self.entries.items():
            mono = _indices_to_mono(idx, self.dimension)
            terms[mono] = terms.get(mono, Fraction(0)) + value * _permutation_count(idx)
        return Polynomial(self.dimension, terms)

    def __repr__(self) -> str:
        return (f"SymmetricTensor(order={self.order}, dimension={self.dimension}, "
                f"{len(self.entries)} entries)")


@lru_cache(maxsize=None)
def simplex_lattice(k: int, d: int) -> np.ndarray:
    """The simplicial lattice of a k-vertex simplex at resolution d: the
    barycentric weights alpha / d for alpha in monomials_of_degree(k, d),
    in that order; read-only, one per (k, d)."""
    lattice = np.array(monomials_of_degree(k, d), dtype=float) / d
    lattice.setflags(write=False)
    return lattice


@lru_cache(maxsize=None)
def _bernstein_lattice(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """simplex_lattice(k, d) and the inverse of M with M[alpha, beta] =
    B_beta(alpha/d), the Bernstein polynomials at the lattice points (by a
    MonomialTable, so by multiplies alone).

    Rows and columns run over monomials_of_degree(k, d); both arrays are
    read-only.
    """
    lattice = simplex_lattice(k, d)
    bernstein = [Polynomial(k, {beta: factorial(d)
                                // prod(map(factorial, beta))})
                 for beta in monomials_of_degree(k, d)]
    M_inv = np.linalg.inv(MonomialTable(bernstein)(lattice))
    M_inv.setflags(write=False)
    return lattice, M_inv


def bernstein_coefficients(table: MonomialTable, vertices,
                           order: int) -> np.ndarray:
    """Bernstein coefficients of homogeneous polynomials on one simplex.

    `table` is the MonomialTable of the polynomials.  Returns a
    (multisets x polys) array whose row j belongs to the j-th exponent
    beta of monomials_of_degree(k, order), the vertex multiset that holds
    vertex i beta_i times (combinations_with_replacement order).  Writing
    x = lambda V on the cell, p(lambda V) = sum_beta b_beta B_beta(lambda),
    and b_beta is the polar-form value H[v_{i1}, ..., v_{id}] at the
    multiset beta; the coefficients are solved from the values at the
    simplicial lattice points alpha V / d.  Every polynomial must be zero
    or homogeneous of degree `order`.
    """
    if table.degrees - {order}:
        raise ValueError(
            f"Bernstein coefficients of order {order} need polynomials "
            f"homogeneous of that degree")
    V = np.asarray(vertices, dtype=float)
    lattice, M_inv = _bernstein_lattice(len(V), order)
    return M_inv @ table(lattice @ V)


def norm_squared(dimension: int) -> Polynomial:
    """The polynomial x_1^2 + ... + x_n^2."""
    terms = {}
    for i in range(dimension):
        exps = [0] * dimension
        exps[i] = 2
        terms[tuple(exps)] = 1
    return Polynomial(dimension, terms)


# -- text grammar -------------------------------------------------------------

# findall gives each token as one tuple with a slot per group, in this
# order: the slot of the token's kind holds its text, the others ""
_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])"
    r"|(?P<times>\*)"
    r"|(?P<power>\^)"
    r"|(?P<rational>\d+/\d+)"
    r"|(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<other>\S))")


# a decimal exponent of 10,000 or more in magnitude
_BIG_EXPONENT = re.compile(r"[eE][+-]?0*[1-9]\d{4}")


class PolynomialParseError(InputError):
    """Raised on malformed polynomial text; carries the column offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _decimal(token: str) -> tuple[int, int]:
    """A decimal token as integers (p, q) with p/q == Fraction(token): its
    digits with the point dropped, and the power of ten of its exponent
    less its fraction digits on the side that keeps it whole."""
    mantissa, _, exponent = token.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction)
    digits = int(whole + fraction)
    return (digits * 10 ** shift, 1) if shift >= 0 else (digits, 10 ** -shift)


def parse_polynomial(text: str, dimension: int) -> Polynomial:
    """Parse the canonical grammar into an exact polynomial.

    Decimal coefficients are read as exact decimal fractions, "p/q" as
    exact rationals; variables are x1..xn with 1-based indices.  A term
    whose coefficient (summed with the earlier terms of its monomial) has
    no finite float value is an error at the term's column.

    A term's factors multiply into one integer numerator and denominator,
    and make one Fraction.  Only an error needs a token's column, so only
    an error scans the text a second time for it.
    """
    tokens = _TOKEN.findall(text)

    def fail(message: str, index: int, whole_match: bool = False):
        """The error at token `index`, at its first character, or with
        `whole_match` at the whitespace before it."""
        m = next(islice(_TOKEN.finditer(text), index, None))
        raise PolynomialParseError(
            message, m.start(0 if whole_match else m.lastgroup) + 1)

    for index, token in enumerate(tokens):
        if token[-1]:
            fail(f"unexpected character {token[-1]!r}", index, True)
    # before any int() or power of ten: a decimal exponent beyond +-9999,
    # or a digit run longer than int() reads (leading zeros included),
    # found from the digits; a text within both bounds skips the scan
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(text) or _BIG_EXPONENT.search(text):
        for index, token in enumerate(tokens):
            mantissa, _, exponent = "".join(token[3:6]).lstrip("x") \
                .lower().partition("e")
            if len(exponent.lstrip("+-0")) > 4 or 0 < limit < max(
                    map(len, mantissa.replace(".", "").split("/"))):
                fail("number out of range: exponent beyond +-9999 or too "
                     "many digits", index)
    if not tokens:
        raise PolynomialParseError("empty polynomial", 1)
    if len(tokens) == 1 and tokens[0][4] == "0":
        return Polynomial.zero(dimension)

    terms: dict[Mono, Fraction] = {}
    count = len(tokens)
    i = 0
    num = 1      # a term's numerator starts as its sign
    if tokens[0][0]:
        num = -1 if tokens[0][0] == "-" else 1
        i = 1
    while True:
        start, den, exps, saw_factor = i, 1, [0] * dimension, False
        while i < count:
            sign, times, power, rational, number, var, _ = tokens[i]
            if sign:
                break
            if times:
                if not saw_factor:
                    fail("'*' without preceding factor", i)
                i += 1
                continue
            if number:
                p, q = _decimal(number)
                num *= p
                den *= q
            elif var:
                k = int(var[1:])
                if not 1 <= k <= dimension:
                    fail(f"variable {var} outside dimension {dimension}", i)
                e = 1
                if i + 1 < count and tokens[i + 1][2]:
                    if i + 2 >= count or not tokens[i + 2][4]:
                        fail("'^' needs an integer exponent", i + 1)
                    if not tokens[i + 2][4].isdigit():
                        fail("exponent must be an integer", i + 2)
                    e = int(tokens[i + 2][4])
                    i += 2
                exps[k - 1] += e
            elif rational:
                p, q = map(int, rational.split("/"))
                if q == 0:
                    fail("zero denominator", i)
                num *= p
                den *= q
            else:
                fail(f"unexpected token {power!r}", i)
            saw_factor = True
            i += 1
        if not saw_factor:
            if start < count:
                fail("empty term", start)
            raise PolynomialParseError("empty term", len(text))
        mono = tuple(exps)
        coeff = Fraction(num, den)
        acc = terms.get(mono)
        terms[mono] = coeff = coeff if acc is None else acc + coeff
        try:
            coeff.numerator / coeff.denominator      # float(coeff)
        except OverflowError:
            fail("coefficient has no finite float value", start)
        if i == count:
            break
        num = -1 if tokens[i][0] == "-" else 1
        i += 1
        if i == count:
            fail("dangling sign at end of input", i - 1)
    if dimension < 1:
        return Polynomial(dimension, terms)   # the constructor's ValueError
    return Polynomial.trusted(dimension, terms)


def format_coefficient(value: Fraction) -> str:
    """Canonical coefficient text: integer, small p/q, or repr decimal."""
    if value.denominator == 1:
        return str(value.numerator)
    if value.denominator <= 10_000:
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form, graded-lex term order, explicit coefficients."""
    items = p.sorted_terms()
    if not items:
        return "0"
    parts: list[str] = []
    for pos, (mono, coeff) in enumerate(items):
        mag = coeff if coeff > 0 else -coeff
        factors = [format_coefficient(mag)]
        for var, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{var + 1}")
            elif e > 1:
                factors.append(f"x{var + 1}^{e}")
        term = "*".join(factors)
        if pos == 0:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)
