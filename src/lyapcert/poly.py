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
keeps each step whose constraint values stay in the set and hands every
other step to a projection callback, and newton_kernel one Newton step of
the Euclidean projection onto {g >= 0}.

Monomial order is graded lexicographic (total degree ascending, exponent
tuple descending within a degree) and is used everywhere a coefficient
vector is laid out, so layouts are reproducible across runs.

The text grammar "2.9*x1^2 + 1*x1*x2 + 1*x2^2" (coefficients decimal or
"p/q", variables x1..xn) is the canonical exchange format for the CLI and
certificate files; see parse_polynomial / format_polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
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


def _sum_lines(var: str, form: Polynomial | Sequence[float],
               names: Sequence[str]) -> list[str]:
    """Statements that set var to the value of form at the point names.

    The value is summed from 0.0 term by term: a polynomial's terms in
    graded-lex order, each its coefficient times names[j] ** e for its
    nonzero exponents in variable order (names[j] itself for e = 1); a row
    c of floats as c_j * names[j] over every column in order, zero
    coefficients included.
    """
    if isinstance(form, Polynomial):
        code = ["*".join([repr(float(c))] + [
                    names[j] if e == 1 else f"{names[j]}**{e}"
                    for j, e in enumerate(m) if e])
                for m, c in form.sorted_terms()]
    else:
        code = [f"{float(c)!r}*{x}" for c, x in zip(form, names)]
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


def euler_kernel(field: Sequence[Polynomial],
                 constraints: Sequence[Polynomial | Sequence[float]]
                 ) -> Callable[[list, list, float, int, Callable], None]:
    """One generated loop of explicit Euler steps with a projection callback.

    The returned kernel(times, states, dt, count, project) takes count
    steps of a field of n polynomials in n variables from states[-1] and
    times[-1].  A step computes f(x), z_j = x_j + dt * f_j(x) and the
    constraint values at z, summed as in float_kernel; a constraint that
    is a row c of floats is ((0.0 + c_1*z_1) + c_2*z_2) + ..., which is
    sum(map(mul, c, z)) bit for bit.  The step keeps z when every z_j and
    value is finite (a - a is 0.0 for a finite a, NaN otherwise, so the
    test itself cannot overflow) and every value is >= -FEAS_TOL;
    otherwise the next state is project(x, z, f(x), values), each a tuple
    of floats.  Either way the loop appends times[-1] + dt to times and
    the state to states and goes on from that state.  An OverflowError of
    float ** or an exception of project ends the loop, with every step
    before it appended.
    """
    n = len(field)
    xs, fs, zs = ([f"{a}{j}" for j in range(n)] for a in "xfz")
    vs = [f"v{i}" for i in range(len(constraints))]
    lines = ["def kernel(times, states, dt, count, project):",
             "    t = times[-1]", f"    {', '.join(xs)}, = states[-1]",
             "    add_time, add_state = times.append, states.append",
             "    for _ in range(count):"]
    for f, p in zip(fs, field):
        lines += ["    " + line for line in _sum_lines(f, p, xs)]
    lines += [f"        {z} = {x} + dt*{f}" for x, f, z in zip(xs, fs, zs)]
    for v, g in zip(vs, constraints):
        lines += ["    " + line for line in _sum_lines(v, g, zs)]
    finite = " + ".join(f"{a} - {a}" for a in zs + vs)
    kept = " and ".join([f"{v} >= {-FEAS_TOL!r}" for v in vs]
                        + [f"{finite} == 0.0"])
    lines += [f"        if {kept}:", f"            x = {_tuples([zs])}",
              "        else:",
              f"            x = project({_tuples([xs, zs, fs, vs])})",
              "        t += dt", "        add_time(t)", "        add_state(x)",
              f"        {', '.join(xs)}, = x"]
    return _compile(lines, [])


def newton_kernel(g: Polynomial, gradient: Sequence[Polynomial],
                  hessian: Sequence[Polynomial]) -> Callable:
    """One straight-line Newton step of the projection onto {g >= 0}.

    gradient is grad g and hessian the upper triangle of its Hessian
    (j <= k, row by row).  The returned kernel(y, z, lam, tol) evaluates
    g, a = grad g and the Hessian at y, summed as in float_kernel, and the
    residual r = (y - z) - lam a of the KKT system of min 1/2 |y - z|^2
    subject to g(y) = 0.  It returns True when |g| <= tol max|a_j| and
    max|r_j| <= tol.  Otherwise it factors H = I - lam hess g as L D L^T
    (Cholesky without square roots, unrolled), solves H u = -r and
    H w = a, and returns (y + dy, (lam + dlam,)) with
    dlam = (-g - a.u) / a.w and dy = u + dlam w, the solution of
    [[H, -a], [a^T, 0]] (dy, dlam) = -(r, g).  It returns None, and takes
    no step, when a pivot of D or a.w is not positive (or not a number).
    """
    n = g.dimension
    xs, zs, rs = ([f"{c}{j}" for j in range(n)] for c in "xzr")
    a, u, w = ([f"{c}{j}" for j in range(n)] for c in "auw")
    h = [[f"h{j}_{k}" for k in range(n)] for j in range(n)]
    lines = ["def kernel(p, q, lam, tol):", f"    {', '.join(xs)}, = p",
             f"    {', '.join(zs)}, = q"]
    lines += _sum_lines("g", g, xs)
    for name, d in zip(a, gradient):
        lines += _sum_lines(name, d, xs)
    lines += [f"    {r} = ({x} - {z}) - lam*{aj}"
              for r, x, z, aj in zip(rs, xs, zs, a)]
    biggest = (lambda names: f"max({', '.join(names)})" if n > 1
               else names[0])
    lines += [f"    if abs(g) <= tol*{biggest([f'abs({v})' for v in a])} "
              f"and {biggest([f'abs({v})' for v in rs])} <= tol:",
              "        return True"]
    upper = iter(hessian)
    for j in range(n):
        for k in range(j, n):
            lines += _sum_lines(h[j][k], next(upper), xs)
    # H = L D L^T: e_ij = l_ij d_j, d_j the pivots, l_jj = 1
    for j in range(n):
        lines.append(f"    d{j} = (1.0 - lam*{h[j][j]})"
                     + "".join(f" - l{j}_{k}*e{j}_{k}" for k in range(j)))
        lines += [f"    if not d{j} > 0.0:", "        return None"]
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
    lines += [f"    aw = {dot(a, w)}", "    if not aw > 0.0:",
              "        return None",
              f"    dlam = (-g - ({dot(a, u)}))/aw",
              "    lam = lam + dlam"]
    lines += [f"    {x} = {x} + ({uj} + dlam*{wj})"
              for x, uj, wj in zip(xs, u, w)]
    return _compile(lines, [xs, ["lam"]])


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
    """

    __slots__ = ("degrees", "_steps", "_coefs")

    def __init__(self, polys: Sequence[Polynomial]):
        dims = {p.dimension for p in polys}
        if len(dims) > 1:
            raise ValueError(
                f"dimension mismatch in monomial table: {sorted(dims)}")
        monos = {m for p in polys for m in p.terms}
        self.degrees = frozenset(map(sum, monos))
        for mono in list(monos):
            while any(mono):
                mono = _parent(mono)[0]
                if mono in monos:
                    break
                monos.add(mono)
        one = (0,) * (dims.pop() if dims else 0)
        order = sorted(monos | {one}, key=grlex_key)
        row = {mono: i for i, mono in enumerate(order)}
        self._steps = [(row[up], j) for up, j in map(_parent, order[1:])]
        self._coefs = np.zeros((len(polys), len(order)))
        for k, p in enumerate(polys):
            for mono, c in p.terms.items():
                self._coefs[k, row[mono]] = float(c)

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


def _parent(mono: Mono) -> tuple[Mono, int]:
    """The monomial with one power less of its last variable, and that
    variable."""
    j = max(i for i, e in enumerate(mono) if e)
    return mono[:j] + (mono[j] - 1,) + mono[j + 1:], j


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

_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])"
    r"|(?P<times>\*)"
    r"|(?P<power>\^)"
    r"|(?P<rational>\d+/\d+)"
    r"|(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+))")


class PolynomialParseError(InputError):
    """Raised on malformed polynomial text; carries the column offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def parse_polynomial(text: str, dimension: int) -> Polynomial:
    """Parse the canonical grammar into an exact polynomial.

    Decimal coefficients are read as exact decimal fractions, "p/q" as
    exact rationals; variables are x1..xn with 1-based indices.  A term
    whose coefficient (summed with the earlier terms of its monomial) has
    no finite float value is an error at the term's column.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError(
                f"unexpected character {text[pos:].strip()[0]!r}", pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()

    if not tokens:
        raise PolynomialParseError("empty polynomial", 1)
    if len(tokens) == 1 and tokens[0][0] == "number" and tokens[0][1] == "0":
        return Polynomial.zero(dimension)

    terms: dict[Mono, Fraction] = {}
    i = 0

    def parse_term(start: int, sign: Fraction) -> int:
        i = start
        coeff = sign
        exps = [0] * dimension
        saw_factor = False
        while i < len(tokens):
            kind, value, col = tokens[i]
            if kind == "sign":
                break
            if kind == "times":
                if not saw_factor:
                    raise PolynomialParseError("'*' without preceding factor", col)
                i += 1
                continue
            if kind == "rational":
                p, q = value.split("/")
                if int(q) == 0:
                    raise PolynomialParseError("zero denominator", col)
                coeff *= Fraction(int(p), int(q))
            elif kind == "number":
                coeff *= Fraction(value)
            elif kind == "var":
                var = int(value[1:])
                if not 1 <= var <= dimension:
                    raise PolynomialParseError(
                        f"variable {value} outside dimension {dimension}", col)
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1][0] == "power":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "number":
                        raise PolynomialParseError("'^' needs an integer exponent",
                                                   tokens[i + 1][2])
                    etext = tokens[i + 2][1]
                    if not etext.isdigit():
                        raise PolynomialParseError("exponent must be an integer",
                                                   tokens[i + 2][2])
                    e = int(etext)
                    i += 2
                exps[var - 1] += e
            else:
                raise PolynomialParseError(f"unexpected token {value!r}", col)
            saw_factor = True
            i += 1
        if not saw_factor:
            col = tokens[start][2] if start < len(tokens) else len(text)
            raise PolynomialParseError("empty term", col)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
        try:
            float(terms[mono])
        except OverflowError:
            raise PolynomialParseError("coefficient has no finite float value",
                                       tokens[start][2])
        return i

    sign = Fraction(1)
    if tokens[0][0] == "sign":
        sign = Fraction(-1) if tokens[0][1] == "-" else Fraction(1)
        i = 1
    while True:
        i = parse_term(i, sign)
        if i >= len(tokens):
            break
        kind, value, col = tokens[i]
        if kind != "sign":
            raise PolynomialParseError(f"expected '+' or '-', got {value!r}", col)
        sign = Fraction(-1) if value == "-" else Fraction(1)
        i += 1
        if i >= len(tokens):
            raise PolynomialParseError("dangling sign at end of input", col)
    return Polynomial(dimension, terms)


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
