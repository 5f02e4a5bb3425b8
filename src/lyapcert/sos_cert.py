"""Sum-of-squares Lyapunov certificates on compact semialgebraic sets.

Three families of identities over the quadratic module of the constraint
set are stacked into one feasibility problem in the coefficients of V,
the Gram matrices of the multipliers, and a free polynomial per face:

  (i)    V - EPS_PD |x|^2             = sigma_0 + sum_i sigma_i g_i
  (ii)   -<grad V, f>                 = chi_0   + sum_i chi_i g_i
  (iii)  -<grad V, grad g_j>          = chi_j0  + sum_{i != j} chi_ji g_i
                                        + phi_j g_j          (one per j)

Every multiplier except phi_j must be a sum of squares; coefficient
matching per monomial gives the linear equalities.  All three come from one
builder, _assemble_identity, for sum_m V_m lhs_m - offset = s_0 +
sum_i s_i g_i (+ phi_j g_j); the public assemble_condition_* functions only
choose lhs, offset, degree and names.

Before either tier, _reduce shrinks the program in one exact pass.  It
keeps only the certificates that are invariant under the system's sign
group: the flips x -> Sx, S = diag(+-1), that keep every g_j and under
which f(Sx) = S f(x), found exactly as a null space over GF(2)
(sign_group).  The group average of a certificate is again one with the
same shift t, so nothing is lost (Gatermann and Parrilo, JPAA 192, 2004).
Each Gram block splits into one block per parity class of its monomials,
V and phi_j keep their invariant monomials, and every row is remapped
once.  Then it drops the Gram monomials that those rows force to zero: a
row with no free term and a zero constant whose Gram terms are all
diagonal, with coefficients of one sign, makes each of those diagonals
zero at every feasible point, and with it that monomial's Gram row and
column (the constants of sigma_0 and sigma_2 on cusp_box, since V(0) = 0
and g_2(0) = 1).  That repeats in exact arithmetic until nothing more is
forced.  Every certificate of the split program has those entries at
zero, so none is lost, and the tiers solve a program that has interior:
a cheap form of facial reduction (Permenter and Parrilo, Math. Prog. 171,
2018).  Rows left as 0 = 0 and blocks left empty go, and the reduced
program is built once; an emptied block is the zero multiplier of the
certificate.  With the trivial group and nothing forced the program
stays as it is.  The extraction merges the classes of each block back
into one Gram over its basis order, with exact zeros across classes, so
certificate.txt names the multipliers of the assembly.

One float layout per reduced system (_FloatLayout: Gram entries, then free
coefficients, with every row's terms as flat (row, column, value) arrays)
serves both tiers, which return their solution as one vector over its
columns, and the extraction, which reads the Grams, V, phi and every row
residual through it.  The SDP tier shifts every Gram by a common margin t
(G - t I psd), maximizes t with a zero objective on the Grams, and
scatters the terms straight into the solver's per-block coefficient
arrays, so --dump-sdpa writes the split and pruned SDP; the DSOS tier
replaces positive semidefiniteness by diagonal dominance, which is an LP
and a strictly smaller but cheaper certificate class, and scatters the
same terms into the LP's equality rows.  A certificate is accepted only after
substituting the Grams back into the exact rows and re-deriving every
identity within tolerance; a failed recheck is a NumericalError, never a
silent acceptance.

Identity (ii) carries no decrease margin, so every certificate is flagged
"weak decrease" and strict negativity off the origin must be confirmed by
the sampling oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Sequence

import numpy as np

from . import linprog
from .errors import OUT_OF_FLOAT_RANGE, InputError, NumericalError
from .poly import (Mono, Polynomial, euler_kernel, grlex_key,
                   monomials_up_to_degree, norm_squared)
from .sdpsolve import SemidefiniteProgram, solve_sdp
from .tangency import SemialgebraicSet

logger = logging.getLogger(__name__)

EPS_PD = Fraction(1, 1000)  # V - EPS_PD |x|^2 must be in the quadratic module
ACCEPT_SHIFT = -1e-8
RESIDUAL_TOL = 1e-6
GRAM_EIG_TOL = 1e-7


@dataclass
class SemialgebraicSystem:
    """Polynomial field on a compact semialgebraic set containing 0."""

    f: list[Polynomial]
    S: SemialgebraicSet

    def __post_init__(self):
        n = self.S.dimension
        if len(self.f) != n:
            raise InputError("vector field arity must match the dimension")
        origin = (0,) * n
        for i, comp in enumerate(self.f):
            if comp.dimension != n:
                raise InputError(f"component {i + 1} has wrong dimension")
            if comp.evaluate(origin) != 0:
                raise InputError(f"component {i + 1} gives f(0) != 0")

    @property
    def dimension(self) -> int:
        return self.S.dimension

    @cached_property
    def euler_kernel(self):
        """poly.euler_kernel of f with the generators of S and their
        derivatives, so the loop slides along the boundary; built on first
        use."""
        return euler_kernel(self.f, self.S.generators, self.S.derivatives)


# -- Gram parameterization -----------------------------------------------------


@dataclass
class GramBlock:
    """Symbolic Gram over a monomial basis: the polynomial is basis' G basis."""

    name: str
    basis: list[Mono]
    pairs_by_monomial: dict[Mono, list[tuple[int, int]]] = field(
        init=False, default_factory=dict)

    def __post_init__(self):
        for i in range(len(self.basis)):
            for j in range(i, len(self.basis)):
                mono = tuple(map(add, self.basis[i], self.basis[j]))
                self.pairs_by_monomial.setdefault(mono, []).append((i, j))

    @property
    def size(self) -> int:
        return len(self.basis)

    def expand(self, G: np.ndarray) -> Polynomial:
        """The concrete polynomial for a numeric Gram matrix.  Each
        coefficient sum w G_ij (w = 2 off the diagonal) is exact: the
        entries' numerators are summed as integers over the largest of
        their power-of-two denominators, then made one Fraction."""
        n = len(self.basis[0])
        rows = np.asarray(G, dtype=float).tolist()
        terms: dict[Mono, Fraction] = {}
        for mono, pairs in self.pairs_by_monomial.items():
            ratios = [(1 if i == j else 2, *rows[i][j].as_integer_ratio())
                      for i, j in pairs]
            den = max(d for _, _, d in ratios)
            num = sum(w * p * (den // d) for w, p, d in ratios)
            if num:
                terms[mono] = Fraction(num, den)
        return Polynomial(n, terms)


# -- equality systems -----------------------------------------------------------


@dataclass
class LinearExpr:
    """Affine expression in Gram entries and free coefficients (== 0 rows)."""

    gram: dict[tuple[str, int, int], Fraction] = field(default_factory=dict)
    free: dict[tuple[str, Mono], Fraction] = field(default_factory=dict)
    constant: Fraction = Fraction(0)

    def add_gram(self, block: str, i: int, j: int, coeff: Fraction) -> None:
        key = (block, i, j)
        acc = self.gram.get(key)
        self.gram[key] = coeff if acc is None else acc + coeff

    def add_free(self, group: str, mono: Mono, coeff: Fraction) -> None:
        key = (group, mono)
        acc = self.free.get(key)
        self.free[key] = coeff if acc is None else acc + coeff


@dataclass
class EqualitySystem:
    """Coefficient-matching rows stacked over named Grams and free groups."""

    blocks: dict[str, GramBlock] = field(default_factory=dict)
    free_groups: dict[str, list[Mono]] = field(default_factory=dict)
    rows: list[tuple[str, LinearExpr]] = field(default_factory=list)

    def merge(self, other: "EqualitySystem") -> None:
        """Stack other's rows under these.  The identities name their blocks
        apart and share the free group V over one basis, so nothing clashes."""
        self.blocks.update(other.blocks)
        self.free_groups.update(other.free_groups)
        self.rows.extend(other.rows)


def _even_up(value: int) -> int:
    value = max(value, 0)
    return value if value % 2 == 0 else value + 1


def _v_basis(dimension: int, deg_v: int) -> list[Mono]:
    # no constant term, which pins V(0) = 0
    return monomials_up_to_degree(dimension, deg_v, include_constant=False)


def _grad_dot(mono: Mono, vec: Sequence[Polynomial]) -> Polynomial:
    """<grad x^mono, vec> as an exact polynomial."""
    grad = Polynomial.monomial(mono).gradient()
    return sum((d * v for d, v in zip(grad, vec)), Polynomial.zero(len(mono)))


def _shifted(monos, g: Polynomial) -> set[Mono]:
    """Support of (sum of the monomials) * g."""
    return {tuple(map(add, m, nu)) for m in monos for nu in g.terms}


def _assemble_identity(system: SemialgebraicSystem, label: str, prefix: str,
                       lhs_per_v: dict[Mono, Polynomial], offset: Polynomial,
                       lhs_deg: int, slack: int, face: int | None = None
                       ) -> EqualitySystem:
    """Rows for sum_m V_m lhs_m - offset = s_0 + sum_i s_i g_i (+ phi_j g_j).

    lhs_per_v maps each monomial of V's basis to the polynomial its
    coefficient multiplies.  The SOS multipliers are named prefix_0 and
    prefix_i; when face = j (1-based), g_j gets the free polynomial phi_j
    instead.  One row per monomial of the support, labelled label:mono.
    """
    n = system.dimension
    eq = EqualitySystem()
    eq.free_groups["V"] = list(lhs_per_v)
    # per multiplier: its block, g, and each term nu of g with -g_nu (the
    # coefficient of a diagonal Gram entry) and -2 g_nu (off-diagonal)
    products = []
    for i, g in enumerate([Polynomial.constant(n, 1), *system.S.generators]):
        if i != face:
            deg = _even_up(lhs_deg - g.degree() + slack)
            block = GramBlock(f"{prefix}_{i}",
                              monomials_up_to_degree(n, deg // 2))
            eq.blocks[block.name] = block
            products.append((block, g, [(nu, -c, -2 * c)
                                        for nu, c in g.terms.items()]))
    support = set(offset.terms)
    for p in lhs_per_v.values():
        support.update(p.terms)
    for block, g, _ in products:
        support |= _shifted(block.pairs_by_monomial, g)
    if face is not None:
        gj = system.S.generators[face - 1]
        phi_name = f"phi_{face}"
        phi_basis = monomials_up_to_degree(
            n, max(lhs_deg - gj.degree(), 0) + slack)
        eq.free_groups[phi_name] = phi_basis
        support |= _shifted(phi_basis, gj)
        phi_set = set(phi_basis)
        phi_terms = [(nu, -c) for nu, c in gj.terms.items()]

    lhs_at: dict[Mono, list[tuple[Mono, Fraction]]] = {}
    for vmono, p in lhs_per_v.items():
        for mono, c in p.terms.items():
            lhs_at.setdefault(mono, []).append((vmono, c))
    for mono in sorted(support, key=grlex_key):
        expr = LinearExpr()
        for vmono, c in lhs_at.get(mono, ()):
            expr.add_free("V", vmono, c)
        if mono in offset.terms:
            expr.constant = -offset.terms[mono]
        # mono = diff + nu; a diff with a negative exponent matches nothing
        for block, _, gterms in products:
            for nu, diag, off in gterms:
                diff = tuple(map(sub, mono, nu))
                for i, j in block.pairs_by_monomial.get(diff, ()):
                    expr.add_gram(block.name, i, j, diag if i == j else off)
        if face is not None:
            for nu, neg in phi_terms:
                diff = tuple(map(sub, mono, nu))
                if diff in phi_set:
                    expr.add_free(phi_name, diff, neg)
        eq.rows.append((f"{label}:{mono}", expr))
    return eq


def assemble_condition_i(system: SemialgebraicSystem, deg_v: int,
                         slack: int = 0) -> EqualitySystem:
    """Rows for V - EPS_PD |x|^2 = sigma_0 + sum sigma_i g_i."""
    for i, g in enumerate(system.S.generators):
        if g.degree() > deg_v:
            raise InputError(
                f"deg g_{i + 1} = {g.degree()} exceeds deg V = {deg_v}")
    n = system.dimension
    lhs = {m: Polynomial.monomial(m) for m in _v_basis(n, deg_v)}
    return _assemble_identity(system, "positivity", "sigma", lhs,
                              norm_squared(n).scale(EPS_PD),
                              deg_v, slack)


def assemble_condition_ii(system: SemialgebraicSystem, deg_v: int,
                          slack: int = 0) -> EqualitySystem:
    """Rows for -<grad V, f> = chi_0 + sum chi_i g_i."""
    n = system.dimension
    lhs = {m: -_grad_dot(m, system.f) for m in _v_basis(n, deg_v)}
    deg_f = max(c.degree() for c in system.f)
    return _assemble_identity(system, "decrease", "chi", lhs,
                              Polynomial.zero(n), deg_v - 1 + deg_f, slack)


def assemble_condition_iii(system: SemialgebraicSystem, deg_v: int, j: int,
                           slack: int = 0) -> EqualitySystem:
    """Rows for -<grad V, grad g_j> = chi_j0 + sum_{i!=j} chi_ji g_i + phi_j g_j.

    j is 1-based.  phi_j is a free polynomial (it multiplies the locally
    vanishing generator, so its sign is immaterial on the face).
    """
    gens = system.S.generators
    if not 1 <= j <= len(gens):
        raise InputError(f"face index {j} out of range")
    n = system.dimension
    grad_gj = system.S.gradients[j - 1]
    lhs = {m: -_grad_dot(m, grad_gj) for m in _v_basis(n, deg_v)}
    return _assemble_identity(system, f"face{j}", f"chi_{j}", lhs,
                              Polynomial.zero(n),
                              deg_v - 1 + max(gens[j - 1].degree() - 1, 0),
                              slack, face=j)


# -- certificate container ------------------------------------------------------


@dataclass
class MultiplierRecord:
    name: str
    basis: list[Mono]
    gram: np.ndarray
    min_eigenvalue: float
    polynomial: Polynomial


@dataclass
class SosCertificate:
    V: Polynomial
    tier: str                                   # "dsos" | "sdp"
    margin: float                               # optimal common shift t
    multipliers: dict[str, MultiplierRecord]
    phi: dict[str, Polynomial]
    residuals: dict[str, float]                 # per condition label
    flags: list[str] = field(default_factory=list)


@dataclass
class SosOutcome:
    status: str            # "certificate" | "infeasible" | "stalled"
    certificate: SosCertificate | None = None
    margin: float | None = None
    detail: str = ""


# -- solving --------------------------------------------------------------------


def _assemble_full(system: SemialgebraicSystem, deg_v: int, slack: int
                   ) -> EqualitySystem:
    if deg_v < 2 or deg_v % 2 != 0:
        raise InputError("deg V must be even and >= 2")
    full = assemble_condition_i(system, deg_v, slack)
    full.merge(assemble_condition_ii(system, deg_v, slack))
    for j in range(1, len(system.S.generators) + 1):
        full.merge(assemble_condition_iii(system, deg_v, j, slack))
    return full


def _parity(mono: Mono) -> int:
    """The bit mask of the odd exponents of mono."""
    return sum(1 << k for k, e in enumerate(mono) if e % 2)


def sign_group(system: SemialgebraicSystem) -> list[int]:
    """A basis of the sign flips x -> Sx, S = diag((-1)^b_k), under which
    every g_j is invariant and f is equivariant: g(Sx) = g(x), f(Sx) = S f(x).

    b is a bit mask over the variables.  A term x^a of a g_j asks
    a.b = 0 and a term of f_i asks a.b = b_i (mod 2); the group is the null
    space of these conditions over GF(2), found by Gaussian elimination on
    bit masks.  The basis is in the order of the free variables; an empty
    list is the trivial group.
    """
    conditions = [_parity(a) for g in system.S.generators for a in g.terms]
    conditions += [_parity(a) ^ (1 << i) for i, comp in enumerate(system.f)
                   for a in comp.terms]
    pivots: dict[int, int] = {}     # pivot bit -> row, reduced on every pivot
    for row in conditions:
        for bit, other in pivots.items():
            if row >> bit & 1:
                row ^= other
        if row:
            bit = row.bit_length() - 1
            for b, other in pivots.items():
                if other >> bit & 1:
                    pivots[b] = other ^ row
            pivots[bit] = row
    return [(1 << k) | sum(1 << p for p, row in pivots.items() if row >> k & 1)
            for k in range(system.dimension) if k not in pivots]


def _reduce(eq: EqualitySystem, group: list[int]) -> EqualitySystem:
    """eq restricted to certificates invariant under the sign group, less
    the Gram monomials that its rows then force to zero.

    A monomial's character is its parity against each flip of group.  Each
    Gram block becomes one block per character class of its basis, named
    block#k in the order the classes first appear (a block of one class
    keeps its name); only the Gram terms inside a class and the invariant
    monomials of V and phi_j stay.  The group average of a certificate is a
    certificate with the same shift t: g(Sx) = g(x), f(Sx) = S f(x) and
    grad g(x) = S grad g(Sx) keep each identity, and a sign conjugation
    keeps G - tI psd (or diagonally dominant).  An invariant Gram is zero
    across classes, so nothing is lost.

    Then a row with no free term, a zero constant and only diagonal Gram
    terms, their coefficients of one sign, sums nonnegative diagonals to
    zero, so each of them is zero at every feasible point; a PSD (or
    diagonally dominant) Gram with G_kk = 0 has row and column k zero, so
    monomial k leaves its block and every term on it leaves its rows.  That
    repeats in exact arithmetic until no row forces another monomial.
    Rows left as 0 = 0 and blocks left empty go.  With the trivial group
    and nothing forced, the program is eq's.
    """
    def character(mono: Mono) -> tuple[int, ...]:
        odd = _parity(mono)
        return tuple((odd & b).bit_count() & 1 for b in group)

    def remap(gram, where):
        """The Gram terms whose two indices where maps into one part."""
        out = {}
        for (b, i, j), c in gram.items():
            at_i, at_j = where.get((b, i)), where.get((b, j))
            if at_i and at_j and at_i[0] == at_j[0]:
                out[at_i[0], at_i[1], at_j[1]] = c
        return out

    parts: dict[str, list[Mono]] = {}
    where: dict[tuple[str, int], tuple[str, int]] = {}  # block, k -> part, k'
    for name, block in eq.blocks.items():
        classes: dict[tuple[int, ...], list[int]] = {}
        for k, mono in enumerate(block.basis):
            classes.setdefault(character(mono), []).append(k)
        for c, members in enumerate(classes.values()):
            part = name if len(classes) == 1 else f"{name}#{c}"
            parts[part] = [block.basis[k] for k in members]
            where.update(((name, k), (part, new))
                         for new, k in enumerate(members))
    reduced = EqualitySystem(free_groups={
        name: [m for m in basis if not any(character(m))]
        for name, basis in eq.free_groups.items()})
    kept = {(name, mono) for name, basis in reduced.free_groups.items()
            for mono in basis}
    rows = []
    for label, expr in eq.rows:
        gram = remap(expr.gram, where)
        free = {key: c for key, c in expr.free.items() if key in kept}
        if any(gram.values()) or any(free.values()) or expr.constant:
            rows.append((label, gram, free, expr.constant))

    dropped: set[tuple[str, int]] = set()     # (part, k) forced to zero
    candidates = [list(gram.items()) for _, gram, free, constant in rows
                  if not constant and not any(free.values())]
    while True:
        forced = set()
        for terms in candidates:
            live = [(b, i, j, c) for (b, i, j), c in terms
                    if c and (b, i) not in dropped and (b, j) not in dropped]
            if live and all(i == j for _, i, j, _ in live) and \
                    len({c > 0 for *_, c in live}) == 1:
                forced.update((b, i) for b, i, _, _ in live)
        if not forced:
            break
        dropped |= forced

    where = {}
    for part, basis in parts.items():
        keep = [k for k in range(len(basis)) if (part, k) not in dropped]
        where.update(((part, k), (part, new)) for new, k in enumerate(keep))
        if keep:
            reduced.blocks[part] = GramBlock(part, [basis[k] for k in keep])
    for label, gram, free, constant in rows:
        gram = remap(gram, where)
        if any(gram.values()) or any(free.values()) or constant:
            reduced.rows.append((label, LinearExpr(gram, free, constant)))
    return reduced


class _FloatLayout:
    """The float rows of an EqualitySystem over one column map.

    Columns are the Gram entries (block, i, j) with i <= j, block by block
    in sorted name order, then the free coefficients group by group in
    sorted name order.  entry_block, entry_i and entry_j give each Gram
    column's block index and position.  row, col and val hold every term
    of every row as flat arrays, row by row and, within a row, in the
    order the terms were entered, Gram terms first; rhs[k] is row k's
    -constant.  No (row, column) pair occurs twice.  A solution is one
    vector over these columns.
    """

    def __init__(self, eq: EqualitySystem):
        self.blocks = sorted(eq.blocks)
        self.sizes = [eq.blocks[name].size for name in self.blocks]
        entries = [(b, i, j) for b, s in enumerate(self.sizes)
                   for i in range(s) for j in range(i, s)]
        self.entry_block, self.entry_i, self.entry_j = \
            np.array(entries, dtype=np.intp).reshape(-1, 3).T
        self.free = [(group, mono) for group in sorted(eq.free_groups)
                     for mono in eq.free_groups[group]]
        column = {key: c for c, key in enumerate(
            [(self.blocks[b], i, j) for b, i, j in entries] + self.free)}
        try:
            terms = np.array([(k, column[key], float(coeff))
                              for k, (_, expr) in enumerate(eq.rows)
                              for key, coeff in (*expr.gram.items(),
                                                 *expr.free.items())],
                             dtype=float).reshape(-1, 3)
            self.rhs = np.array([-float(expr.constant)
                                 for _, expr in eq.rows])
        except OverflowError:
            raise NumericalError(f"SOS rows: {OUT_OF_FLOAT_RANGE}") from None
        self.row, self.col = terms[:, :2].astype(np.intp).T
        self.val = terms[:, 2]

    @property
    def num_entries(self) -> int:
        return len(self.entry_block)


def _solve_sdp_tier(layout: _FloatLayout, on_sdp=None
                    ) -> tuple[str, np.ndarray | None, float]:
    """Max t with every Gram shifted: blocks are Y = G - t I >= 0.

    G_ii = Y_ii + t puts each row's sum of diagonal coefficients on t, an
    off-diagonal coefficient c of G_ij is c/2 at (i, j) and (j, i) of the
    row's matrix, and a last row caps t + s = 1 with s an extra 1 x 1
    block.  The objective is -t alone, zero on every block: the layout is
    of the pruned system, whose Grams need no trace term to keep the
    iterates bounded.  on_sdp, if given, sees the SDP before the solve
    (--dump-sdpa).  Returns the status ("solved", "infeasible" or
    "stalled"), the solution over the layout's columns and t*, or None and
    nan unsolved.
    """
    ne, nt = layout.num_entries, len(layout.free)   # nt: t's free index
    m = len(layout.rhs) + 1
    gram = layout.col < ne
    row, col, val = layout.row[gram], layout.col[gram], layout.val[gram]
    block = layout.entry_block[col]
    i, j = layout.entry_i[col], layout.entry_j[col]
    diag = i == j
    half = np.where(diag, val, val / 2.0)
    A = [np.zeros((m, s, s)) for s in layout.sizes + [1]]
    for bi, Ab in enumerate(A[:-1]):
        mine = block == bi
        Ab[row[mine], i[mine], j[mine]] = half[mine]
        Ab[row[mine], j[mine], i[mine]] = half[mine]
    A[-1][-1] = 1.0
    D = np.zeros((m, nt + 1))
    D[layout.row[~gram], layout.col[~gram] - ne] = layout.val[~gram]
    D[:-1, nt] = np.bincount(row[diag], weights=val[diag], minlength=m - 1)
    D[-1, nt] = 1.0

    free_objective = np.zeros(nt + 1)
    free_objective[nt] = -1.0  # maximize t
    sdp = SemidefiniteProgram(A=A, D=D, b=np.append(layout.rhs, 1.0),
                              objective_blocks=[np.zeros((s, s))
                                                for s in layout.sizes + [1]],
                              free_objective=free_objective)
    if on_sdp is not None:
        on_sdp(sdp)
    result = solve_sdp(sdp)
    if result.status != "solution":
        return ("infeasible" if result.status == "infeasible" else "stalled",
                None, float("nan"))
    t_star = float(result.free[nt])
    entries = [(Y + t_star * np.eye(s))[np.triu_indices(s)]
               for Y, s in zip(result.blocks, layout.sizes)]
    return "solved", np.concatenate([*entries, result.free[:nt]]), t_star


def _solve_dsos_tier(layout: _FloatLayout
                     ) -> tuple[str, np.ndarray | None, float]:
    """Diagonal-dominance relaxation: one LP over Gram entries.

    Columns: the layout's Gram entries, u_ij >= |G_ij| per off-diagonal
    entry, the layout's free coefficients, then t.  Rows: the layout's
    equalities; per Gram diagonal G_kk - t - sum_j u_kj >= 0; per
    off-diagonal entry G_ij - u_ij <= 0 and -G_ij - u_ij <= 0.  Returns
    what _solve_sdp_tier returns.
    """
    ne = layout.num_entries
    block, i, j = layout.entry_block, layout.entry_i, layout.entry_j
    diag = np.flatnonzero(i == j)
    off = np.flatnonzero(i != j)
    u = ne + np.arange(len(off))            # the column of u for each off
    free_offset = ne + len(off)
    t_col = free_offset + len(layout.free)
    n_eq, n_dd = len(layout.rhs), len(diag)
    # dd[e] + k is the dominance row of G_kk in the block of entry e
    dd = n_eq + np.cumsum([0] + layout.sizes)[block]
    r0 = n_eq + n_dd + 2 * np.arange(len(off))

    A = np.zeros((n_eq + n_dd + 2 * len(off), t_col + 1))
    A[layout.row, np.where(layout.col < ne, layout.col,
                           layout.col - ne + free_offset)] = layout.val
    A[dd[diag] + i[diag], diag] = 1.0
    A[n_eq:n_eq + n_dd, t_col] = -1.0
    A[dd[off] + i[off], u] = -1.0
    A[dd[off] + j[off], u] = -1.0
    A[r0, off] = 1.0
    A[r0 + 1, off] = -1.0
    A[r0, u] = A[r0 + 1, u] = -1.0

    objective = np.zeros(t_col + 1)
    objective[t_col] = 1.0
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * (t_col + 1)
    for ui in u:
        bounds[ui] = (0.0, None)
    bounds[t_col] = (None, 1.0)
    lp = linprog.LinearProgram(
        objective=objective, A=A,
        relations=[linprog.EQ] * n_eq + [linprog.GE] * n_dd
        + [linprog.LE] * (2 * len(off)),
        b=np.concatenate([layout.rhs, np.zeros(n_dd + 2 * len(off))]),
        bounds=bounds, maximize=True)
    result = linprog.solve(lp)
    if result.status != "optimal":
        # "unbounded" cannot happen with the t cap; it counts as a stall
        return ("infeasible" if result.status == "infeasible" else "stalled",
                None, float("nan"))
    x = result.x
    return ("solved", np.concatenate([x[:ne], x[free_offset:t_col]]),
            float(x[t_col]))


# the solver's own word for a stalled tier, kept in the outcome's detail
_STALL_WORD = {"sdp": "maxiter", "dsos": "stalled"}


def _extract_certificate(eq: EqualitySystem, reduced: EqualitySystem,
                         layout: _FloatLayout, x: np.ndarray, t_star: float,
                         tier: str, dimension: int) -> SosCertificate:
    """The certificate of the solution x of the reduced (split and pruned)
    system.

    Every residual is a row of reduced; the rows that the split and
    pruning dropped are 0 = 0 at the solution.  The blocks that one block
    of eq was split into merge back into one Gram over its basis order,
    with exact zeros across classes.  A block of eq that pruning emptied is
    the zero multiplier: an empty basis and Gram, whose smallest eigenvalue
    is inf.
    """
    # each row's constant, then its terms in entry order: bincount adds a
    # bin's weights in input order
    n_rows = len(layout.rhs)
    sums = np.bincount(np.concatenate([np.arange(n_rows), layout.row]),
                       weights=np.concatenate([-layout.rhs,
                                               layout.val * x[layout.col]]),
                       minlength=n_rows)
    residual_by_condition: dict[str, float] = {}
    for (label, _), r in zip(reduced.rows, np.abs(sums).tolist()):
        condition = label.split(":", 1)[0]
        residual_by_condition[condition] = max(
            residual_by_condition.get(condition, 0.0), r)
    worst = max(residual_by_condition.values(), default=0.0)
    if worst > RESIDUAL_TOL:
        raise NumericalError(
            f"substitution residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")

    parts: dict[str, list[tuple[list[Mono], np.ndarray]]] = {}
    start = 0
    for name, s in zip(layout.blocks, layout.sizes):
        upper = np.triu_indices(s)
        G = np.zeros((s, s))
        G[upper] = G[upper[::-1]] = x[start:start + len(upper[0])]
        start += len(upper[0])
        parts.setdefault(name.partition("#")[0], []).append(
            (reduced.blocks[name].basis, G))
    multipliers: dict[str, MultiplierRecord] = {}
    for name, block in eq.blocks.items():
        if name not in parts:
            multipliers[name] = MultiplierRecord(
                name=name, basis=[], gram=np.zeros((0, 0)),
                min_eigenvalue=float("inf"),
                polynomial=Polynomial.zero(dimension))
            continue
        eig = min(float(np.linalg.eigvalsh(G).min()) for _, G in parts[name])
        if eig < -GRAM_EIG_TOL:
            raise NumericalError(
                f"gram {name} has eigenvalue {eig:.3e} below -{GRAM_EIG_TOL:.1e}")
        kept = {mono for part, _ in parts[name] for mono in part}
        basis = [mono for mono in block.basis if mono in kept]
        at = {mono: k for k, mono in enumerate(basis)}
        G = np.zeros((len(basis), len(basis)))
        for part, Gp in parts[name]:
            index = [at[mono] for mono in part]
            G[np.ix_(index, index)] = Gp
        multipliers[name] = MultiplierRecord(
            name=name, basis=basis, gram=G, min_eigenvalue=eig,
            polynomial=GramBlock(name, basis).expand(G))

    free_terms: dict[str, dict[Mono, Fraction]] = {}
    for (group, mono), value in zip(layout.free,
                                    x[layout.num_entries:].tolist()):
        terms = free_terms.setdefault(group, {})
        if value != 0.0:
            terms[mono] = Fraction(value)
    V = Polynomial(dimension, free_terms["V"])
    phi = {group: Polynomial(dimension, terms)
           for group, terms in free_terms.items() if group.startswith("phi_")}
    flags = ["decrease decomposition imposed on all of the set, not only "
             "where no constraint is active",
             "weak decrease: zero margin used; strict decrease off "
             "the origin must be confirmed by sampling"]
    return SosCertificate(
        V=V, tier=tier, margin=t_star, multipliers=multipliers, phi=phi,
        residuals=residual_by_condition, flags=flags)


def solve_certificate(system: SemialgebraicSystem, deg_v: int,
                      tier: str = "sdp", sdpa_dump=None) -> SosOutcome:
    """Search one degree level, retrying once with +2 multiplier slack.

    Returns a certificate only when the optimal common shift clears
    -1e-8 and the substitution recheck passes; "infeasible" reports the
    best margin found at this degree.
    """
    if tier not in ("sdp", "dsos"):
        raise InputError(f"unknown tier {tier!r}")
    best_margin = None
    for slack in (0, 2):
        eq = _assemble_full(system, deg_v, slack)
        reduced = _reduce(eq, sign_group(system))
        layout = _FloatLayout(reduced)
        if tier == "sdp":
            on_sdp = None
            if sdpa_dump is not None:
                on_sdp = lambda sdp, s=slack: sdpa_dump(sdp, deg_v, s)
            status, x, t_star = _solve_sdp_tier(layout, on_sdp=on_sdp)
        else:
            status, x, t_star = _solve_dsos_tier(layout)
        logger.info("deg %d tier %s slack %d: status %s margin %s",
                    deg_v, tier, slack, status,
                    f"{t_star:.3e}" if t_star == t_star else "n/a")
        if status == "stalled":
            return SosOutcome("stalled", margin=best_margin,
                              detail=f"solver returned {_STALL_WORD[tier]}")
        if status == "solved":
            if t_star >= ACCEPT_SHIFT:
                cert = _extract_certificate(eq, reduced, layout, x, t_star,
                                            tier, system.dimension)
                return SosOutcome("certificate", cert, margin=t_star)
            best_margin = t_star if best_margin is None else max(best_margin,
                                                                 t_star)
    detail = ("no feasible shift above the acceptance threshold"
              if best_margin is not None else "equality system infeasible")
    return SosOutcome("infeasible", margin=best_margin, detail=detail)
