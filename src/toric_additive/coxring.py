"""Exact Cox-coordinate algebra: polynomials, derivations, group actions.

All arithmetic is over Q via fractions.Fraction; nothing here touches
floating point.  The central objects are the locally nilpotent derivations
attached to Demazure roots and the polynomial automorphisms obtained by
exponentiating commuting pairs of them.

A polynomial ring for a fan with m rays carries generators
x1, ..., xm, s1, s2, r1, r2: the x's are Cox coordinates, s1/s2 are the
additive group parameters and r1/r2 are a second copy used when composing
two actions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import (
    InternalInconsistency,
    NegativeExponent,
    NotApplicable,
    NotCommuting,
    NotHomogeneous,
    NotLocallyNilpotent,
    VariableMismatch,
    ZeroTorusEntry,
)
from .lattice import CharVec, LatticeVec, fraction_solve, pairing, vneg


@dataclass(frozen=True)
class PolyRing:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise VariableMismatch("duplicate generator names")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VariableMismatch(f"unknown generator {name!r}") from None


def action_ring(m: int) -> PolyRing:
    """Ring for m Cox coordinates plus two pairs of group parameters."""
    names = tuple(f"x{i}" for i in range(1, m + 1)) + ("s1", "s2", "r1", "r2")
    return PolyRing(names)


class Poly:
    """Multivariate polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing,
                 terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        self.ring = ring
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != ring.nvars:
                    raise VariableMismatch(
                        "exponent tuple length does not match the ring")
                if any(e < 0 for e in exps):
                    raise NegativeExponent(f"negative exponent in {exps}")
                clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, ring: PolyRing) -> "Poly":
        return cls(ring)

    @classmethod
    def const(cls, ring: PolyRing, c) -> "Poly":
        return cls(ring, {(0,) * ring.nvars: Fraction(c)})

    @classmethod
    def var(cls, ring: PolyRing, i: int) -> "Poly":
        exps = [0] * ring.nvars
        exps[i] = 1
        return cls(ring, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Sequence[int], c=1) -> "Poly":
        return cls(ring, {tuple(exps): Fraction(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise VariableMismatch("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, Fraction(0)) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = terms
        return out

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = Poly.__new__(Poly)
            out.ring = self.ring
            out.terms = {} if not c else {e: k * c for e, k in self.terms.items()}
            return out
        self._check_ring(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e, Fraction(0)) + c1 * c2
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise NegativeExponent("polynomial powers must be nonnegative")
        out = Poly.const(self.ring, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def diff(self, i: int) -> "Poly":
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        out = Poly.__new__(Poly)
        out.ring = self.ring
        out.terms = terms
        return out

    def subs(self, mapping: Mapping[int, "Poly"]) -> "Poly":
        """Simultaneous substitution of generators by polynomials."""
        for img in mapping.values():
            self._check_ring(img)
        result = Poly.zero(self.ring)
        for e, c in self.terms.items():
            rest = tuple(0 if i in mapping else k for i, k in enumerate(e))
            factor = Poly.monomial(self.ring, rest, c)
            for i, img in mapping.items():
                if e[i]:
                    factor = factor * img ** e[i]
            result = result + factor
        return result

    def eval(self, values: Sequence) -> Fraction:
        if len(values) != self.ring.nvars:
            raise VariableMismatch("need one value per generator")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = c
            for v, k in zip(vals, e):
                if k:
                    prod *= v ** k
            total += prod
        return total

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


def poly_str(p: Poly) -> str:
    """Canonical rendering: terms by ascending total degree, then exponents."""
    if not p.terms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), e)):
        c = p.terms[exps]
        mono = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(p.ring.names, exps) if k)
        mag = -c if c < 0 else c
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[-+*^()/]))")


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.toks: list[tuple[str, object]] = []
        i = 0
        while i < len(text):
            m = _TOKEN.match(text, i)
            if not m:
                if text[i:].strip():
                    raise VariableMismatch(f"cannot tokenize {text[i:]!r}")
                break
            i = m.end()
            if m.group("name"):
                self.toks.append(("name", m.group("name")))
            elif m.group("int"):
                self.toks.append(("int", int(m.group("int"))))
            else:
                self.toks.append(("op", m.group("op")))
        self.pos = 0

    def peek_op(self, *ops: str) -> str | None:
        if self.pos < len(self.toks):
            kind, val = self.toks[self.pos]
            if kind == "op" and val in ops:
                return str(val)
        return None

    def take(self) -> tuple[str, object]:
        if self.pos >= len(self.toks):
            raise VariableMismatch("unexpected end of polynomial text")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        negate = False
        if self.peek_op("-"):
            self.take()
            negate = True
        elif self.peek_op("+"):
            self.take()
        acc = self.term()
        if negate:
            acc = -acc
        while (op := self.peek_op("+", "-")) is not None:
            self.take()
            t = self.term()
            acc = acc + (-t if op == "-" else t)
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek_op("*"):
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek_op("^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise VariableMismatch("exponent must be an integer literal")
            return base ** int(val)  # type: ignore[arg-type]
        return base

    def atom(self) -> Poly:
        if self.peek_op("-"):
            self.take()
            return -self.factor()
        if self.peek_op("("):
            self.take()
            inner = self.expr()
            if not self.peek_op(")"):
                raise VariableMismatch("unbalanced parentheses")
            self.take()
            return inner
        kind, val = self.take()
        if kind == "name":
            return Poly.var(self.ring, self.ring.index(str(val)))
        if kind == "int":
            num = int(val)  # type: ignore[arg-type]
            if self.peek_op("/"):
                self.take()
                kind2, val2 = self.take()
                if kind2 != "int":
                    raise VariableMismatch("fraction needs integer denominator")
                return Poly.const(self.ring, Fraction(num, int(val2)))  # type: ignore[arg-type]
            return Poly.const(self.ring, num)
        raise VariableMismatch(f"unexpected token {val!r}")


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Inverse of poly_str for the formats this package emits."""
    parser = _Parser(ring, text)
    p = parser.expr()
    if parser.pos != len(parser.toks):
        raise VariableMismatch("trailing tokens in polynomial text")
    return p


@dataclass(frozen=True)
class Derivation:
    """Derivation of the polynomial ring, stored by its generator images.

    ``char`` optionally records the lattice character of a homogeneous
    derivation coming from a Demazure root; arithmetic drops it unless the
    result provably keeps a single character.
    """

    ring: PolyRing
    entries: tuple[Poly, ...]
    char: CharVec | None = None

    def __post_init__(self) -> None:
        if len(self.entries) != self.ring.nvars:
            raise VariableMismatch("need one entry per generator")
        for p in self.entries:
            if p.ring != self.ring:
                raise VariableMismatch("entry outside the derivation's ring")

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.entries)

    def apply(self, p: Poly) -> Poly:
        if p.ring != self.ring:
            raise VariableMismatch("argument outside the derivation's ring")
        out = Poly.zero(self.ring)
        for i, entry in enumerate(self.entries):
            if not entry.is_zero:
                out = out + entry * p.diff(i)
        return out

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.ring != other.ring:
            raise VariableMismatch("derivations live in different rings")
        char = self.char if self.char == other.char else None
        return Derivation(self.ring,
                          tuple(a + b for a, b in zip(self.entries, other.entries)),
                          char=char)

    def __neg__(self) -> "Derivation":
        return Derivation(self.ring, tuple(-p for p in self.entries), self.char)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, c: int | Fraction) -> "Derivation":
        return Derivation(self.ring, tuple(p * c for p in self.entries),
                          char=self.char)


def zero_derivation(ring: PolyRing) -> Derivation:
    return Derivation(ring, tuple(Poly.zero(ring) for _ in range(ring.nvars)))


def derivation(ring: PolyRing, images: Mapping[int, Poly],
               char: CharVec | None = None) -> Derivation:
    entries = [Poly.zero(ring) for _ in range(ring.nvars)]
    for i, p in images.items():
        entries[i] = p
    return Derivation(ring, tuple(entries), char=char)


def derivation_str(D: Derivation) -> str:
    bits = []
    for name, entry in zip(D.ring.names, D.entries):
        if not entry.is_zero:
            bits.append(f"({poly_str(entry)}) d/d{name}")
    return " + ".join(bits) if bits else "0"


def commutator(a: Derivation, b: Derivation) -> Derivation:
    if a.ring != b.ring:
        raise VariableMismatch("derivations live in different rings")
    # a.apply(x_i) is a.entries[i], so [a, b](x_i) needs no apply on x_i
    entries = [a.apply(bi) - b.apply(ai)
               for ai, bi in zip(a.entries, b.entries)]
    char = None
    if a.char is not None and b.char is not None and any(
            not p.is_zero for p in entries):
        char = tuple(u + v for u, v in zip(a.char, b.char))
    return Derivation(a.ring, tuple(entries), char=char)


_MAX_STEPS = 64


def _exp_series(x, op, what: Callable[[], str]):
    """x + op(x) + op(op(x))/2! + ..., summed up to the first zero term.

    ``op(t, c)`` returns c * op(t) for a Poly or Derivation t.  A series
    with no zero term within _MAX_STEPS raises NotLocallyNilpotent, whose
    message starts with ``what()``.
    """
    acc = cur = x
    for step in range(1, _MAX_STEPS + 1):
        cur = op(cur, Fraction(1, step))
        if cur.is_zero:
            return acc
        acc = acc + cur
    raise NotLocallyNilpotent(
        f"{what()} did not terminate within {_MAX_STEPS} steps")


def exp_ad(z: Derivation, d: Derivation) -> Derivation:
    """exp(ad z) applied to d: d + [z,d] + [z,[z,d]]/2 + ..."""
    return _exp_series(d, lambda t, c: commutator(z, t).scale(c),
                       lambda: f"iterated bracket with {derivation_str(z)}")


@dataclass(frozen=True)
class ActionMap:
    """Polynomial map x_i -> image(x, parameters) describing a group action."""

    ring: PolyRing
    images: tuple[Poly, ...]
    params: tuple[str, ...] = ("s1", "s2")

    @property
    def ncoords(self) -> int:
        return len(self.images)

    def image_strings(self) -> tuple[str, ...]:
        return tuple(f"{self.ring.names[i]} <- {poly_str(p)}"
                     for i, p in enumerate(self.images))

    def at_params(self, v1, v2) -> tuple[Poly, ...]:
        sub = {self.ring.index("s1"): Poly.const(self.ring, v1),
               self.ring.index("s2"): Poly.const(self.ring, v2)}
        return tuple(p.subs(sub) for p in self.images)


def exp_action(d1: Derivation, d2: Derivation) -> ActionMap:
    """Exponentiate the pair s1*d1 + s2*d2 into a polynomial action map.

    The pair must commute; each coordinate must be annihilated by enough
    iterations of the derivation, otherwise the pair is not locally
    nilpotent and no polynomial action exists.
    """
    if d1.ring != d2.ring:
        raise VariableMismatch("derivations live in different rings")
    ring = d1.ring
    if not commutator(d1, d2).is_zero:
        raise NotCommuting(
            "exp(s1*D1 + s2*D2) is a group action only for commuting pairs")
    s1 = Poly.var(ring, ring.index("s1"))
    s2 = Poly.var(ring, ring.index("s2"))
    flow = Derivation(ring, tuple(a * s1 + b * s2
                                  for a, b in zip(d1.entries, d2.entries)))
    images = tuple(
        _exp_series(Poly.var(ring, i), lambda p, c: flow.apply(p) * c,
                    lambda: f"flow of {ring.names[i]}")
        for i in range(ring.index("s1")))
    return ActionMap(ring=ring, images=images)


def compose(first: ActionMap, second: ActionMap) -> ActionMap:
    """Apply ``first`` with parameters s, then ``second`` with parameters r."""
    if first.ring != second.ring:
        raise VariableMismatch("actions live in different rings")
    ring = first.ring
    sub = {i: first.images[i] for i in range(first.ncoords)}
    sub[ring.index("s1")] = Poly.var(ring, ring.index("r1"))
    sub[ring.index("s2")] = Poly.var(ring, ring.index("r2"))
    images = tuple(p.subs(sub) for p in second.images)
    return ActionMap(ring=ring, images=images,
                     params=("s1", "s2", "r1", "r2"))


@dataclass(frozen=True)
class ClGrading:
    """Degrees of the Cox coordinates in the class group Z^(m-2)."""

    degrees: tuple[tuple[int, ...], ...]


def cl_grading(basis) -> ClGrading:
    """Class group grading determined by an admissible basis.

    The two basis coordinates receive the columns of the octant coordinate
    matrix; every other coordinate receives a standard unit vector, indexed
    by the non-basis rays in input order.
    """
    rays = basis.rays
    m = len(rays)
    i1, i2 = basis.basis_indices
    deg: list[tuple[int, ...] | None] = [None] * m
    deg[i1] = tuple(row[0] for row in basis.alpha)
    deg[i2] = tuple(row[1] for row in basis.alpha)
    for r, j in enumerate(basis.nonbasis_indices):
        deg[j] = tuple(1 if t == r else 0 for t in range(m - 2))
    degrees = tuple(d for d in deg if d is not None)
    if len(degrees) != m:
        raise InternalInconsistency("grading misses a coordinate")
    for w in basis.duals:
        acc = [0] * (m - 2)
        for i, p in enumerate(rays):
            c = pairing(p, w)
            acc = [a + c * dk for a, dk in zip(acc, deg[i])]
        if any(acc):
            raise InternalInconsistency(
                "character relations must have class group degree zero")
    return ClGrading(degrees=degrees)


def degree_of(grading: ClGrading, p: Poly) -> tuple[int, ...] | None:
    """Common class group degree of a polynomial's monomials.

    Group parameters (generators beyond the graded coordinates) count as
    degree zero.  Returns None for the zero polynomial and raises
    NotHomogeneous with a witness pair of exponent tuples otherwise.
    """
    if p.is_zero:
        return None
    m = len(grading.degrees)
    deg: tuple[int, ...] | None = None
    witness: tuple[int, ...] | None = None
    for exps in sorted(p.terms):
        cur = [0] * (len(grading.degrees[0]) if m else 0)
        for i in range(m):
            if exps[i]:
                cur = [a + exps[i] * b for a, b in zip(cur, grading.degrees[i])]
        cur_t = tuple(cur)
        if deg is None:
            deg, witness = cur_t, exps
        elif cur_t != deg:
            raise NotHomogeneous(
                f"monomials {witness} and {exps} have degrees {deg} and {cur_t}",
                witness=(witness, exps))
    return deg


def lnd_from_root(ring: PolyRing, rays: Sequence[LatticeVec], e: CharVec,
                  ray_index: int) -> Derivation:
    """Locally nilpotent derivation prod_j x_j^<p_j,e> d/dx_i of a root e."""
    exps = [0] * ring.nvars
    for j, p in enumerate(rays):
        v = pairing(p, e)
        if j == ray_index:
            if v != -1:
                raise NotApplicable(
                    f"character {e} is not a root of ray {ray_index + 1}: "
                    f"pairing is {v}, not -1")
            continue
        if v < 0:
            raise NegativeExponent(
                f"character {e} pairs negatively with ray {j + 1}")
        exps[j] = v
    coeff = Poly.monomial(ring, tuple(exps), 1)
    return derivation(ring, {ray_index: coeff}, char=tuple(e))


@dataclass(frozen=True)
class TorusChar:
    """Exponent vector of the character scaling a homogeneous derivation."""

    exponents: tuple[int, ...]

    def value_at(self, t: Sequence) -> Fraction:
        vals = [Fraction(v) for v in t]
        if any(v == 0 for v in vals):
            raise ZeroTorusEntry("torus points have nonzero coordinates")
        out = Fraction(1)
        for v, k in zip(vals, self.exponents):
            out *= v ** k
        return out


def character_of(d: Derivation, rays: Sequence[LatticeVec]) -> TorusChar:
    """Formal conjugation: the character by which the torus rescales d."""
    if d.char is None:
        raise NotApplicable("derivation carries no character data")
    return TorusChar(exponents=tuple(pairing(p, d.char) for p in rays))


def torus_conjugate(d: Derivation, t: Sequence) -> Derivation:
    """Conjugate a derivation by the torus point t acting on the coordinates.

    Entries beyond len(t) (the group parameters) must be zero.
    """
    vals = [Fraction(v) for v in t]
    if any(v == 0 for v in vals):
        raise ZeroTorusEntry("torus points have nonzero coordinates")
    ring = d.ring
    sub = {i: Poly.var(ring, i) * v for i, v in enumerate(vals)}
    entries = []
    for i, entry in enumerate(d.entries):
        if entry.is_zero:
            entries.append(entry)
            continue
        if i >= len(vals):
            raise NotApplicable(
                "cannot conjugate a derivation moving the group parameters")
        entries.append(entry.subs(sub) * (Fraction(1) / vals[i]))
    return Derivation(ring, tuple(entries), char=d.char)


@dataclass(frozen=True)
class LndFamily:
    """The derivations generating all additive actions for one basis.

    delta moves the first basis coordinate; partials[k] for k = 0..d move
    the second one.  Bracket table: [delta, partials[k]] = k*partials[k-1]
    and all partials commute.
    """

    ring: PolyRing
    basis: object
    grading: ClGrading
    delta: Derivation
    partials: tuple[Derivation, ...]
    d: int


def build_lnd_family(basis, d: int) -> LndFamily:
    rays = basis.rays
    ring = action_ring(len(rays))
    i1, i2 = basis.basis_indices
    b1, b2 = basis.duals
    delta = lnd_from_root(ring, rays, vneg(b1), i1)
    partials = []
    for k in range(d + 1):
        e = (k * b1[0] - b2[0], k * b1[1] - b2[1])
        partials.append(lnd_from_root(ring, rays, e, i2))
    return LndFamily(ring=ring, basis=basis, grading=cl_grading(basis),
                     delta=delta, partials=tuple(partials), d=d)


def emit_actions(family: LndFamily) -> tuple[ActionMap, ActionMap | None]:
    """Canonical representatives of the isomorphism classes of actions.

    The normalized class is exp(s1*delta + s2*partials[0]).  For d >= 1 the
    second, non-normalized class is exp(s1*(delta + partials[d]) + s2*partials[0]);
    for d = 0 there is no second class and None is returned.
    """
    normalized = exp_action(family.delta, family.partials[0])
    if family.d == 0:
        return normalized, None
    non_normalized = exp_action(family.delta + family.partials[family.d],
                                family.partials[0])
    return normalized, non_normalized


@dataclass(frozen=True)
class NormalFormResult:
    eta: tuple[Fraction, ...]
    z: Derivation
    conjugated: Derivation
    target: Derivation


def normal_form(mu: Sequence, family: LndFamily) -> NormalFormResult:
    """Conjugation parameters bringing delta + sum mu_k partials[k] to normal form.

    Solves for eta_1..eta_d such that exp(ad Z) with
    Z = delta + sum_k eta_k partials[k] maps the given generator to
    delta + mu_d partials[d] while fixing partials[0].  exp(ad Z) is
    affine in eta because every bracket with Z lands in the span of the
    partials, which is abelian; the system read off at eta = 0 and at each
    unit vector is triangular, is solved exactly, and the answer is
    re-verified by conjugating with the solved Z.
    """
    d = family.d
    if d == 0:
        raise NotApplicable(
            "a single isomorphism class admits no normal form step")
    coeffs = [Fraction(c) for c in mu]
    if len(coeffs) != d + 1:
        raise NotApplicable(
            f"need coefficients for partials[0..{d}], got {len(coeffs)}")
    if coeffs[d] == 0:
        raise NotApplicable("the top coefficient mu_d must be nonzero")
    delta, parts = family.delta, family.partials
    gen = delta
    for k in range(d + 1):
        gen = gen + parts[k].scale(coeffs[k])
    target = delta + parts[d].scale(coeffs[d])

    # exp(ad Z)(gen) with Z = delta + sum eta_k parts[k] is affine in eta:
    # a constant part plus one derivation coefficient per unknown eta_k.
    sum_const = exp_ad(delta, gen)
    sum_eta = [exp_ad(delta + parts[k + 1], gen) - sum_const
               for k in range(d)]

    i1, i2 = family.basis.basis_indices
    if sum_const.entries[i1] != target.entries[i1]:
        raise InternalInconsistency(
            "conjugation must not disturb the first basis coordinate")
    for e in sum_eta:
        if not e.entries[i1].is_zero:
            raise InternalInconsistency(
                "eta coefficients must not touch the first basis coordinate")

    # linear system over the monomials of the second basis entry
    monos: list[tuple[int, ...]] = sorted(
        set(sum_const.entries[i2].terms)
        | {m for e in sum_eta for m in e.entries[i2].terms}
        | set(target.entries[i2].terms))
    rows = []
    rhs = []
    for mono in monos:
        rows.append([e.entries[i2].terms.get(mono, Fraction(0))
                     for e in sum_eta])
        rhs.append(target.entries[i2].terms.get(mono, Fraction(0))
                   - sum_const.entries[i2].terms.get(mono, Fraction(0)))
    solution = fraction_solve(rows, rhs)
    if solution is None:
        raise InternalInconsistency(
            "normal form system must have a unique exact solution")
    eta = tuple(solution)

    z = delta
    for k in range(d):
        z = z + parts[k + 1].scale(eta[k])
    conjugated = exp_ad(z, gen)
    if conjugated != target:
        raise InternalInconsistency(
            "re-verification failed: exp(ad Z) does not reach the normal form")
    if exp_ad(z, parts[0]) != parts[0]:
        raise InternalInconsistency(
            "re-verification failed: exp(ad Z) must fix partials[0]")
    return NormalFormResult(eta=eta, z=z, conjugated=conjugated, target=target)
