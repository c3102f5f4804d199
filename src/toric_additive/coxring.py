"""Exact Cox-coordinate algebra: polynomials, derivations, group actions.

All arithmetic is exact over Q and nothing here touches floating point.
A polynomial keeps integer numerators over one positive denominator, so
its sums, products and substitutions run on ints; ``fractions.Fraction``
appears only where single coefficients and values cross the API.  Sums,
differences, products, the exp series' sum, the flow of a pair of
derivations and substitution's gather share one kernel, ``_combine``;
``Derivation.apply`` keeps its own plan.  The central objects are the
locally nilpotent derivations attached to Demazure roots and the
polynomial automorphisms obtained by exponentiating commuting pairs of
them.

A polynomial ring for a fan with m rays carries generators
x1, ..., xm, s1, s2, r1, r2: the x's are Cox coordinates, s1/s2 are the
additive group parameters and r1/r2 are a second copy used when composing
two actions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Callable, Mapping, Sequence

from .errors import (
    InternalInconsistency,
    LengthMismatch,
    NegativeExponent,
    NotApplicable,
    NotCommuting,
    NotHomogeneous,
    NotLocallyNilpotent,
    VariableMismatch,
    ZeroTorusEntry,
)
from .lattice import CharVec, LatticeVec, pairing, vneg


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


def _exact(value) -> Fraction:
    """An int or Fraction as a Fraction; anything inexact is refused, and
    so is a bool, as ``lattice.int_rays`` refuses one in a ray."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    return Fraction(value)


def _generator(ring: PolyRing, i: int) -> int:
    """i, if it indexes a generator of ``ring``; no negative indices."""
    if not 0 <= i < ring.nvars:
        raise VariableMismatch(
            f"no generator with index {i} in a ring of {ring.nvars}")
    return i


def action_ring(m: int) -> PolyRing:
    """Ring for m Cox coordinates plus two pairs of group parameters."""
    names = tuple(f"x{i}" for i in range(1, m + 1)) + ("s1", "s2", "r1", "r2")
    return PolyRing(names)


class Poly:
    """Multivariate polynomial over Q: integer numerators over one denominator.

    ``num`` maps exponent tuples to nonzero ints and ``den`` is a positive
    int; the coefficient of x^e is num[e] / den.  The form is canonical:
    gcd(den, *num.values()) == 1, and the zero polynomial has den == 1, so
    two polynomials are equal exactly when their rings, ``den`` and ``num``
    are.  A Poly is never changed once built, so results may share ``num``,
    and a sum or product may be one of its operands (a sum with zero is the
    other summand, a product with zero is ``Poly.zero``).

    ``terms`` is the exact view, exponent tuple -> nonzero Fraction, built
    afresh on each read: changing the dict it returns leaves the Poly as it
    was.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: PolyRing,
                 terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        self.ring = ring
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = _exact(coeff)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != ring.nvars:
                    raise VariableMismatch(
                        "exponent tuple length does not match the ring")
                if any(e < 0 for e in exps):
                    raise NegativeExponent(f"negative exponent in {exps}")
                clean[exps] = c
        # over the lcm of the reduced denominators the form is canonical:
        # for each prime q | den, the coefficient whose denominator holds
        # q's top power keeps a numerator prime to q
        den = lcm(*(c.denominator for c in clean.values()))
        self.num = {e: c.numerator * (den // c.denominator)
                    for e, c in clean.items()}
        self.den = den

    @classmethod
    def zero(cls, ring: PolyRing) -> "Poly":
        return _reduced(ring, {}, 1)

    @classmethod
    def const(cls, ring: PolyRing, c) -> "Poly":
        if type(c) is int:
            return _reduced(ring, {(0,) * ring.nvars: c} if c else {}, 1)
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def var(cls, ring: PolyRing, i: int) -> "Poly":
        exps = [0] * ring.nvars
        exps[_generator(ring, i)] = 1
        return _reduced(ring, {tuple(exps): 1}, 1)

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Sequence[int], c=1) -> "Poly":
        return cls(ring, {tuple(exps): c})

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _check_ring(self, other: "Poly") -> None:
        # polys built by arithmetic share the ring object itself
        if self.ring is not other.ring and self.ring != other.ring:
            raise VariableMismatch("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        if not other.num:
            return self
        if not self.num:
            return other
        return _combine(self.ring, ((1, None, self), (1, None, other)))

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.ring, out.den = self.ring, self.den
        out.num = {e: -c for e, c in self.num.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        if not other.num:
            return self
        return _combine(self.ring, ((1, None, self), (-1, None, other)))

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _exact(other)
            if not c:
                return Poly.zero(self.ring)
            k = c.numerator
            return _reduced(self.ring, {e: a * k for e, a in self.num.items()},
                            self.den * c.denominator)
        self._check_ring(other)
        if not self.num or not other.num:
            return Poly.zero(self.ring)
        # other's numerator shifted by each term of self's, over self.den
        return _over(_combine(self.ring, [(c, e, other)
                                          for e, c in self.num.items()]),
                     self.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise NegativeExponent("polynomial powers must be nonnegative")
        out, base = Poly.const(self.ring, 1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.den == other.den and self.num == other.num)

    __hash__ = None  # type: ignore[assignment]

    def diff(self, i: int) -> "Poly":
        num: dict[tuple[int, ...], int] = {}
        for e, c in self.num.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                num[tuple(e2)] = c * e[i]
        return _reduced(self.ring, num, self.den)

    def subs(self, mapping: Mapping[int, "Poly"]) -> "Poly":
        """Simultaneous substitution of generators by polynomials."""
        return substitute((self,), mapping)[0]

    def eval(self, values: Sequence) -> Fraction:
        if len(values) != self.ring.nvars:
            raise VariableMismatch("need one value per generator")
        # int values stay ints up to the one division by den
        vals = [v if type(v) is int else _exact(v) for v in values]
        total = 0
        for e, c in self.num.items():
            for v, k in zip(vals, e):
                if k:
                    c *= v ** k
            total += c
        return Fraction(total, self.den)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"


def _reduced(ring: PolyRing, num: dict[tuple[int, ...], int],
             den: int) -> Poly:
    """The canonical Poly num / den, for nonzero int numerators and den >= 1."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    out = Poly.__new__(Poly)
    out.ring, out.num, out.den = ring, num, den
    return out


def _combine(ring: PolyRing,
             parts: Sequence[tuple[int, tuple[int, ...] | None, Poly]]) -> Poly:
    """The sum of c * x^shift * p over (c, shift, p) in ``parts``.

    c is an int and shift None or an exponent tuple added to each exponent
    of p.  Every numerator goes over the one lcm of the p.den into one int
    dict; zeros are dropped and the sum reduced once.
    """
    den = lcm(*(p.den for _, _, p in parts))
    num: dict[tuple[int, ...], int] = {}
    get = num.get
    for c, shift, p in parts:
        c *= den // p.den
        if shift is None:
            for e, a in p.num.items():
                num[e] = get(e, 0) + c * a
        else:
            for e, a in p.num.items():
                e = tuple(map(add, e, shift))
                num[e] = get(e, 0) + c * a
    return _reduced(ring, {e: c for e, c in num.items() if c}, den)


def substitute(polys: Sequence[Poly],
               mapping: Mapping[int, Poly]) -> tuple[Poly, ...]:
    """Simultaneous substitution of generators by polynomials, in each poly.

    Each image's powers are built once for all of ``polys``, by increasing
    exponent, each from the one before times the image to the gap: so
    exponents 1..n cost one product each, and a lone N costs O(log N).
    """
    for p in polys:
        for img in mapping.values():
            p._check_ring(img)
    # an identity image x_i -> x_i leaves every power of x_i in place
    mapping = {i: img for i, img in mapping.items()
               if img != Poly.var(img.ring, i)}
    powers: dict[int, dict[int, Poly]] = {i: {} for i in mapping}
    for i, table in powers.items():
        last, prev = 0, None
        for k in sorted({e[i] for p in polys for e in p.num if e[i]}):
            step = mapping[i] if k == last + 1 else mapping[i] ** (k - last)
            prev = table[k] = step if prev is None else prev * step
            last = k
    out = []
    for p in polys:
        # each term's image is its numerator times a product of powers,
        # with the exponents of the generators left in place
        one = Poly.const(p.ring, 1)
        parts = []
        for e, c in p.num.items():
            factor = None
            for i, table in powers.items():
                if e[i]:
                    factor = (table[e[i]] if factor is None
                              else factor * table[e[i]])
            rest = tuple(0 if i in mapping else k for i, k in enumerate(e))
            parts.append((c, rest, one if factor is None else factor))
        out.append(_over(_combine(p.ring, parts), p.den))
    return tuple(out)


def poly_str(p: Poly) -> str:
    """Canonical rendering: terms by ascending total degree, then exponents."""
    terms = p.terms
    if not terms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for exps in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[exps]
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
                if not val2:
                    raise VariableMismatch(f"zero denominator in {num}/0")
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
    # apply's plan, built from the entries on first use (see apply)
    _plan: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        if len(self.entries) != self.ring.nvars:
            raise VariableMismatch("need one entry per generator")
        ring = self.ring
        # entries built by Poly arithmetic share the ring object itself
        for p in self.entries:
            if p.ring is not ring and p.ring != ring:
                raise VariableMismatch("entry outside the derivation's ring")

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.entries)

    def apply(self, p: Poly) -> Poly:
        """D(p) = sum_i D(x_i) * dp/dx_i, in one pass and one reduction.

        With L the lcm of the denominators of the moved entries D(x_i),
        each term c*x^e of p's numerator with e_i > 0 and each term a*x^f
        of D(x_i)'s numerator add c*e_i*a*(L // D(x_i).den) at x^(e - unit_i
        + f).  Every contribution goes into one int dict over the
        denominator p.den * L; zeros are dropped and the result reduced
        once, so no derivative, product or partial sum is built.  L and
        each moved entry's terms over L, with x_i struck once from their
        exponents, are the derivation's plan: built on the first apply and
        kept, since the entries never change.
        """
        ring = self.ring
        if p.ring is not ring and p.ring != ring:
            raise VariableMismatch("argument outside the derivation's ring")
        den, moved = self._plan or self._build_plan()
        if not moved or not p.num:
            return Poly.zero(ring)
        num: dict[tuple[int, ...], int] = {}
        get = num.get
        for i, shifted in moved:
            # adding e to a shifted f strikes x_i once from x^e and
            # multiplies x^f in
            for e, c in p.num.items():
                ei = e[i]
                if ei:
                    c *= ei
                    for f, a in shifted:
                        f = tuple(map(add, e, f))
                        num[f] = get(f, 0) + c * a
        return _reduced(ring, {e: c for e, c in num.items() if c},
                        p.den * den)

    def _build_plan(self) -> tuple:
        """(L, ((i, D(x_i)'s terms over L less unit_i), ...)), kept."""
        moved = [(i, q) for i, q in enumerate(self.entries) if q.num]
        den = lcm(*(q.den for _, q in moved))
        plan = (den, tuple(
            (i, tuple((f[:i] + (f[i] - 1,) + f[i + 1:], a * (den // q.den))
                      for f, a in q.num.items()))
            for i, q in moved))
        object.__setattr__(self, "_plan", plan)
        return plan

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


def derivation(ring: PolyRing, images: Mapping[int, Poly],
               char: CharVec | None = None) -> Derivation:
    entries = [Poly.zero(ring)] * ring.nvars
    for i, p in images.items():
        entries[_generator(ring, i)] = p
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
    # a.apply(x_i) is a.entries[i], so [a, b](x_i) needs no apply on x_i,
    # and it is zero when a_i and b_i both are
    entries = [a.apply(bi) - b.apply(ai) if ai.num or bi.num else ai
               for ai, bi in zip(a.entries, b.entries)]
    char = None
    if a.char is not None and b.char is not None and any(
            not p.is_zero for p in entries):
        char = tuple(u + v for u, v in zip(a.char, b.char))
    return Derivation(a.ring, tuple(entries), char=char)


_MAX_STEPS = 64


def _over(t, k: int):
    """t / k for a Poly or Derivation t and an int k >= 1: den times k."""
    if isinstance(t, Derivation):
        return Derivation(t.ring, tuple(_over(p, k) for p in t.entries),
                          char=t.char)
    return _reduced(t.ring, t.num, t.den * k)


def _exp_series(x, op, what: Callable[[], str]):
    """x + op(x) + op(op(x))/2! + ..., summed up to the first zero term.

    ``op`` maps a Poly or Derivation to one of the same kind.  The loop
    only collects the terms; at the first zero one they are summed once,
    over one common denominator (entry by entry for a Derivation, which
    keeps x's ``char`` when every term carries it).  A series with no zero
    term within _MAX_STEPS raises NotLocallyNilpotent, whose message
    starts with ``what()``.
    """
    terms = [x]
    cur = x
    for step in range(1, _MAX_STEPS + 1):
        cur = _over(op(cur), step)
        if cur.is_zero:
            ring = x.ring
            if isinstance(x, Poly):
                return _combine(ring, [(1, None, t) for t in terms])
            char = x.char if all(t.char == x.char for t in terms) else None
            return Derivation(ring, tuple(
                _combine(ring, [(1, None, p) for p in col])
                for col in zip(*(t.entries for t in terms))), char=char)
        terms.append(cur)
    raise NotLocallyNilpotent(
        f"{what()} did not terminate within {_MAX_STEPS} steps")


def exp_ad(z: Derivation, d: Derivation) -> Derivation:
    """exp(ad z) applied to d: d + [z,d] + [z,[z,d]]/2 + ..."""
    return _exp_series(d, lambda t: commutator(z, t),
                       lambda: f"iterated bracket with {derivation_str(z)}")


@dataclass(frozen=True)
class ActionMap:
    """Polynomial map x_i -> image(x, parameters) describing a group action."""

    ring: PolyRing
    images: tuple[Poly, ...]
    params: tuple[str, ...] = ("s1", "s2")
    # the images read at s = 0 by the verification oracles, kept on first use
    _at_zero: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def ncoords(self) -> int:
        return len(self.images)

    def image_strings(self) -> tuple[str, ...]:
        return tuple(f"{self.ring.names[i]} <- {poly_str(p)}"
                     for i, p in enumerate(self.images))

    def at_params(self, v1, v2) -> tuple[Poly, ...]:
        sub = {self.ring.index("s1"): Poly.const(self.ring, v1),
               self.ring.index("s2"): Poly.const(self.ring, v2)}
        return substitute(self.images, sub)


def _flow(d1: Derivation, d2: Derivation) -> Derivation:
    """The derivation s1*d1 + s2*d2: entry i is d1(x_i) with the s1
    exponent raised by one plus d2(x_i) with the s2 exponent raised, in one
    ``_combine``.  An entry that neither d1 nor d2 moves stays zero.
    """
    ring = d1.ring
    j1, j2 = ring.index("s1"), ring.index("s2")
    u1 = tuple(int(i == j1) for i in range(ring.nvars))
    u2 = tuple(int(i == j2) for i in range(ring.nvars))
    return Derivation(ring, tuple(
        _combine(ring, ((1, u1, a), (1, u2, b))) if a.num or b.num else a
        for a, b in zip(d1.entries, d2.entries)))


def exp_action(d1: Derivation, d2: Derivation) -> ActionMap:
    """Exponentiate the pair s1*d1 + s2*d2 into a polynomial action map.

    The pair must commute; each coordinate must be annihilated by enough
    iterations of the derivation, otherwise the pair is not locally
    nilpotent and no polynomial action exists.  Each moved coordinate's
    image is one exp series of the flow s1*d1 + s2*d2 (see ``_flow``),
    which applies the flow's plan at every step and sums its terms once; a
    coordinate that neither d1 nor d2 moves is fixed: its flow entry is
    zero and its image is x_i with no series.
    """
    if d1.ring != d2.ring:
        raise VariableMismatch("derivations live in different rings")
    ring = d1.ring
    if not commutator(d1, d2).is_zero:
        raise NotCommuting(
            "exp(s1*D1 + s2*D2) is a group action only for commuting pairs")
    flow = _flow(d1, d2)
    images = tuple(
        _exp_series(Poly.var(ring, i), flow.apply,
                    lambda: f"flow of {ring.names[i]}")
        if flow.entries[i].num else Poly.var(ring, i)
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
    return ActionMap(ring=ring, images=substitute(second.images, sub),
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
    for exps in sorted(p.num):
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
    return _root_lnd(ring, [pairing(p, e) for p in rays], e, ray_index)


def _root_lnd(ring: PolyRing, exps: list[int], e: CharVec,
              ray_index: int) -> Derivation:
    """``lnd_from_root`` of e, given the list of its pairings <p_j, e>
    with the rays, which becomes the exponent list of the entry."""
    v = exps[ray_index]
    if v != -1:
        raise NotApplicable(
            f"character {e} is not a root of ray {ray_index + 1}: "
            f"pairing is {v}, not -1")
    exps[ray_index] = 0
    if min(exps) < 0:
        j = next(j for j, v in enumerate(exps) if v < 0)
        raise NegativeExponent(
            f"character {e} pairs negatively with ray {j + 1}")
    exps += [0] * (ring.nvars - len(exps))
    coeff = _reduced(ring, {tuple(exps): 1}, 1)
    return derivation(ring, {ray_index: coeff}, char=tuple(e))


def _torus_point(t: Sequence) -> list[Fraction]:
    """The coordinates of a torus point, exact and nonzero."""
    vals = [_exact(v) for v in t]
    if any(v == 0 for v in vals):
        raise ZeroTorusEntry("torus points have nonzero coordinates")
    return vals


@dataclass(frozen=True)
class TorusChar:
    """Exponent vector of the character scaling a homogeneous derivation."""

    exponents: tuple[int, ...]

    def value_at(self, t: Sequence) -> Fraction:
        if len(t) != len(self.exponents):
            raise LengthMismatch(f"torus point of length {len(t)} for a "
                                 f"character of length {len(self.exponents)}")
        out = Fraction(1)
        for v, k in zip(_torus_point(t), self.exponents):
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
    vals = _torus_point(t)
    ring = d.ring
    moved = [i for i, entry in enumerate(d.entries) if not entry.is_zero]
    if any(i >= len(vals) for i in moved):
        raise NotApplicable(
            "cannot conjugate a derivation moving the group parameters")
    sub = {i: Poly.var(ring, i) * v for i, v in enumerate(vals)}
    entries = list(d.entries)
    for i, img in zip(moved, substitute([entries[i] for i in moved], sub)):
        entries[i] = img * (Fraction(1) / vals[i])
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
    """delta = the derivation of the root -b1 and partials[k] that of
    k*b1 - b2, for the basis duals b1, b2, as ``lnd_from_root`` builds them.

    The pairings of the rays with b1 and b2 are taken once: ray j pairs
    with k*b1 - b2 to k*<p_j, b1> - <p_j, b2>.
    """
    rays = basis.rays
    ring = action_ring(len(rays))
    i1, i2 = basis.basis_indices
    b1, b2 = basis.duals
    w1 = [pairing(p, b1) for p in rays]
    w2 = [pairing(p, b2) for p in rays]
    delta = _root_lnd(ring, [-v for v in w1], vneg(b1), i1)
    partials = tuple(
        _root_lnd(ring, [k * v1 - v2 for v1, v2 in zip(w1, w2)],
                  (k * b1[0] - b2[0], k * b1[1] - b2[1]), i2)
        for k in range(d + 1))
    return LndFamily(ring=ring, basis=basis, grading=cl_grading(basis),
                     delta=delta, partials=partials, d=d)


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

    Finds eta_1..eta_d such that exp(ad Z) with
    Z = delta + sum_k eta_k partials[k] maps the given generator to
    delta + mu_d partials[d] while fixing partials[0].  Write partials[k]
    as t^k: the bracket table [delta, partials[k]] = k*partials[k-1] makes
    ad delta act as d/dt on the span of the partials, which is abelian, so
    ad Z acts as d/dt there too and [Z, delta + mu(t)] = mu' - eta'.  Then
    exp(ad Z)(delta + mu(t)) = delta + mu(t+1) - eta(t+1) + eta(t), by
    Taylor's formula.  So eta is the unique polynomial with eta(0) = 0 and
    eta(t+1) - eta(t) = mu(t+1) - mu_d t^d, solved from the top
    coefficient down; the answer is re-verified by conjugating with Z.
    """
    d = family.d
    if d == 0:
        raise NotApplicable(
            "a single isomorphism class admits no normal form step")
    coeffs = [_exact(c) for c in mu]
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

    # coefficient of t^j: sum_{k > j} C(k, j) (eta_k - mu_k) = mu_j
    full = [Fraction(0)] * (d + 1)
    for j in range(d - 1, -1, -1):
        rest = coeffs[j] - sum(comb(k, j) * (full[k] - coeffs[k])
                               for k in range(j + 2, d + 1))
        full[j + 1] = coeffs[j + 1] + rest / (j + 1)
    eta = tuple(full[1:])

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
