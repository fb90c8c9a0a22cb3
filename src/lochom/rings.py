"""Weighted-graded polynomial rings k[x_1..x_n] and their strand data.

A ring fixes a coefficient field, variable names, and positive integer
weights.  Monomial bases of each graded piece R_d are enumerated in
graded-lexicographic order (variables in declaration order, exponents
descending), and that enumeration is the basis contract used by every matrix
in the engine.  A monomial's row in that basis is its graded-lex rank, read
from one rank table per degree D: entry [i, c] counts the degree-D monomials
that agree with it before variable i and have a larger exponent at i, where c
is the degree of its exponents through i.  The rank is the sum of n-1 such
entries and never exceeds dim R_D; entries no monomial reads are capped at
dim R_D, so the table cannot overflow for any number of variables or any
weights.  Lex order is multiplicative, so multiplying R_d by one term sends
distinct monomials to distinct rows, and a multiplication matrix is one
scatter of each term's coefficient, written by ``exact._mult_block``.
Rings cache their strand bases, rank tables, the rows of each term's
scatter and the multiplication matrices; everything is immutable after
construction.  A multiplication matrix has one nonzero entry per column and
term, so ``exact``'s storage rule keeps every large one sparse and the cache
holds its nonzero entries only.

A polynomial is validated once, where its terms enter: ``Poly(ring, terms)``
converts and checks every exponent vector and normalizes and sums every
coefficient, and ``parse_poly`` and every caller outside this module go
through it.  The arithmetic of this module (``*``, ``+``, ``-``, ``scale``,
``**``) and the ring's ``zero``, ``one`` and ``variable`` build terms that
are valid by construction (exponent tuples of the ring's length, nonzero
canonical coefficients) and hand them to the module-private
``_trusted_poly`` unchecked.  A homogeneous polynomial keeps its degree
from the first ``degree()`` call on; a non-homogeneous one keeps nothing and
raises on every call.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul

import numpy as np

from .errors import (
    NonHomogeneousError,
    ParseError,
    UnknownVariableError,
)
from .exact import ExactMatrix, FieldSpec, _Frozen, _mult_block

__all__ = ["GradedRing", "Poly", "monomial_basis", "mult_matrix", "parse_poly"]


class GradedRing(_Frozen):
    __slots__ = ("field", "var_names", "weights", "_basis_cache", "_prefix_cache",
                 "_rank_cache", "_scatter_cache", "_mult_cache")

    def __init__(self, field: FieldSpec, var_names, weights):
        var_names = tuple(str(v) for v in var_names)
        weights = tuple(int(w) for w in weights)
        if not var_names:
            raise ValueError("a graded ring needs at least one variable")
        if len(set(var_names)) != len(var_names):
            raise ValueError("variable names must be distinct")
        for v in var_names:
            if not _is_name(v):
                raise ValueError(
                    f"variable name {v!r} is not a letter or _ then letters, digits or _"
                )
        if len(weights) != len(var_names):
            raise ValueError("one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "var_names", var_names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_basis_cache", {})
        object.__setattr__(self, "_prefix_cache", {})
        object.__setattr__(self, "_rank_cache", {})
        object.__setattr__(self, "_scatter_cache", {})
        object.__setattr__(self, "_mult_cache", {})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedRing)
            and self.field == other.field
            and self.var_names == other.var_names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.field, self.var_names, self.weights))

    def __repr__(self):
        ws = ",".join(str(w) for w in self.weights)
        return f"{self.field}[{','.join(self.var_names)}; weights {ws}]"

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def exponent_degree(self, exps) -> int:
        return sum(map(mul, exps, self.weights))

    # -- canonical element constructors -----------------------------------
    def zero(self) -> "Poly":
        return _trusted_poly(self, {})

    def one(self) -> "Poly":
        return _trusted_poly(self, {(0,) * self.nvars: self.field.one()})

    def constant(self, c) -> "Poly":
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Poly":
        exp = [0] * self.nvars
        exp[i] = 1
        return _trusted_poly(self, {tuple(exp): self.field.one()})

    def variables(self):
        return tuple(self.variable(i) for i in range(self.nvars))


def monomial_basis(ring: GradedRing, d: int):
    """Exponent vectors of all monomials of weighted degree d, graded-lex order."""
    cached = ring._basis_cache.get(d)
    if cached is not None:
        return cached
    basis = tuple(_fill(ring.weights, 0, d, [0] * ring.nvars, [])) if d >= 0 else ()
    ring._basis_cache[d] = basis
    return basis


def _fill(weights, pos: int, remaining: int, exps: list, out: list) -> list:
    """Append to ``out`` the completions of ``exps[:pos]`` of weighted degree
    ``remaining``, exponents descending.  A module-level function: a nested
    recursive one would hold itself, and with it the ring, in a reference
    cycle that outlives the job until a full garbage collection."""
    w = weights[pos]
    if pos == len(weights) - 1:
        if remaining % w == 0:
            exps[pos] = remaining // w
            out.append(tuple(exps))
        return out
    for e in range(remaining // w, -1, -1):
        exps[pos] = e
        _fill(weights, pos + 1, remaining - e * w, exps, out)
    exps[pos] = 0
    return out


def _rank_table(ring: GradedRing, D: int) -> np.ndarray:
    """The rank table of R_D (see the module docstring), shape (n-1, D+1)."""
    table = ring._rank_cache.get(D)
    if table is not None:
        return table
    w = ring.weights
    # counts[r]: the monomials of degree r in variables i..n-1, for i from n-1
    # down, capped at dim R_D.  An entry a monomial reads counts monomials of
    # R_D, so the cap leaves it exact; an entry none reads can pass 2^63.
    cap = len(monomial_basis(ring, D))
    counts = [1 if r % w[-1] == 0 else 0 for r in range(D + 1)]
    table = np.zeros((ring.nvars - 1, D + 1), dtype=np.int64)
    for i in range(ring.nvars - 2, -1, -1):
        for r in range(w[i], D + 1):
            counts[r] = min(counts[r] + counts[r - w[i]], cap)
        # raising the exponent at i leaves counts[D - c - w_i] completions
        top = D - w[i]
        if top >= 0:
            table[i, : top + 1] = counts[top::-1]
    ring._rank_cache[D] = table
    return table


def _scatter_rows(ring: GradedRing, exp: tuple, d: int, D: int) -> np.ndarray:
    """The rows in R_D of the products of the term x^exp with the monomials
    of R_d, in the order of R_d's basis."""
    key = (exp, d)
    rows = ring._scatter_cache.get(key)
    if rows is not None:
        return rows
    prefix = ring._prefix_cache.get(d)
    if prefix is None:
        basis = monomial_basis(ring, d)
        exps = np.array(basis, dtype=np.int64).reshape(len(basis), ring.nvars)
        # a variable of weight above d has exponent 0 in every monomial of R_d,
        # so clipping the weights to d + 1 keeps the prefixes and fits int64
        weights = np.array([min(w, d + 1) for w in ring.weights[:-1]], dtype=np.int64)
        # entry [j, i]: the degree of monomial j's exponents through variable i < n-1
        prefix = ring._prefix_cache[d] = np.cumsum(exps[:, :-1] * weights, axis=1)
    shift = np.fromiter(accumulate(map(mul, exp[:-1], ring.weights)), np.int64, ring.nvars - 1)
    rows = _rank_table(ring, D)[np.arange(ring.nvars - 1), prefix + shift].sum(axis=1)
    ring._scatter_cache[key] = rows
    return rows


# The kept degree of a polynomial before it is computed (None is the degree
# of the zero polynomial).
_UNSET = object()


class Poly(_Frozen):
    """Polynomial as a map exponent-vector -> nonzero canonical scalar.

    ``Poly(ring, terms)`` is the validating constructor, for parsed and user
    input: it checks that every exponent vector has the ring's length and no
    negative entry, normalizes every coefficient, sums repeated exponents
    and drops zeros.  The arithmetic returns through ``_trusted_poly``, which
    takes terms that are valid by construction as they are (see the module
    docstring).  Either way the terms are the same canonical dict, so
    equality and hash do not depend on the route.
    """

    __slots__ = ("ring", "terms", "_key", "_degree")

    def __init__(self, ring: GradedRing, terms):
        clean = {}
        n = ring.nvars
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            c = ring.field.normalize(coeff)
            if c != 0:
                c0 = clean.get(exp)
                if c0 is None:
                    clean[exp] = c
                else:
                    c = ring.field.add(c0, c)
                    if c == 0:
                        del clean[exp]
                    else:
                        clean[exp] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_degree", _UNSET)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        """Whether all terms have one degree, which is then kept."""
        if self._degree is _UNSET:
            degs = {self.ring.exponent_degree(e) for e in self.terms}
            if len(degs) > 1:
                return False
            object.__setattr__(self, "_degree", degs.pop() if degs else None)
        return True

    def degree(self):
        """Weighted degree of a homogeneous polynomial; None for the zero poly."""
        if not self.is_homogeneous():
            raise NonHomogeneousError(f"{self} is not homogeneous")
        return self._degree

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", tuple(sorted(self.terms.items())))
        return self._key

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.key()))

    # -- arithmetic -----------------------------------------------------------
    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("polynomials over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        fld = self.ring.field
        for exp, c in other.terms.items():
            c0 = out.get(exp)
            if c0 is None:
                out[exp] = c
            else:
                s = fld.add(c0, c)
                if s == 0:
                    del out[exp]
                else:
                    out[exp] = s
        return _trusted_poly(self.ring, out)

    def __neg__(self) -> "Poly":
        fld = self.ring.field
        return _trusted_poly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        fld = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                c = fld.mul(c1, c2)
                c0 = out.get(exp)
                if c0 is None:
                    out[exp] = c
                else:
                    s = fld.add(c0, c)
                    if s == 0:
                        del out[exp]
                    else:
                        out[exp] = s
        return _trusted_poly(self.ring, out)

    def scale(self, c) -> "Poly":
        fld = self.ring.field
        c = fld.normalize(c)
        if c == 0:
            return self.ring.zero()
        return _trusted_poly(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- text -------------------------------------------------------------------
    def __repr__(self):
        return format_poly(self)


# a Poly refuses attribute writes, so the trusted path fills its slots
# through their descriptors
_new = object.__new__
_set_ring, _set_terms, _set_key, _set_degree = (
    getattr(Poly, name).__set__ for name in ("ring", "terms", "_key", "_degree")
)


def _trusted_poly(ring: GradedRing, terms: dict) -> Poly:
    """A Poly on ``terms`` as they are.  The terms must be valid by
    construction: exponent tuples of length ``ring.nvars`` with no negative
    entry and nonzero canonical coefficients.  Only this module's arithmetic
    calls it; everything else builds a Poly with ``Poly(ring, terms)``."""
    p = _new(Poly)
    _set_ring(p, ring)
    _set_terms(p, terms)
    _set_key(p, None)
    _set_degree(p, _UNSET)
    return p


def format_poly(p: Poly) -> str:
    """Canonical text form: terms in descending graded-lex order."""
    if not p.terms:
        return "0"
    ring = p.ring
    items = sorted(
        p.terms.items(),
        key=lambda item: (ring.exponent_degree(item[0]), item[0]),
        reverse=True,
    )
    pieces = []
    for idx, (exp, coeff) in enumerate(items):
        factors = []
        for name, e in zip(ring.var_names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        sign = ""
        c = coeff
        if ring.field.is_rational and c < 0:
            sign = "-"
            c = -c
        body = "*".join(factors)
        if not factors:
            body = str(c)
        elif c != 1:
            body = f"{c}*{body}"
        if idx == 0:
            pieces.append(sign + body)
        else:
            pieces.append(("- " if sign else "+ ") + body)
    return " ".join(pieces)


def mult_matrix(f: Poly, d: int) -> ExactMatrix:
    """Matrix of multiplication by homogeneous f from R_d to R_{d+deg f},
    cached on the ring: the block ``exact._mult_block`` builds for the
    full strand R_{d+deg f}, from the scatter rows of each term of f."""
    ring = f.ring
    cache_key = (f.key(), d)
    cached = ring._mult_cache.get(cache_key)
    if cached is not None:
        return cached
    D = d + (f.degree() or 0)
    cols = len(monomial_basis(ring, d))
    # an empty R_d scatters nothing, and _rank_table takes no D below -1
    terms = [(_scatter_rows(ring, exp, d, D), c) for exp, c in f.terms.items()] if cols else ()
    result = _mult_block(ring.field, len(monomial_basis(ring, D)), cols, terms)
    ring._mult_cache[cache_key] = result
    return result


# -- parsing ---------------------------------------------------------------

_TOKEN_SYMBOLS = {"+", "-", "*", "^"}


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _is_name(text: str) -> bool:
    """Whether ``_tokenize`` reads ``text`` back as exactly one name token."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("name", text)


def parse_poly(ring: GradedRing, src: str) -> Poly:
    """Parse ``x^2*y - 3*y^3`` style text into a canonical Poly."""
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    var_index = {name: i for i, name in enumerate(ring.var_names)}

    def parse_factor():
        kind, text, at = advance()
        if kind == "int":
            return int(text), None
        if kind == "name":
            if text not in var_index:
                raise UnknownVariableError(f"unknown variable {text!r} at position {at}")
            exp = 1
            if peek()[0] == "^":
                advance()
                k2, t2, a2 = advance()
                if k2 != "int":
                    raise ParseError("expected an integer exponent", a2)
                exp = int(t2)
            return None, (var_index[text], exp)
        raise ParseError("expected a coefficient or variable", at)

    def parse_term():
        coeff = 1
        exps = [0] * ring.nvars
        while True:
            c, var = parse_factor()
            if c is not None:
                coeff *= c
            else:
                i, e = var
                exps[i] += e
            if peek()[0] == "*":
                advance()
                continue
            break
        return coeff, tuple(exps)

    terms: dict = {}

    def accumulate(sign: int):
        coeff, exp = parse_term()
        terms[exp] = terms.get(exp, 0) + sign * coeff

    sign = 1
    if peek()[0] in {"+", "-"}:
        sign = -1 if advance()[0] == "-" else 1
    accumulate(sign)
    while peek()[0] != "end":
        kind, _, at = advance()
        if kind not in {"+", "-"}:
            raise ParseError("expected '+' or '-' between terms", at)
        accumulate(-1 if kind == "-" else 1)
    return Poly(ring, terms)
