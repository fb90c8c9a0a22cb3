"""Graded rings: monomial bases, multiplication matrices, the parser."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom.errors import NonHomogeneousError, ParseError, UnknownVariableError
from lochom.exact import QQ, FieldSpec
from lochom.rings import GradedRing, Poly, format_poly, monomial_basis, mult_matrix, parse_poly

FP = FieldSpec(32003)


def ring2(weights=(1, 1), field=FP):
    return GradedRing(field, ["x", "y"], weights)


def brute_force_basis(ring, d):
    """Independent enumeration over the exponent box [0, d]^n."""
    if d < 0:
        return set()
    found = set()
    for exps in itertools.product(range(d + 1), repeat=ring.nvars):
        if sum(e * w for e, w in zip(exps, ring.weights)) == d:
            found.add(exps)
    return found


def series_coefficients(weights, limit):
    """Coefficients of prod_i 1/(1 - t^{w_i}) up to t^limit, by convolution."""
    coeffs = [1] + [0] * limit
    for w in weights:
        geometric = [1 if j % w == 0 else 0 for j in range(limit + 1)]
        out = [0] * (limit + 1)
        for a in range(limit + 1):
            if coeffs[a] == 0:
                continue
            for b in range(0, limit + 1 - a):
                out[a + b] += coeffs[a] * geometric[b]
        coeffs = out
    return coeffs


def test_monomial_basis_standard_weights():
    r = ring2()
    assert monomial_basis(r, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(r, -1) == ()


def test_monomial_basis_weighted():
    r = ring2(weights=(1, 2))
    assert monomial_basis(r, 4) == ((4, 0), (2, 1), (0, 2))


def test_monomial_basis_matches_brute_force():
    for weights in ((1, 1), (1, 2), (2, 3)):
        r = ring2(weights=weights)
        for d in range(-1, 9):
            basis = monomial_basis(r, d)
            assert len(set(basis)) == len(basis)
            assert set(basis) == brute_force_basis(r, d)


def test_basis_sizes_match_generating_function():
    for weights in ((1,), (1, 1), (1, 2), (2, 2, 3)):
        names = ["x", "y", "z"][: len(weights)]
        r = GradedRing(FP, names, weights)
        coeffs = series_coefficients(weights, 12)
        for d in range(13):
            assert len(monomial_basis(r, d)) == coeffs[d]


def test_ring_validation():
    with pytest.raises(ValueError):
        GradedRing(FP, [], [])
    with pytest.raises(ValueError):
        GradedRing(FP, ["x", "x"], [1, 1])
    with pytest.raises(ValueError):
        GradedRing(FP, ["x"], [0])
    # a name that polynomial text would read as something else
    for name in ("", "1", "x y", "x^2", " x", "x-y", "2x"):
        with pytest.raises(ValueError, match="variable name"):
            GradedRing(FP, [name, "z"], [1, 1])


def test_mult_matrix_one_and_zero():
    r = ring2()
    assert mult_matrix(r.one(), 2).entries == tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )
    z = mult_matrix(r.zero(), 2)
    assert z.is_zero() and z.rows == 3 and z.cols == 3


def test_mult_matrix_by_x():
    r = ring2()
    m = mult_matrix(r.variable(0), 1)
    # {x, y} -> {x^2, xy, y^2}: columns e1, e2
    assert m.entries == ((1, 0), (0, 1), (0, 0))


def test_mult_matrix_functorial():
    r = ring2()
    rng = random.Random(23)
    pool = ["x", "y", "x+y", "x^2", "x*y - y^2"]
    for _ in range(8):
        f = parse_poly(r, rng.choice(pool))
        g = parse_poly(r, rng.choice(pool))
        d = rng.randint(0, 4)
        lhs = mult_matrix(f * g, d)
        rhs = mult_matrix(g, d + f.degree()) @ mult_matrix(f, d)
        assert lhs == rhs


def test_mult_matrix_rejects_inhomogeneous():
    r = ring2()
    mult_matrix(parse_poly(r, "x"), 1)
    blocks = len(r._mult_cache)
    # the block is never cached, so a second call checks again
    for _ in range(2):
        with pytest.raises(NonHomogeneousError):
            mult_matrix(parse_poly(r, "x + x^2"), 1)
    assert len(r._mult_cache) == blocks


def lex_basis(weights, d):
    """Exponent vectors of degree d, largest first in lex order: graded-lex
    order within one degree, found with no engine code."""
    def rec(i, rem):
        if i == len(weights) - 1:
            return [(rem // weights[i],)] if rem % weights[i] == 0 else []
        w = weights[i]
        return [(e,) + rest for e in range(rem // w + 1) for rest in rec(i + 1, rem - e * w)]

    return sorted(rec(0, d), reverse=True) if d >= 0 else []


def reference_mult_matrix(f, d):
    """Rows of multiplication by f on R_d, accumulated entry by entry in a dict."""
    ring, p = f.ring, f.ring.field.characteristic
    deg = ring.exponent_degree(next(iter(f.terms))) if f.terms else 0
    src = lex_basis(ring.weights, d)
    dst = {m: i for i, m in enumerate(lex_basis(ring.weights, d + deg))}
    acc = {}
    for j, mono in enumerate(src):
        for exp, c in f.terms.items():
            key = (dst[tuple(a + b for a, b in zip(exp, mono))], j)
            acc[key] = acc.get(key, 0) + c
    zero = Fraction(0) if p == 0 else 0
    return tuple(
        tuple(acc.get((i, j), zero) % p if p else acc.get((i, j), zero) for j in range(len(src)))
        for i in range(len(dst))
    )


@settings(max_examples=80)
@given(
    data=st.data(),
    field=st.sampled_from((FieldSpec(2), FieldSpec(3), FP, QQ)),
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    d=st.integers(-1, 8),
)
def test_mult_matrix_matches_a_dense_reference(data, field, weights, d):
    ring = GradedRing(field, [f"x{i}" for i in range(len(weights))], weights)
    deg = data.draw(st.integers(0, 4))
    monos = lex_basis(weights, deg)
    chosen = data.draw(st.lists(st.sampled_from(monos), max_size=4, unique=True)) if monos else []
    coeffs = st.fractions(-3, 3, max_denominator=3) if field.is_rational else st.integers(-5, 5)
    f = Poly(ring, {m: data.draw(coeffs) for m in chosen})
    assert mult_matrix(f, d).entries == reference_mult_matrix(f, d)


def test_mult_matrix_on_64_variables():
    names = [f"x{i}" for i in range(64)]
    ring = GradedRing(FP, names, [1] * 64)
    f = parse_poly(ring, "x0 + 2*x17 - x63")
    m = mult_matrix(f, 1)
    assert (m.rows, m.cols) == (64 * 65 // 2, 64)
    assert m.entries == reference_mult_matrix(f, 1)


def test_mult_matrix_with_mixed_weights_past_int64():
    # 25 variables of weight 2 and z of weight 121: dim R_121 = 1 (only z),
    # but the degree-118 monomials in all 26 variables number C(83, 24) > 2^63.
    # Enumerating R_121 and R_123 walks that many prefixes, so their bases
    # (z, and x_i z) are given.
    names = [f"x{i}" for i in range(25)] + ["z"]
    ring = GradedRing(FP, names, [2] * 25 + [121])
    z = (0,) * 25 + (1,)
    ring._basis_cache[121] = (z,)
    ring._basis_cache[123] = tuple(z[:i] + (1,) + z[i + 1:] for i in range(25))
    assert mult_matrix(ring.variable(25), 0).entries == ((1,),)
    # x1 * z is the second of the 25 monomials x_i z of R_123
    assert mult_matrix(ring.variable(1), 121).entries == tuple((int(i == 1),) for i in range(25))


def test_mult_matrix_cache_hit_reads_no_degree(monkeypatch):
    r = ring2()
    first = mult_matrix(parse_poly(r, "x^2 + x*y"), 3)
    monkeypatch.setattr(Poly, "degree", lambda self: pytest.fail("degree() on a cache hit"))
    assert mult_matrix(parse_poly(r, "x*y + x^2"), 3) is first


def test_terms_shared_at_one_degree_share_their_positions():
    r = GradedRing(FP, ["x", "y", "z"], [1, 2, 1])
    mult_matrix(parse_poly(r, "x^2 + y"), 3)
    positions = r._scatter_cache[((0, 1, 0), 3)]
    before = len(r._scatter_cache)
    mult_matrix(parse_poly(r, "y - z^2"), 3)
    assert r._scatter_cache[((0, 1, 0), 3)] is positions
    assert len(r._scatter_cache) == before + 1


def test_parse_basic_forms():
    r = ring2()
    p = parse_poly(r, "x^2*y - 3*y^3")
    assert len(p.terms) == 2
    assert p.is_homogeneous() and p.degree() == 3
    assert parse_poly(r, "0").is_zero()
    assert parse_poly(r, "x + x") == parse_poly(r, "2*x")


def test_parse_format_roundtrip():
    r = ring2()
    for text in ("x^2*y - 3*y^3", "x + y", "2*x^4", "x*y", "7", "0"):
        p = parse_poly(r, text)
        assert parse_poly(r, format_poly(p)) == p


def test_parse_errors_carry_position():
    r = ring2()
    with pytest.raises(ParseError) as err:
        parse_poly(r, "x^")
    assert err.value.position == 2
    with pytest.raises(UnknownVariableError):
        parse_poly(r, "x*t")
    with pytest.raises(ParseError):
        parse_poly(r, "x 2")  # implicit products are not in the grammar


def test_poly_arithmetic_and_power():
    r = ring2(field=QQ)
    x, y = r.variables()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 3 == x**3 + x**2 * y * Poly(r, {(0, 0): 3}) + x * y**2 * Poly(
        r, {(0, 0): 3}
    ) + y**3
    assert (x**0) == r.one()


FIELDS = (FieldSpec(2), FieldSpec(3), FP, QQ)


def assert_canonical(p):
    """p is what the validating constructor makes of its terms: the same
    terms, no zero and only canonical coefficients, equal with one hash, and
    its kept degree is that of a fresh recomputation."""
    ring, field = p.ring, p.ring.field
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == ring.nvars
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is (Fraction if field.is_rational else int)
        assert c != 0 and field.normalize(c) == c
    ref = Poly(ring, p.terms)
    assert ref.terms == p.terms and ref == p and p == ref and hash(ref) == hash(p)
    degs = {ring.exponent_degree(e) for e in p.terms}
    if len(degs) > 1:
        assert not p.is_homogeneous()
        for _ in range(2):
            with pytest.raises(NonHomogeneousError):
                p.degree()
    else:
        assert p.is_homogeneous()
        assert p.degree() == ref.degree() == (degs.pop() if degs else None)


@st.composite
def ring_and_polys(draw):
    """A ring over one of the fields and a few polynomials from the public
    constructor: monomials and not, homogeneous and not, on a small set of
    exponents so that sums and products cancel."""
    field = draw(st.sampled_from(FIELDS))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = GradedRing(field, [f"x{i}" for i in range(len(weights))], weights)
    exps = st.tuples(*[st.integers(0, 2) for _ in weights])
    coeffs = st.fractions(-3, 3, max_denominator=3) if field.is_rational else st.integers(-7, 7)
    polys = []
    for _ in range(3):
        terms = draw(st.dictionaries(exps, coeffs, max_size=draw(st.sampled_from((1, 1, 3)))))
        p = Poly(ring, terms)
        if draw(st.booleans()):
            p.is_homogeneous()  # keep its degree before p is an operand
        polys.append(p)
    return ring, polys


@settings(max_examples=150)
@given(drawn=ring_and_polys(), c=st.integers(-40000, 40000), k=st.integers(0, 3))
def test_trusted_arithmetic_matches_the_validating_constructor(drawn, c, k):
    ring, (a, b, m) = drawn
    for p in (a, b, m):
        assert_canonical(p)
    results = [a * b, b * a, a * m, a + b, a - b, a - a, a + (-a), -a, a.scale(c), a.scale(0),
               a**k, (a + b) * (a - b), a * b - b * a, ring.one(), ring.zero(), ring.variable(0)]
    for p in results:
        assert p.ring is ring
        assert_canonical(p)
    assert (a - a).is_zero() and (a * b - b * a).is_zero() and a.scale(0).is_zero()
    x = ring.variable(0)
    assert x * x == x**2 == Poly(ring, {(2,) + (0,) * (ring.nvars - 1): 1})


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_non_homogeneous_sum_raises_on_every_degree_call(field):
    r = ring2((1, 2), field)
    x, y = r.variables()
    for p in (x + y, x * x + y + y.scale(-1) + x, (x + y) ** 2, -(x + y), (x + y).scale(5)):
        assert not p.is_homogeneous()
        for _ in range(3):
            with pytest.raises(NonHomogeneousError):
                p.degree()
    # a product of homogeneous polynomials has the sum of their degrees
    f = x * x + y
    assert f.degree() == 2 and (f * f).degree() == 4 and (f * x).degree() == 3


@pytest.mark.parametrize(
    "exp", [(-1, 0), (0, -2), (1,), (1, 0, 0), ()],
    ids=["neg-x", "neg-y", "short", "long", "empty"],
)
def test_poly_rejects_a_bad_exponent_vector(exp):
    with pytest.raises(ValueError, match="bad exponent vector"):
        Poly(ring2(), {exp: 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        Poly(ring2(), {(1, 1): 2, exp: 0})
