"""Graded rings: monomial bases, multiplication matrices, the parser."""

import itertools
import random

import pytest

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
    with pytest.raises(NonHomogeneousError):
        mult_matrix(parse_poly(r, "x + x^2"), 1)


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
