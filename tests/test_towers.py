"""Truncated colimits, lim/lim1, pro-zero certificates, annihilator bounds."""

import collections
import random

import pytest

from lochom import exact, towers
from lochom.errors import InternalInvariantError, OrderError
from lochom.exact import ExactMatrix, FieldSpec, StrandSpace, rank
from lochom.koszul import INVERSE
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import FreeModule, PresentedModule
from lochom.rings import GradedRing, parse_poly
from lochom.towers import (
    StrandTower,
    annihilator_bound,
    colim_truncated,
    direct_sum_towers,
    lim_lim1_truncated,
    pro_zero_certificate,
)

FP = FieldSpec(32003)


def full(dim):
    return StrandSpace(ExactMatrix.zeros(FP, dim, 0))


def matrix(rows):
    return ExactMatrix.from_rows(FP, rows)


def constant_tower(dim, length, direction):
    stages = [full(dim) for _ in range(length)]
    transitions = [ExactMatrix.identity(FP, dim) for _ in range(length - 1)]
    return StrandTower(stages, transitions, direction)


def test_tower_shape_validation():
    with pytest.raises(ValueError):
        StrandTower([full(1), full(2)], [ExactMatrix.identity(FP, 1)], "directed")
    with pytest.raises(ValueError):
        StrandTower([full(1), full(1)], [], "inverse")


def test_colim_constant_identities():
    tower = constant_tower(3, 5, "directed")
    assert colim_truncated(tower, 2) == (3, True, 1)


def test_colim_not_yet_stable():
    # 0 -> 0 -> k with s = 2: the final transition is not an isomorphism
    stages = [full(0), full(0), full(1)]
    transitions = [ExactMatrix.zeros(FP, 0, 0), ExactMatrix.zeros(FP, 1, 0)]
    tower = StrandTower(stages, transitions, "directed")
    assert colim_truncated(tower, 2) == (1, False, 3)


def test_colim_koszul_h0_tower():
    # {H_0(x^k; k[x])_{d=-2}}: dims 0,1,1,... with isomorphisms from stage 2
    r = GradedRing(FP, ["x"], [1])
    x = r.variable(0)
    module = PresentedModule.free(FreeModule(r, [0]))
    from lochom.koszul import DIRECT

    system = KoszulTowerSystem((x,), module, 8, DIRECT)
    contexts = system.contexts(-2)
    tower = system.homology_tower(contexts, 0)
    assert colim_truncated(tower, 2) == (1, True, 2)


def test_colim_requires_direction():
    with pytest.raises(OrderError):
        colim_truncated(constant_tower(1, 3, "inverse"), 2)


def test_lim_constant_identities():
    res = lim_lim1_truncated(constant_tower(4, 6, "inverse"), 2)
    assert (res.lim_dim, res.lim1_dim) == (4, 0)
    assert res.stabilized and res.k_used == 1


def test_lim_pro_zero_tower():
    stages = [full(2) for _ in range(6)]
    transitions = [ExactMatrix.zeros(FP, 2, 2) for _ in range(5)]
    tower = StrandTower(stages, transitions, "inverse")
    res = lim_lim1_truncated(tower, 2)
    assert (res.lim_dim, res.lim1_dim) == (0, 0)
    cert = pro_zero_certificate(tower)
    assert cert.success
    assert all(cert.resolved[l] == l + 1 for l in range(1, 6))


def test_lim1_zero_on_random_towers():
    rng = random.Random(17)
    for _ in range(10):
        length = rng.randint(2, 6)
        dims = [rng.randint(0, 4) for _ in range(length)]
        transitions = [
            matrix([[rng.randint(0, 5) for _ in range(dims[j + 1])] for _ in range(dims[j])])
            if dims[j] and dims[j + 1]
            else ExactMatrix.zeros(FP, dims[j], dims[j + 1])
            for j in range(length - 1)
        ]
        tower = StrandTower([full(d) for d in dims], transitions, "inverse")
        res = lim_lim1_truncated(tower, 2)
        assert res.lim1_dim == 0


def test_lim_image_dims_match_composites():
    # on towers of finite-dimensional strands lim is the rank of the composite
    # from the top into the lowest level used, and lim1 vanishes
    rng = random.Random(23)
    for _ in range(30):
        length = rng.randint(1, 7)
        dims = [rng.randint(0, 3) for _ in range(length)]
        transitions = [
            ExactMatrix.from_rows(
                FP, [[rng.choice([0, 0, 1, 2]) for _ in range(dims[j + 1])] for _ in range(dims[j])],
                cols=dims[j + 1],
            )
            for j in range(length - 1)
        ]
        tower = StrandTower([full(d) for d in dims], transitions, "inverse")
        for s in (1, 2, 3):
            res = lim_lim1_truncated(tower, s)
            want = rank(tower.composite(length, res.levels_used))
            assert (res.lim_dim, res.lim1_dim) == (want, 0)


def test_pro_zero_identity_tower_fails():
    cert = pro_zero_certificate(constant_tower(2, 5, "inverse"))
    assert not cert.success
    assert list(cert.unresolved) == [1, 2, 3, 4]


def test_pro_zero_koszul_power_tower():
    # {H_1(x^k; k[x]/(x^2))}: certificate k(l) = l + 2, matching t = 2
    r = GradedRing(FP, ["x"], [1])
    x = r.variable(0)
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2")]])
    system = KoszulTowerSystem((x,), m, 8, INVERSE)
    towers = []
    for d in range(0, 9):
        contexts = system.contexts(d)
        towers.append(system.homology_tower(contexts, 1))
    windowed = direct_sum_towers(towers)
    cert = pro_zero_certificate(windowed)
    for l in range(1, 7):
        assert cert.resolved[l] == l + 2
    assert cert.certified_through >= 6
    # each per-degree tower reports lim = lim1 = 0
    for tower in towers[:-1]:
        res = lim_lim1_truncated(tower, 2)
        assert (res.lim_dim, res.lim1_dim) == (0, 0)


def test_annihilator_bound_cases():
    r = GradedRing(FP, ["x"], [1])
    x = r.variable(0)
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2")]])
    assert annihilator_bound(m, x, (0, 4), 6).t == 2
    free = PresentedModule.free(FreeModule(r, [0]))
    assert annihilator_bound(free, x, (0, 4), 6).t == 1
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    assert annihilator_bound(zero, x, (0, 4), 6).t == 1


def test_annihilator_bound_unresolved():
    # window too small to see the chain settle is reported, not guessed
    r = GradedRing(FP, ["x", "y"], [1, 1])
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^6")]])
    x = r.variable(0)
    res = annihilator_bound(m, x, (0, 8), 3)
    assert res.t is None and not res.resolved


def test_lim_checks_each_restricted_transition(monkeypatch):
    real = towers.rref_with_pivots

    def perturbed(m):
        red, pivots = real(m)
        return red.scale(2), pivots

    monkeypatch.setattr(towers, "rref_with_pivots", perturbed)
    with pytest.raises(InternalInvariantError, match="restricted transition"):
        lim_lim1_truncated(constant_tower(2, 4, "inverse"), 2)


@pytest.mark.parametrize(
    "tower, levels",
    [
        (constant_tower(2, 5, "inverse"), 5),
        (StrandTower([full(2)] * 6, [ExactMatrix.zeros(FP, 2, 2)] * 5, "inverse"), 4),
    ],
    ids=["stabilized", "pro-zero"],
)
def test_lim_eliminates_once_per_trusted_level(tower, levels, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("rref_with_pivots", "column_basis", "solve_columns"):
        wrapper = counted(name, getattr(exact, name))
        for module in (exact, towers):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    res = lim_lim1_truncated(tower, 2)
    assert res.levels_used == levels
    assert calls == {"rref_with_pivots": levels}


@pytest.mark.parametrize(
    "tower, ranks",
    [
        (StrandTower([full(2)] * 6, [ExactMatrix.zeros(FP, 2, 2)] * 5, "inverse"), 1),
        (constant_tower(2, 5, "inverse"), 5),
    ],
    ids=["pro-zero", "stabilized"],
)
def test_lim_ranks_only_the_iso_run_and_the_difference_map(tower, ranks, monkeypatch):
    # one rank per transition of the top isomorphism run, up to its first
    # non-isomorphism, and one for the shifted-difference map when it is not empty
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(towers, "rank", counted)
    lim_lim1_truncated(tower, 2)
    assert len(calls) == ranks
