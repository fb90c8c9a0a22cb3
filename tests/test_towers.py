"""Truncated colimits, lim/lim1, pro-zero certificates, annihilator bounds."""

import random

import pytest

from lochom.errors import OrderError
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
            ranks = [
                [rank(tower.composite(kk, j)) for kk in range(max(j, length - s), length + 1)]
                for j in range(1, length + 1)
            ]
            assert res.image_dims == tuple(r[-1] for r in ranks)
            assert res.ml_stable == all(len(set(r)) == 1 for r in ranks)


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
