"""Truncated colimits, lim/lim1, pro-zero certificates, annihilator bounds."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import exact, towers
from lochom.errors import OrderError
from lochom.exact import ExactMatrix, FieldSpec, StrandSpace, rank
from lochom.koszul import INVERSE
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import FreeModule, PresentedModule
from lochom.rings import GradedRing, parse_poly
from lochom.towers import (
    StrandTower,
    _Memo,
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
        StrandTower([full(1), full(2)], [ExactMatrix.identity(FP, 1)], "direct")
    with pytest.raises(ValueError):
        StrandTower([full(1), full(1)], [], "inverse")


def test_a_lazy_tower_builds_and_checks_each_transition_once():
    built = []

    def build(j):
        built.append(j)
        return ExactMatrix.identity(FP, 1)

    tower = StrandTower(_Memo(4, lambda k: full(1)), _Memo(3, build), "inverse")
    assert built == []
    assert tower.transitions[-1] is tower.transitions[2]
    assert tower.transitions[:2] == (tower.transitions[0], tower.transitions[1])
    assert built == [2, 0, 1]
    for j in (3, -4):
        with pytest.raises(IndexError):
            tower.transitions[j]
    assert lim_lim1_truncated(tower, 2).dim == 1
    assert built == [2, 0, 1]


def test_colim_constant_identities():
    tower = constant_tower(3, 5, "direct")
    assert colim_truncated(tower, 2) == (3, True, 1)


def test_colim_not_yet_stable():
    # 0 -> 0 -> k with s = 2: the final transition is not an isomorphism
    stages = [full(0), full(0), full(1)]
    transitions = [ExactMatrix.zeros(FP, 0, 0), ExactMatrix.zeros(FP, 1, 0)]
    tower = StrandTower(stages, transitions, "direct")
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
    assert res.dim == 4
    assert res.stabilized and res.k_used == 1


def test_lim_pro_zero_tower():
    stages = [full(2) for _ in range(6)]
    transitions = [ExactMatrix.zeros(FP, 2, 2) for _ in range(5)]
    tower = StrandTower(stages, transitions, "inverse")
    res = lim_lim1_truncated(tower, 2)
    assert res.dim == 0
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
        # the truncation reports no lim1: it is the cokernel of the reference's
        # shifted-difference map, which is onto
        assert reference_lim_lim1(tower, 2)[1] == 0


def test_lim_image_dims_match_composites():
    # on towers of finite-dimensional strands lim is the rank of the composite
    # from the top into the lowest level used
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
            levels_used = length if res.stabilized else max(1, length - s)
            assert res.dim == rank(tower.composite(length, levels_used))


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
    # each per-degree tower reports lim = 0
    for tower in towers[:-1]:
        assert lim_lim1_truncated(tower, 2).dim == 0


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


@pytest.mark.parametrize(
    "tower, levels, ranks",
    [
        (constant_tower(2, 5, "inverse"), 5, 4),
        (StrandTower([full(2)] * 6, [ExactMatrix.zeros(FP, 2, 2)] * 5, "inverse"), 4, 2),
    ],
    ids=["stabilized", "pro-zero"],
)
def test_lim_eliminates_once_per_trusted_level(tower, levels, ranks, monkeypatch):
    # at most one elimination per trusted level, and every one of them a rank:
    # no echelon form, column basis or solve
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("rank", "rref_with_pivots", "column_basis", "solve_columns"):
        wrapper = counted(name, getattr(exact, name))
        for module in (exact, towers):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    res = lim_lim1_truncated(tower, 2)
    assert (tower.length if res.stabilized else max(1, tower.length - 2)) == levels
    assert calls == {"rank": ranks}
    assert ranks <= levels


ZERO_TOWER = StrandTower([full(2)] * 6, [ExactMatrix.zeros(FP, 2, 2)] * 5, "inverse")
IDENTITY_TOWER = constant_tower(2, 5, "inverse")


@pytest.mark.parametrize(
    "tower, ranked",
    [
        (ZERO_TOWER, [ZERO_TOWER.transitions[4], ZERO_TOWER.composite(6, 4)]),
        (IDENTITY_TOWER, list(IDENTITY_TOWER.transitions[::-1])),
    ],
    ids=["pro-zero", "stabilized"],
)
def test_lim_ranks_only_the_iso_run_and_the_difference_map(tower, ranked, monkeypatch):
    # one rank per transition of the top isomorphism run, up to its first
    # non-isomorphism, and one for the composite into the lowest trusted level
    # unless that level is the top; the difference map itself is never built
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(towers, "rank", counted)
    lim_lim1_truncated(tower, 2)
    assert calls == ranked


def reference_lim_lim1(tower, s):
    """The truncated lim/lim1 as kernel and cokernel of the shifted-difference
    map (w_j) -> (w_j - r_j w_{j+1}) on the stable images W_j = im(V_K -> V_j),
    built from one echelon form per trusted level: its pivot columns are a
    basis of W_j, and its entries in the pivot columns of level j+1 are the
    restricted transition r_j : W_{j+1} -> W_j."""
    k = tower.length
    field = tower.stages[0].field
    run = 0
    for t in reversed(tower.transitions):
        if not (t.rows == t.cols == rank(t)):
            break
        run += 1
    stable = run >= s
    k_used = k - run if stable else k
    levels = k if stable else max(1, k - s)
    bases = [None] * levels
    restricted = [None] * (levels - 1)
    pivots_above = ()
    top = ExactMatrix.identity(field, tower.stages[k - 1].dim)
    for j in range(k, 0, -1):
        if j < k:
            top = tower.transitions[j - 1] @ top
        if j > levels:
            continue
        red, pivots = exact.rref_with_pivots(top)
        bases[j - 1] = top.columns(pivots)
        if j < levels:
            r_j = red.columns(pivots_above).take_rows(range(len(pivots)))
            assert bases[j - 1] @ r_j == tower.transitions[j - 1] @ bases[j]
            restricted[j - 1] = r_j
        pivots_above = pivots
    dims = [b.cols for b in bases]
    r = rank(shifted_difference(field, dims, restricted))
    return (sum(dims) - r, sum(dims[:-1]) - r, stable, k_used, levels)


def shifted_difference(field, dims, blocks):
    """The map (w_j)_{j<=L} -> (w_j - blocks[j] w_{j+1})_{j<L}."""
    placed = {}
    for j in range(len(dims) - 1):
        placed[j, j] = ExactMatrix.identity(field, dims[j])
        placed[j, j + 1] = -blocks[j]
    return ExactMatrix.assemble(field, placed, dims[:-1], dims)


REF_FIELDS = [FieldSpec(2), FieldSpec(3), FP, FieldSpec(0)]


def _matrix(draw, field, rows, cols):
    entries = st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols)
    flat = draw(entries)
    if not rows:
        return ExactMatrix.zeros(field, 0, cols)
    return ExactMatrix.from_rows(field, [flat[r * cols:(r + 1) * cols] for r in range(rows)], cols)


@st.composite
def _inverse_towers(draw):
    field = draw(st.sampled_from(REF_FIELDS))
    length = draw(st.integers(1, 8))
    if draw(st.integers(0, 9)) < 3:
        # identity-heavy: one dimension throughout, most transitions identities
        dims = [draw(st.integers(0, 4))] * length
        identity = st.integers(0, 3).map(bool)
    else:
        dims = draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))
        identity = st.just(False)
    transitions = [
        ExactMatrix.identity(field, dims[j]) if draw(identity)
        else _matrix(draw, field, dims[j], dims[j + 1])
        for j in range(length - 1)
    ]
    return StrandTower([StrandSpace(ExactMatrix.zeros(field, d, 0)) for d in dims],
                       transitions, "inverse")


@settings(max_examples=150)
@given(tower=_inverse_towers(), s=st.integers(1, 3))
def test_lim_matches_the_shifted_difference_reference(tower, s):
    res = lim_lim1_truncated(tower, s)
    levels_used = tower.length if res.stabilized else max(1, tower.length - s)
    assert (res.dim, 0, res.stabilized, res.k_used, levels_used) == reference_lim_lim1(tower, s)


@settings(max_examples=150)
@given(data=st.data(), field=st.sampled_from(REF_FIELDS),
       dims=st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_shifted_difference_has_full_row_rank_for_any_blocks(data, field, dims):
    # the blocks need not come from a tower: the identity blocks on the
    # diagonal alone make the map onto, so the truncated lim1 is always 0
    blocks = [_matrix(data.draw, field, dims[j], dims[j + 1]) for j in range(len(dims) - 1)]
    assert rank(shifted_difference(field, dims, blocks)) == sum(dims[:-1])
