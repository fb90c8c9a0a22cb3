"""Direct systems and inverse towers of strand spaces at finite truncation.

Every limit statement here is truncated at a finite stage count with explicit
stabilization flags; there are no effective bounds, so honesty lives in the
flags.  For an inverse tower the truncated lim is one rank: that of the
composite from the top stage into the lowest level j <= K - s that the
truncation can vouch for.  No lim1 is reported.  The shifted-difference map
on the tower of top-stage images im(V_K -> V_j), whose cokernel it would be,
is onto for any transitions, so the truncated lim1 is the constant 0; the
true lim1 of a tower of finite-dimensional spaces vanishes by
Mittag-Leffler, a fact the truncation does not witness.  A local homology
row i takes its dim from the H_i tower; the H_{i+1} tower, whose lim1 the
exact sequence would add, only gates its flag and k_used.

A tower may be built lazily (``KoszulTowerSystem.homology_tower``): its stage
k and its transition j are computed the first time a reader asks for them and
kept after that.  Every reader walks from the top stage down, to the first
transition that is not an isomorphism (``_top_iso_run``, the one flag walk,
which also checks the direction and s >= 1) and then, for an unstabilized
lim, into level K - s, so the stages below that stop are never built.  The
entries do not depend on it: each reader takes its dims, flags and k_used
from the same matrices in the same top-first order as on a tower built in full.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import OrderError
from .exact import ExactMatrix, StrandSpace, _Frozen, rank
from .modules import PresentedModule, TableEntry, annihilator_strand, degree_window
from .rings import Poly

__all__ = [
    "StrandTower",
    "ProZeroReport",
    "AnnihilatorBound",
    "colim_truncated",
    "lim_lim1_truncated",
    "pro_zero_certificate",
    "annihilator_bound",
    "direct_sum_towers",
]

# the engine's one word for each direction of a system of stages V_1..V_K:
# transition j runs V_{j+1} -> V_{j+2} if direct, V_{j+2} -> V_{j+1} if inverse
DIRECT = "direct"
INVERSE = "inverse"


class _Memo(Sequence):
    """A sequence whose item j is ``build(j)``, computed at its first read and kept."""

    __slots__ = ("_build", "_items")

    def __init__(self, length: int, build):
        self._build = build
        self._items = [None] * length

    def __len__(self):
        return len(self._items)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[i] for i in range(len(self))[j])
        if j < 0:
            j = range(len(self._items))[j]
        item = self._items[j]
        if item is None:
            item = self._items[j] = self._build(j)
        return item


def _checked_transition(stages, direction: str, j: int, t: ExactMatrix) -> ExactMatrix:
    if direction == DIRECT:
        want = (stages[j + 1].dim, stages[j].dim)
    else:
        want = (stages[j].dim, stages[j + 1].dim)
    if (t.rows, t.cols) != want:
        raise ValueError(f"transition {j} has shape {(t.rows, t.cols)}, expected {want}")
    return t


class StrandTower(_Frozen):
    """Stages V_1..V_K with transitions between consecutive stages.

    direct:  transitions[j] maps stage j+1 to stage j+2 (V_k -> V_{k+1});
    inverse: transitions[j] maps stage j+2 to stage j+1 (V_{k+1} -> V_k).
    Transition matrices act on coset coordinates of the stage spaces.

    Stages and transitions given as lists are kept as tuples, and every
    transition's shape is checked here.  Given as ``_Memo`` sequences, each
    stage and transition is built at its first read and kept, and a
    transition's shape is checked when it is built: the tower keeps one memo
    of transitions, whose build is the given one followed by the check.
    """

    __slots__ = ("stages", "transitions", "direction")

    def __init__(self, stages, transitions, direction: str):
        if direction not in (DIRECT, INVERSE):
            raise ValueError(f"unknown tower direction {direction!r}")
        if not isinstance(stages, _Memo):
            stages = tuple(stages)
        lazy = isinstance(transitions, _Memo)
        if not lazy:
            transitions = tuple(transitions)
        if len(transitions) != max(len(stages) - 1, 0):
            raise ValueError("need exactly one transition between consecutive stages")
        if lazy:
            build = transitions._build
            transitions = _Memo(
                len(transitions), lambda j: _checked_transition(stages, direction, j, build(j))
            )
        else:
            for j, t in enumerate(transitions):
                _checked_transition(stages, direction, j, t)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "direction", direction)

    @property
    def length(self) -> int:
        return len(self.stages)

    def dims(self):
        return tuple(s.dim for s in self.stages)

    def composite(self, k: int, l: int) -> ExactMatrix:
        """Composite transition between 1-based stages (direct: k<=l, inverse: k>=l)."""
        if self.direction == DIRECT:
            if k > l:
                raise OrderError("direct composites need k <= l")
            steps = range(k - 1, l - 1)
        else:
            if k < l:
                raise OrderError("inverse composites need k >= l")
            steps = range(k - 2, l - 2, -1)
        top = self.stages[k - 1]
        out = ExactMatrix.identity(top.field, top.dim)
        for j in steps:
            out = self.transitions[j] @ out
        return out


def _is_iso(m: ExactMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def _top_iso_run(tower: StrandTower, direction: str, stab_window: int) -> tuple[bool, int]:
    """(stabilized, k_used) of a tower of the given direction, the one flag
    walk of both readers: whether each transition, top first, is an
    isomorphism, down to the first one that is not.  When stabilized, k_used
    is the first stage of that run; otherwise it is the stage count."""
    if tower.direction != direction:
        raise OrderError(f"expected a tower of direction {direction!r}, got {tower.direction!r}")
    if stab_window < 1:
        raise ValueError("stab_window must be >= 1")
    k = tower.length
    if k - 1 < stab_window:
        return False, k
    first = k
    for t in reversed(tower.transitions):
        if not _is_iso(t):
            break
        first -= 1
    if k - first < stab_window:
        return False, k
    return True, first


def colim_truncated(tower: StrandTower, stab_window: int) -> TableEntry:
    """Final-stage dim; stabilized iff the last ``stab_window`` transitions are isos."""
    stabilized, k_used = _top_iso_run(tower, DIRECT, stab_window)
    return TableEntry(tower.stages[-1].dim, stabilized, k_used)


def lim_lim1_truncated(tower: StrandTower, stab_window: int = 2) -> TableEntry:
    """lim of the inverse tower truncated to its trusted levels.

    When the last ``stab_window`` transitions are isomorphisms the tower is
    declared stabilized and all K levels are used (lim is then the settled top
    dimension, with k_used the start of the isomorphism run); otherwise only
    the trusted levels j <= K - stab_window are used, which in particular
    reports 0 whenever the composite into the lowest trusted level has died
    (the pro-zero case).

    With L levels and W_j = im(V_K -> V_j), the shifted-difference map
    (w_j)_{j<=L} -> (w_j - r_j w_{j+1})_{j<L}, r_j the restricted transitions,
    has identity blocks on its block diagonal, so it is onto for any r_j: its
    kernel (the truncated lim) has dim W_L = rank(V_K -> V_L), and its
    cokernel (the truncated lim1) is the constant 0, which is why no lim1 is
    returned.  The true lim1 of a tower of finite-dimensional strands
    vanishes as well, by Mittag-Leffler, but the truncation does not witness
    it; ``local_homology_table`` reads the entry of the H_{i+1} tower only
    for the flag and k_used of row i.
    """
    stabilized, k_used = _top_iso_run(tower, INVERSE, stab_window)
    k = tower.length
    levels = k if stabilized else max(1, k - stab_window)
    lim = tower.stages[k - 1].dim if levels == k else rank(tower.composite(k, levels))
    return TableEntry(lim, stabilized, k_used)


class ProZeroReport:
    """Certificate k(l): least stage k with composite V_k -> V_l zero."""

    __slots__ = ("resolved", "unresolved", "certified_through", "stages")

    def __init__(self, resolved, unresolved, stages):
        self.resolved = dict(resolved)
        self.unresolved = tuple(unresolved)
        self.stages = stages
        through = 0
        for l in range(1, stages):
            if l in self.resolved:
                through = l
            else:
                break
        self.certified_through = through

    @property
    def success(self) -> bool:
        return not self.unresolved

    def __repr__(self):
        return (
            f"ProZeroReport(resolved={self.resolved}, unresolved={list(self.unresolved)})"
        )


def pro_zero_certificate(tower: StrandTower) -> ProZeroReport:
    """For each l < K, the least k <= K with composite V_k -> V_l zero."""
    if tower.direction != INVERSE:
        raise OrderError("pro_zero_certificate expects an inverse tower")
    k_max = tower.length
    resolved = {}
    unresolved = []
    for l in range(1, k_max):
        # composite(k, l), extended by one transition per stage k
        composite = tower.composite(l, l)
        for k in range(l, k_max + 1):
            if k > l:
                composite = composite @ tower.transitions[k - 2]
            if composite.is_zero():
                resolved[l] = k
                break
        else:
            unresolved.append(l)
    return ProZeroReport(resolved, unresolved, k_max)


class AnnihilatorBound(NamedTuple):
    t: int | None
    dims_by_power: tuple

    @property
    def resolved(self) -> bool:
        return self.t is not None


def annihilator_bound(module: PresentedModule, f: Poly, window, k_probe: int) -> AnnihilatorBound:
    """Least t with (0 : f^t) = (0 : f^{t+1}) on every strand of the window.

    The chain of annihilators is ascending, so strandwise dimension equality
    is subspace equality.  Returns t = None when no t <= k_probe settles the
    chain inside the window (the caveat is the window itself).
    """
    if k_probe < 1:
        raise ValueError("k_probe must be >= 1")
    degrees = list(degree_window(window))
    dims = []
    for t in range(1, k_probe + 2):
        ft = f**t
        dims.append(tuple(annihilator_strand(module, ft, d).dim for d in degrees))
    for t in range(1, k_probe + 1):
        if dims[t - 1] == dims[t]:
            return AnnihilatorBound(t, tuple(dims))
    return AnnihilatorBound(None, tuple(dims))


def direct_sum_towers(towers) -> StrandTower:
    """Stagewise direct sum; transitions become block diagonal."""
    towers = list(towers)
    if not towers:
        raise ValueError("direct sum of no towers")
    direction = towers[0].direction
    length = towers[0].length
    field = towers[0].stages[0].field
    if any(t.direction != direction or t.length != length for t in towers):
        raise ValueError("towers must share direction and length")
    stages = []
    for j in range(length):
        dim = sum(t.stages[j].dim for t in towers)
        stages.append(StrandSpace(ExactMatrix.zeros(field, dim, 0)))
    transitions = []
    for j in range(length - 1):
        blocks = {(b, b): t.transitions[j] for b, t in enumerate(towers)}
        row_dims = [m.rows for m in blocks.values()]
        col_dims = [m.cols for m in blocks.values()]
        transitions.append(ExactMatrix.assemble(field, blocks, row_dims, col_dims))
    return StrandTower(stages, transitions, direction)
