"""Directed systems and towers of strand spaces at finite truncation.

Every limit statement here is truncated at a finite stage count with explicit
stabilization flags; there are no effective bounds, so honesty lives in the
flags.  For an inverse tower the truncated lim/lim1 are computed as kernel and
cokernel of the shifted-difference map on the tower of top-stage images
im(V_K -> V_j), restricted to the levels j <= K - s that the truncation can
vouch for; on towers of finite-dimensional spaces that map is onto, which is
the Mittag-Leffler vanishing of lim1 in computable form.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import OrderError
from .exact import ExactMatrix, StrandSpace, column_basis, rank, solve_columns
from .modules import PresentedModule, annihilator_strand, degree_window
from .rings import Poly

__all__ = [
    "StrandTower",
    "ColimitResult",
    "LimLim1Result",
    "ProZeroReport",
    "AnnihilatorBound",
    "colim_truncated",
    "lim_lim1_truncated",
    "pro_zero_certificate",
    "annihilator_bound",
    "direct_sum_towers",
]

DIRECTED = "directed"
INVERSE = "inverse"


class StrandTower:
    """Stages V_1..V_K with transitions between consecutive stages.

    directed: transitions[j] maps stage j+1 to stage j+2 (V_k -> V_{k+1});
    inverse:  transitions[j] maps stage j+2 to stage j+1 (V_{k+1} -> V_k).
    Transition matrices act on coset coordinates of the stage spaces.
    """

    __slots__ = ("stages", "transitions", "direction")

    def __init__(self, stages, transitions, direction: str):
        stages = tuple(stages)
        transitions = tuple(transitions)
        if direction not in (DIRECTED, INVERSE):
            raise ValueError(f"unknown tower direction {direction!r}")
        if len(transitions) != max(len(stages) - 1, 0):
            raise ValueError("need exactly one transition between consecutive stages")
        for j, t in enumerate(transitions):
            if direction == DIRECTED:
                want = (stages[j + 1].dim, stages[j].dim)
            else:
                want = (stages[j].dim, stages[j + 1].dim)
            if (t.rows, t.cols) != want:
                raise ValueError(f"transition {j} has shape {(t.rows, t.cols)}, expected {want}")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, name, value):
        raise AttributeError("StrandTower is immutable")

    @property
    def length(self) -> int:
        return len(self.stages)

    def dims(self):
        return tuple(s.dim for s in self.stages)

    def composite(self, k: int, l: int) -> ExactMatrix:
        """Composite transition between 1-based stages (directed: k<=l, inverse: k>=l)."""
        field = self.stages[0].field
        if self.direction == DIRECTED:
            if k > l:
                raise OrderError("directed composites need k <= l")
            out = ExactMatrix.identity(field, self.stages[k - 1].dim)
            for j in range(k - 1, l - 1):
                out = self.transitions[j] @ out
            return out
        if k < l:
            raise OrderError("inverse composites need k >= l")
        out = ExactMatrix.identity(field, self.stages[k - 1].dim)
        for j in range(k - 2, l - 2, -1):
            out = self.transitions[j] @ out
        return out


class ColimitResult(NamedTuple):
    dim: int
    stabilized: bool
    k_used: int


def _is_iso(m: ExactMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def colim_truncated(tower: StrandTower, stab_window: int) -> ColimitResult:
    """Final-stage dim; stabilized iff the last ``stab_window`` transitions are isos.

    When stabilized, k_used is the first stage of the maximal run of
    isomorphisms ending at the top; otherwise k_used is the stage count.
    """
    if tower.direction != DIRECTED:
        raise OrderError("colim_truncated expects a directed tower")
    if stab_window < 1:
        raise ValueError("stab_window must be >= 1")
    k = tower.length
    final_dim = tower.stages[-1].dim
    if k - 1 < stab_window:
        return ColimitResult(final_dim, False, k)
    iso = [_is_iso(t) for t in tower.transitions]
    if not all(iso[-stab_window:]):
        return ColimitResult(final_dim, False, k)
    first = k - 1
    while first - 1 >= 1 and iso[first - 2]:
        first -= 1
    return ColimitResult(final_dim, True, first)


class LimLim1Result(NamedTuple):
    lim_dim: int
    lim1_dim: int
    stabilized: bool
    k_used: int
    ml_stable: bool
    levels_used: int
    image_dims: tuple


def lim_lim1_truncated(tower: StrandTower, stab_window: int = 2) -> LimLim1Result:
    """Kernel/cokernel dims of the truncated shifted-difference map.

    The map is built on the stable-image subtower W_j = im(V_K -> V_j).  When
    the last ``stab_window`` transitions are isomorphisms the tower is
    declared stabilized and all K levels enter (the kernel then reports the
    settled top dimension, with k_used the start of the isomorphism run);
    otherwise only the trusted levels j <= K - stab_window enter, which in
    particular reports 0 whenever the composite into every trusted level has
    died (the pro-zero case).  The cokernel dim is lim1; on towers of
    finite-dimensional strands the restricted transitions are onto, so it
    vanishes, but it is computed rather than assumed.  The ML flag records
    whether the image dims im(V_k -> V_j) were constant over the last
    ``stab_window`` stages for every level.
    """
    if tower.direction != INVERSE:
        raise OrderError("lim_lim1_truncated expects an inverse tower")
    if stab_window < 1:
        raise ValueError("stab_window must be >= 1")
    k = tower.length
    field = tower.stages[0].field
    iso = [_is_iso(t) for t in tower.transitions]
    tail_stable = k - 1 >= stab_window and all(iso[-stab_window:])
    k_used = k
    if tail_stable:
        first = k - 1
        while first - 1 >= 1 and iso[first - 2]:
            first -= 1
        k_used = first
        levels = k
    else:
        levels = max(1, k - stab_window)
    # composites V_kk -> V_j for the top window of stages kk, j walking down:
    # the one into V_j is transitions[j-1] times the one into V_{j+1}
    window = {}
    ml_stable = True
    image_dims = [0] * k
    bases = [None] * levels
    for j in range(k, 0, -1):
        window = {kk: tower.transitions[j - 1] @ m for kk, m in window.items()}
        if j >= k - stab_window:
            window[j] = ExactMatrix.identity(field, tower.stages[j - 1].dim)
        ranks = [rank(m) for m in window.values()]  # window[k] comes first
        image_dims[j - 1] = ranks[0]
        if any(r != ranks[0] for r in ranks):
            ml_stable = False
        if j <= levels:
            bases[j - 1] = column_basis(window[k])
    restricted = []
    for j in range(levels - 1):
        imgs = tower.transitions[j] @ bases[j + 1]
        restricted.append(solve_columns(bases[j], imgs))
    dims = [b.cols for b in bases]
    total_src = sum(dims)
    total_tgt = sum(dims[:-1])
    if total_tgt == 0:
        return LimLim1Result(
            dims[-1] if dims else 0, 0, tail_stable, k_used, ml_stable, levels, tuple(image_dims)
        )
    grid = []
    for j in range(levels - 1):
        row = []
        for j2 in range(levels):
            if j2 == j:
                row.append(ExactMatrix.identity(field, dims[j]))
            elif j2 == j + 1:
                row.append(-restricted[j])
            else:
                row.append(None)
        grid.append(row)
    varpi = ExactMatrix.assemble(field, grid, dims[:-1], dims)
    r = rank(varpi)
    return LimLim1Result(
        total_src - r, total_tgt - r, tail_stable, k_used, ml_stable, levels, tuple(image_dims)
    )


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

    def __bool__(self):
        return self.success

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
        found = None
        for k in range(l, k_max + 1):
            if tower.composite(k, l).is_zero():
                found = k
                break
        if found is None:
            unresolved.append(l)
        else:
            resolved[l] = found
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


def _full_space(field, dim: int) -> StrandSpace:
    return StrandSpace(ExactMatrix.zeros(field, dim, 0))


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
        stages.append(_full_space(field, sum(t.stages[j].dim for t in towers)))
    transitions = []
    for j in range(length - 1):
        if direction == DIRECTED:
            row_dims = [t.stages[j + 1].dim for t in towers]
            col_dims = [t.stages[j].dim for t in towers]
        else:
            row_dims = [t.stages[j].dim for t in towers]
            col_dims = [t.stages[j + 1].dim for t in towers]
        grid = [
            [t.transitions[j] if bi == bj else None for bj in range(len(towers))]
            for bi, t in enumerate(towers)
        ]
        transitions.append(ExactMatrix.assemble(field, grid, row_dims, col_dims))
    return StrandTower(stages, transitions, direction)
