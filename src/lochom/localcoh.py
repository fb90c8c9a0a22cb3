"""Degreewise local cohomology and local homology via Koszul towers.

Local cohomology H^i of a module or bounded free complex is the truncated
colimit of the direct system {H_{n-i}(a^k (x) -)}_k with phi-induced
transitions; local homology H_i is the truncated lim of the inverse psi-tower
of H_i: one rank of a composite into a trusted level.  The lim1 term of
0 -> lim1 H_{i+1} -> H_i -> lim H_i -> 0 vanishes on towers of
finite-dimensional strands (Mittag-Leffler) and is not computed; the H_{i+1}
tower only gates the flag and k_used of row i.  Every table entry carries a
stabilization flag; for ideals that are not primary to the irrelevant maximal
ideal some strands never stabilize, and the honest answer is the last
computed dimension with stabilized=False.
"""

from __future__ import annotations

from .complexes import (
    StrandContext,
    hom_complex,
    homology_induced_matrix,
    homology_table,
)
from .exact import _Frozen
from .koszul import (
    DIRECT,
    INVERSE,
    _checked_gens,
    _stage_system,
    stable_cech_truncated,
)
from .modules import (
    CheckReport,
    HilbertTable,
    PresentedModule,
    TableEntry,
    degree_window,
)
from .towers import StrandTower, _Memo, colim_truncated, lim_lim1_truncated

__all__ = [
    "KoszulTowerSystem",
    "local_cohomology_table",
    "local_homology_table",
    "hom_stable_cech_table",
    "generator_independence_check",
]


class KoszulTowerSystem(_Frozen):
    """Stages K(a^k) (x) X for k = 1..k_max with their transition chain maps,
    as ``koszul._stage_system`` builds them: X is a complex or a module's
    stalk, and maps[j] runs C_j -> C_{j+1} (phi (x) X, direct convention) or
    C_{j+1} -> C_j (psi (x) X, inverse)."""

    __slots__ = ("convention", "complexes", "maps", "n")

    def __init__(self, gens, x, k_max: int, convention: str):
        gens = _checked_gens(gens)
        complexes, maps = _stage_system(gens, x, k_max, convention)
        object.__setattr__(self, "convention", convention)
        object.__setattr__(self, "complexes", tuple(complexes))
        object.__setattr__(self, "maps", tuple(maps))
        object.__setattr__(self, "n", len(gens))

    def homological_support(self):
        lo = min((min(c.support) for c in self.complexes if c.support), default=0)
        hi = max((max(c.support) for c in self.complexes if c.support), default=0)
        return lo, hi

    def contexts(self, d: int):
        return [StrandContext(c, d) for c in self.complexes]

    def homology_tower(self, contexts, h: int) -> StrandTower:
        """Tower of H_h strands across the stages, with induced transitions.

        Nothing is computed here: stage k is ``contexts[k].homology(h)`` and
        transition j is ``homology_induced_matrix`` between its two stages,
        each built at its first read (with its d∘d, chain-map and shape
        checks) and kept.  The readers walk from the top stage down, so a
        stage below the point where the walk stops is never built; in the
        inverse convention those are the largest strands.
        """

        def transition(j):
            src, tgt = (j, j + 1) if self.convention == DIRECT else (j + 1, j)
            return homology_induced_matrix(self.maps[j], contexts[src], contexts[tgt], h)

        stages = _Memo(len(contexts), lambda k: contexts[k].homology(h))
        return StrandTower(stages, _Memo(len(self.maps), transition), self.convention)


def local_cohomology_table(
    gens, x, i_range, window, k_max: int = 8, s: int = 2
) -> HilbertTable:
    """H^i at each internal degree of the window, as a truncated colimit.

    Entry (i, d) is colim_truncated over the direct tower of
    H_{n-i}(a^k; x)_d; unstabilized entries keep the last computed dimension
    and say so in the flag.
    """
    system = KoszulTowerSystem(gens, x, k_max, DIRECT)
    entries = {}
    for d in degree_window(window):
        contexts = system.contexts(d)
        for i in range(int(i_range[0]), int(i_range[1]) + 1):
            tower = system.homology_tower(contexts, system.n - i)
            entries[i, d] = colim_truncated(tower, s)
    return HilbertTable(entries)


def local_homology_table(
    gens, module: PresentedModule, i_range, window, k_max: int = 8, s: int = 2
) -> HilbertTable:
    """H_i at each internal degree, via lim on the inverse psi-towers.

    Entry (i, d) has the dim of the truncated lim of the H_i tower (see
    ``lim_lim1_truncated``).  Its flag and k_used come from both the H_i and
    the H_{i+1} towers, whose lim1 the exact sequence would add: it is 0 on
    towers of finite-dimensional strands by Mittag-Leffler, which the
    truncation does not witness.
    """
    system = KoszulTowerSystem(gens, module, k_max, INVERSE)
    lo, hi = system.homological_support()
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    # the towers that rows i_lo..i_hi read (H_i, and H_{i+1} for the flag), from the
    # top down, so that a stage of H_h finds the kernel of d_{h+1} that H_{h+1} computed
    hs = range(min(i_hi + 1, hi), max(i_lo, lo) - 1, -1)
    # a tower outside the homological support is zero at every stage
    outside = TableEntry(0, True, 1)
    entries = {}
    for d in degree_window(window):
        contexts = system.contexts(d) if hs else None
        lims = {}
        for h in hs:
            lims[h] = lim_lim1_truncated(system.homology_tower(contexts, h), s)
        for i in range(i_lo, i_hi + 1):
            lim, gate = lims.get(i, outside), lims.get(i + 1, outside)
            stable = lim.stabilized and gate.stabilized
            entries[i, d] = TableEntry(lim.dim, stable, max(lim.k_used, gate.k_used))
    return HilbertTable(entries)


def hom_stable_cech_table(gens, y, k_max: int, i_range, window) -> HilbertTable:
    """Homology table of Hom(truncated stable Cech complex, y).

    At truncation K this equals the stage-K Koszul cohomology data; entries
    are exact for the truncated complex, so they are flagged stabilized with
    k_used = K.
    """
    cx = hom_complex(stable_cech_truncated(gens, k_max), y)
    return homology_table(cx, i_range, window, k_used=k_max)


def generator_independence_check(
    gens_a, gens_b, x, i_range, window, k_max: int = 8, s: int = 2
) -> CheckReport:
    """Stabilized local cohomology entries must agree for two generating sets.

    The caller is responsible for the two lists generating the same ideal;
    that claim is recorded, not verified.  Unstabilized entries are skipped
    and listed.
    """
    table_a = local_cohomology_table(gens_a, x, i_range, window, k_max, s)
    table_b = local_cohomology_table(gens_b, x, i_range, window, k_max, s)

    def expected(i, d):
        entry = table_b.get(i, d)
        return entry.dim if entry.stabilized else None

    return CheckReport.compare(table_a, expected)
