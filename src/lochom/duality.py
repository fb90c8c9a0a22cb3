"""Graded duality checks: Matlis dual tables, Ext from validated resolutions,
local duality against the canonical twist, and the adjunction between derived
torsion and derived completion verified on truncated stable Cech complexes.

The graded canonical module of k[x_1..x_n] with weights w_i is the twist
R(-sum w_i); only Hilbert-table dimensions are ever asserted (the graded dual
replaces Hom into the injective hull, and dimension reflection d -> -d is its
computable shadow).
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    ModuleChainMap,
    ModuleComplex,
    hom_complex,
    hom_generators,
    homology_table,
    tensor,
    tensor_generators,
)
from .errors import NotRegularError, ResolutionValidationError
from .exact import _Frozen, rank
from .koszul import INVERSE, KoszulSpec, _checked_gens, koszul_complex, stable_cech_truncated
from .localcoh import local_cohomology_table
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    _coset_map,
    degree_window,
    strand,
)
from .rings import GradedRing

__all__ = [
    "matlis_dual_table",
    "ValidatedResolution",
    "validate_resolution",
    "koszul_resolution",
    "trivial_resolution",
    "ext_table",
    "local_duality_check",
    "dualizing_module_check",
    "gm_adjunction_check",
    "GMAdjunctionReport",
]


def matlis_dual_table(table: HilbertTable) -> HilbertTable:
    """Degree reflection (i, d) -> (i, -d); flags carried over."""
    return HilbertTable({(i, -d): entry for (i, d), entry in table.items()})


class ValidatedResolution(_Frozen):
    """Free complex in degrees >= 0 known to resolve a module on a window."""

    __slots__ = ("complex", "augmentation", "module", "window")

    def __init__(self, complex: ModuleComplex, augmentation: GradedMap, module: PresentedModule, window):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "augmentation", augmentation)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "window", (int(window[0]), int(window[1])))

    @property
    def length(self) -> int:
        return max(self.complex.support) if self.complex.support else 0


def _first_homology(complex: ModuleComplex, window):
    """The first (i, d, dim) with i >= 1 and dim H_i(complex)_d > 0, in
    ascending (d, i) order, or None; ``homology_table`` reads each degree from
    the top down, so H_i finds the kernel of d_{i+1} that H_{i+1} computed."""
    dims = homology_table(complex, (1, max(complex.support, default=0)), window).dims()
    nonzero = ((i, d, dim) for (i, d), dim in dims.items() if dim)
    return min(nonzero, key=lambda w: (w[1], w[0]), default=None)


def validate_resolution(
    complex: ModuleComplex, augmentation: GradedMap, module: PresentedModule, window
) -> ValidatedResolution:
    """Check exactness in degrees >= 1 and coker(d_1) = M strandwise on the window."""
    if complex.support and min(complex.support) < 0:
        raise ResolutionValidationError("resolutions live in homological degrees >= 0")
    if augmentation.source != complex.term(0) or augmentation.target != module.generators:
        raise ResolutionValidationError("augmentation endpoints do not match")
    if augmentation.internal_degree != 0:
        raise ResolutionValidationError("augmentation must preserve internal degree")
    witness = _first_homology(complex, window)
    if witness:
        i, d, dim = witness
        raise ResolutionValidationError(
            f"homology of the resolution is nonzero at (i={i}, d={d}): dim {dim}"
        )
    coker = PresentedModule(complex.differential(1))
    for d in degree_window(window):
        # unequal dims refuse the augmentation before its map is checked
        dim = strand(module, d).dim
        if strand(coker, d).dim != dim or rank(_coset_map(augmentation, coker, module, d)) != dim:
            raise ResolutionValidationError(
                f"augmentation is not an isomorphism onto the module at degree {d}"
            )
    return ValidatedResolution(complex, augmentation, module, window)


def koszul_resolution(f_list, window) -> ValidatedResolution:
    """Koszul complex of a regular sequence as a resolution of R/(f_1..f_c).

    Regularity is verified on the window: any nonvanishing H_i strand with
    i >= 1 raises NotRegularError carrying the witness (i, d, dim).
    """
    f_list = _checked_gens(f_list)
    ring = f_list[0].ring
    kc = koszul_complex(KoszulSpec(ring, f_list, 1, INVERSE))
    witness = _first_homology(kc, window)
    if witness:
        i, d, dim = witness
        raise NotRegularError(
            f"sequence is not regular: H_{i} has dim {dim} at internal degree {d}",
            witness=witness,
        )
    target = FreeModule(ring, [0])
    module = PresentedModule.quotient(target, [[f] for f in f_list])
    augmentation = GradedMap(kc.term(0), target, [[ring.one()]])
    return ValidatedResolution(kc, augmentation, module, window)


def trivial_resolution(free: FreeModule, window) -> ValidatedResolution:
    """A free module resolved by itself."""
    cx = ModuleComplex.stalk(free)
    module = PresentedModule.free(free)
    return ValidatedResolution(cx, GradedMap.identity(free), module, window)


def ext_table(resolution: ValidatedResolution, twist: int, j_range, window) -> HilbertTable:
    """Dims of Ext^j(M, R(twist))_d = H_{-j}(Hom(resolution, R(twist)))_d."""
    ring = resolution.complex.ring
    values = ModuleComplex.stalk(FreeModule(ring, [twist]))
    hom = hom_complex(resolution.complex, values)
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    inner = homology_table(hom, (-j_hi, -j_lo), window)
    return HilbertTable({(-i, d): entry for (i, d), entry in inner.items()})


def local_duality_check(
    resolution: ValidatedResolution, i_range, window, k_max: int = 10, s: int = 2
) -> CheckReport:
    """dim H^i_m(M)_d = dim Ext^{n-i}(M, R(-sum w))_{-d} on stabilized entries.

    The left side is computed from Koszul towers on the full variable ideal;
    the right side from the validated resolution.  Unstabilized entries are
    skipped and listed.
    """
    ring = resolution.complex.ring
    n = ring.nvars
    omega = -sum(ring.weights)
    lhs = local_cohomology_table(
        ring.variables(), resolution.module, i_range, window, k_max, s
    )
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    d_lo, d_hi = int(window[0]), int(window[1])
    rhs = ext_table(resolution, omega, (n - i_hi, n - i_lo), (-d_hi, -d_lo))
    return CheckReport.compare(lhs, lambda i, d: rhs.dim(n - i, -d), omega)


def dualizing_module_check(ring: GradedRing, window, k_max: int = 10, s: int = 2) -> CheckReport:
    """Graded dual of the H^n_m(R) table must be the Hilbert row of R(-sum w)."""
    n = ring.nvars
    omega = -sum(ring.weights)
    free = PresentedModule.free(FreeModule(ring, [0]))
    top = local_cohomology_table(ring.variables(), free, (n, n), window, k_max, s)
    dual = matlis_dual_table(top)
    canonical = FreeModule(ring, [omega])
    return CheckReport.compare(dual, lambda i, d: canonical.strand_dim(d), omega)


# -- the adjunction between derived torsion and derived completion -------------

def _adjunction_chain_map(a: ModuleComplex, x: ModuleComplex, y: ModuleComplex) -> ModuleChainMap:
    """theta: Hom(A (x) X, Y) -> Hom(X, Hom(A, Y)), f -> (x -> (a -> (-1)^{st} f(a(x)x))).

    Both sides have one generator per label (s, alpha, t, chi, p): generator
    alpha of A_s, chi of X_t and p of Y_{s+t+i}.  theta sends each left
    generator to the right one of the same label, with the sign (-1)^{st}.
    """
    ax = tensor(a, x)
    left = hom_complex(ax, y)
    ha = hom_complex(a, y)
    right = hom_complex(x, ha)
    signs = (a.ring.one(), a.ring.constant(-1))
    ax_labels = {u: tensor_generators(a, x, u) for u in ax.support}
    ha_labels = {v: hom_generators(a, y, v) for v in ha.support}
    components = {}
    for i in left.support:
        left_gens = hom_generators(ax, y, i)
        column = {(*ax_labels[u][q], p): col for col, (u, q, p) in enumerate(left_gens)}
        entries = {}
        for row, (t, chi, g) in enumerate(hom_generators(x, ha, i)):
            s, alpha, p = ha_labels[t + i][g]
            entries[row, column[s, alpha, t, chi, p]] = signs[s * t % 2]
        components[i] = GradedMap(left.term(i), right.term(i), entries)
    return ModuleChainMap(left, right, components)


class GMAdjunctionReport(NamedTuple):
    """Outcome of :func:`gm_adjunction_check`.

    ``iso_failures`` lists the (i, d, rows, cols) where a strand matrix of
    theta is not invertible; ``tables`` compares the homology tables of the
    two sides cell by cell; ``left_table`` is the homology table of
    Hom(A (x) X, Y).  There is no chain-map flag: theta's constructor raises
    when theta does not commute with the differentials.
    """

    iso_failures: tuple
    tables: CheckReport
    left_table: HilbertTable

    @property
    def passed(self) -> bool:
        return not self.iso_failures and self.tables.passed


def gm_adjunction_check(gens, x: ModuleComplex, y: ModuleComplex, k_max: int, i_range, window) -> GMAdjunctionReport:
    """Verify Hom(A (x) X, Y) = Hom(X, Hom(A, Y)) for A the truncated stable Cech complex.

    Three independent checks: (a) the explicit adjunction map is a chain map
    (its constructor raises otherwise), (b) it is a strandwise isomorphism on
    the window, (c) the homology tables of both sides agree (computed
    separately on each side, so that (c) guards the homology machinery rather
    than following formally from (b)).
    """
    a = stable_cech_truncated(gens, k_max)
    theta = _adjunction_chain_map(a, x, y)
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    iso_failures = []
    for d in degree_window(window):
        for i in range(i_lo, i_hi + 1):
            mat = theta.component(i).strand_matrix(d)
            if mat.rows != mat.cols or rank(mat) != mat.rows:
                iso_failures.append((i, d, mat.rows, mat.cols))
    left_table = homology_table(theta.source, i_range, window)
    right_table = homology_table(theta.target, i_range, window)
    return GMAdjunctionReport(
        tuple(iso_failures), CheckReport.compare(left_table, right_table.dim), left_table
    )
