"""Degreewise Koszul/Cech engine for graded local cohomology, local homology,
and duality checks over weighted-graded polynomial rings.

Everything is computed strandwise: a graded object is only ever touched
through its finite-dimensional internal-degree pieces, and all limits are
truncated towers with explicit stabilization flags.
"""

from .exact import (
    DEFAULT_PRIME,
    ExactMatrix,
    FieldSpec,
    QQ,
    StrandSpace,
    induced_map,
    kernel_basis,
    rank,
    rref_with_pivots,
)
from .rings import GradedRing, Poly, monomial_basis, mult_matrix, parse_poly
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    annihilator_strand,
    hilbert_row,
    mult_operator,
    strand,
)
from .complexes import (
    ChainMap,
    FreeComplex,
    ModuleChainMap,
    ModuleComplex,
    cone,
    hom_complex,
    hom_into_module,
    homology_table,
    quasi_iso_check,
    shift,
    tensor,
    tensor_with_module,
)
from .koszul import (
    KoszulSpec,
    koszul_complex,
    koszul_homology_table,
    self_duality_check,
    stable_cech_truncated,
    transition,
)
from .towers import (
    StrandTower,
    annihilator_bound,
    colim_truncated,
    lim_lim1_truncated,
    pro_zero_certificate,
)
from .localcoh import (
    generator_independence_check,
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from .duality import (
    dualizing_module_check,
    ext_table,
    gm_adjunction_check,
    koszul_resolution,
    local_duality_check,
    matlis_dual_table,
    trivial_resolution,
    validate_resolution,
)

__version__ = "0.1.0"
