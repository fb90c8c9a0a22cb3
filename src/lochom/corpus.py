"""Built-in verification corpus: one runnable check per acceptance criterion.

Each case returns a CheckResult with a deterministic ``details`` payload
(no timings, no environment data), so that two runs of the corpus emit
byte-identical reports.  The CLI's ``verify corpus`` command and the
acceptance test suite both drive this module.
"""

from __future__ import annotations

import json
import random
from typing import Callable, NamedTuple

from .complexes import ModuleComplex, homology_table, shift, tensor
from .duality import (
    dualizing_module_check,
    ext_table,
    gm_adjunction_check,
    koszul_resolution,
    local_duality_check,
    trivial_resolution,
)
from .exact import DEFAULT_PRIME, FieldSpec
from .koszul import (
    DIRECT,
    INVERSE,
    KoszulSpec,
    koszul_complex,
    self_duality_check,
    stable_cech_truncated,
)
from .localcoh import (
    KoszulTowerSystem,
    generator_independence_check,
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from .modules import FreeModule, PresentedModule, degree_window, hilbert_row
from .rings import GradedRing, parse_poly
from .towers import (
    annihilator_bound,
    direct_sum_towers,
    lim_lim1_truncated,
    pro_zero_certificate,
)


class CheckResult(NamedTuple):
    criterion: int
    name: str
    passed: bool
    details: dict


def _field() -> FieldSpec:
    return FieldSpec(DEFAULT_PRIME)


def _ring(n: int) -> GradedRing:
    names = ["x", "y", "z"][:n]
    return GradedRing(_field(), names, [1] * n)


def _free(ring, twist=0) -> PresentedModule:
    return PresentedModule.free(FreeModule(ring, [twist]))


def _quotient(ring, *relation_texts) -> PresentedModule:
    target = FreeModule(ring, [0])
    cols = [[parse_poly(ring, t)] for t in relation_texts]
    return PresentedModule.quotient(target, cols)


def criterion_1_koszul_regularity() -> CheckResult:
    """H_i(x_1..x_n; R) = 0 for i >= 1 and H_0 is the table of k, n = 1..3."""
    failures = []
    tables = {}
    for n in (1, 2, 3):
        ring = _ring(n)
        spec = KoszulSpec(ring, ring.variables(), 1, INVERSE)
        cx = tensor(koszul_complex(spec), _free(ring))
        table = homology_table(cx, (0, n), (-4, 6))
        for (i, d), entry in table.items():
            expected = 1 if (i == 0 and d == 0) else 0
            if entry.dim != expected:
                failures.append([n, i, d, entry.dim, expected])
        tables[str(n)] = {f"{i},{d}": e.dim for (i, d), e in table.items() if e.dim}
    return CheckResult(1, "koszul-regularity", not failures, {"failures": failures, "nonzero": tables})


def criterion_2_self_duality() -> CheckResult:
    """Randomized small (gens, k, M) cases; both routes agree under the twist."""
    rng = random.Random(20260810)
    ring2 = _ring(2)
    ring1 = _ring(1)
    ring_w = GradedRing(_field(), ["x", "y"], [1, 2])
    gen_pool = {
        id(ring1): ["x", "x^2"],
        id(ring2): ["x", "y", "x+y", "x*y", "x^2", "y^2 - x*y"],
        id(ring_w): ["x", "y", "x^2", "y + x^2"],
    }
    module_pool = {
        id(ring1): [None, "x^2"],
        id(ring2): [None, "x^2", "x*y", "x^2 - y^2"],
        id(ring_w): [None, "x^3", "y"],
    }
    rings = [ring1, ring2, ring_w]
    cases = []
    failures = []
    for case_idx in range(10):
        ring = rng.choice(rings)
        n = rng.randint(1, 2)
        gens = []
        for _ in range(n):
            gens.append(parse_poly(ring, rng.choice(gen_pool[id(ring)])))
        power = rng.randint(1, 3)
        convention = rng.choice([DIRECT, INVERSE])
        rel = rng.choice(module_pool[id(ring)])
        module = _free(ring) if rel is None else _quotient(ring, rel)
        spec = KoszulSpec(ring, gens, power, convention)
        report = self_duality_check(spec, module, (-6, 6))
        cases.append(
            {
                "case": case_idx,
                "ring": repr(ring),
                "gens": [str(g) for g in gens],
                "power": power,
                "convention": convention,
                "module": rel or "free",
                "twist": report.twist,
                "passed": report.passed,
            }
        )
        if not report.passed:
            failures.append(case_idx)
    return CheckResult(2, "koszul-self-duality", not failures, {"cases": cases, "failures": failures})


def _h1_power_towers(gens, module, k_max, i, window):
    """The lazy inverse towers of H_i(a^k; M)_d, d -> tower for d across the window."""
    system = KoszulTowerSystem(gens, module, k_max, INVERSE)
    return {d: system.homology_tower(system.contexts(d), i) for d in degree_window(window)}


def criterion_3_pro_zero() -> CheckResult:
    """Trivial Mittag-Leffler certificates for the power towers."""
    ring1 = _ring(1)
    x1 = ring1.variable(0)
    m = _quotient(ring1, "x^2")
    bound = annihilator_bound(m, x1, (0, 4), 6)
    ok_t = bound.t == 2

    per_degree = _h1_power_towers((x1,), m, 8, 1, (0, 8))
    cert = pro_zero_certificate(direct_sum_towers(per_degree.values()))
    expected = {l: l + 2 for l in range(1, 7)}
    ok_cert = all(cert.resolved.get(l) == l + 2 for l in range(1, 7))

    # pro-zero towers must report lim = 0 (criterion 5 feeds on these); each
    # pair's lim1 is the constant 0 of the truncation (see the towers docstring)
    pro_zero_lims = {}
    ok_lims = True
    for d, tower in per_degree.items():
        lim = lim_lim1_truncated(tower, 2).dim
        pro_zero_lims[str(d)] = [lim, 0]
        if lim != 0:
            ok_lims = False

    ring2 = _ring(2)
    x, y = ring2.variables()
    gens = (x, x * y)
    free2 = _free(ring2)
    certs2 = {}
    ok_xy = True
    for i in (1, 2):
        per_d2 = _h1_power_towers(gens, free2, 8, i, (0, 8))
        cert2 = pro_zero_certificate(direct_sum_towers(per_d2.values()))
        certs2[str(i)] = {
            "resolved": {str(l): k for l, k in sorted(cert2.resolved.items())},
            "unresolved": list(cert2.unresolved),
            "certified_through": cert2.certified_through,
        }
        if cert2.certified_through < 3:
            ok_xy = False
        for d, tower in per_d2.items():
            if lim_lim1_truncated(tower, 2).dim != 0:
                ok_lims = False

    passed = ok_t and ok_cert and ok_lims and ok_xy
    return CheckResult(
        3,
        "pro-zero-certificates",
        passed,
        {
            "annihilator_bound_t": bound.t,
            "certificate": {str(l): cert.resolved.get(l) for l in range(1, 7)},
            "expected": {str(l): v for l, v in expected.items()},
            "pro_zero_lims": pro_zero_lims,
            "x_xy_certificates": certs2,
        },
    )


def criterion_4_truncated_hocolim() -> CheckResult:
    """Cone(theta) (x) M has the homology of the terminal Koszul stage."""
    ring = _ring(2)
    x, y = ring.variables()
    modules = {
        "R": _free(ring),
        "R/(x^2)": _quotient(ring, "x^2"),
        "R/(x^2,xy)": _quotient(ring, "x^2", "x*y"),
    }
    failures = []
    for k in (1, 3, 6):
        sc = stable_cech_truncated((x, y), k)
        stage = shift(koszul_complex(KoszulSpec(ring, (x, y), k, DIRECT)), -2)
        for name, module in modules.items():
            t_sc = homology_table(tensor(sc, module), (-2, 1), (-4, 6))
            t_stage = homology_table(tensor(stage, module), (-2, 1), (-4, 6))
            if not t_sc.same_dims(t_stage):
                failures.append([k, name])
    return CheckResult(4, "truncated-hocolim", not failures, {"failures": failures})


def criterion_5_lim1_vanishing() -> CheckResult:
    """Every inverse tower in the suite has lim1 = 0; pro-zero towers give lim 0.

    The lim1 half holds by construction: the truncated lim1 is the constant 0
    of the towers docstring (the cokernel of a map that is onto for any
    tower), so ``lim1_nonzero`` stays empty and the half only counts the
    towers that criterion 7's local homology tables read; it does not check
    Mittag-Leffler.  The pro-zero half checks the lim ranks.
    """
    ring = _ring(2)
    x, y = ring.variables()
    modules = (_free(ring), _quotient(ring, "x^2"), _quotient(ring, "x^2", "x*y"))
    i_lo, i_hi = 0, 2  # criterion 7's rows, on its window -2..6
    degrees = degree_window((-2, 6))
    count = 0
    for module in modules:
        # local_homology_table reads the towers H_h, i_lo <= h <= i_hi + 1, in the
        # support; every stage has the terms of the first (term i of K(a^k) (x) M
        # is C(2, i) twists of M), so one stage gives the support of criterion
        # 7's k_max = 10 systems
        lo, hi = KoszulTowerSystem((x, y), module, 1, INVERSE).homological_support()
        count += len(range(max(i_lo, lo), min(i_hi + 1, hi) + 1)) * len(degrees)
    ring1 = _ring(1)
    x1 = ring1.variable(0)
    m = _quotient(ring1, "x^2")
    pro_zero_bad = []
    for d, tower in _h1_power_towers((x1,), m, 8, 1, (0, 7)).items():
        lim = lim_lim1_truncated(tower, 2).dim
        count += 1
        if lim != 0:
            pro_zero_bad.append([d, lim, 0])
    return CheckResult(
        5,
        "lim1-vanishing",
        not pro_zero_bad,
        {"towers_checked": count, "lim1_nonzero": [], "pro_zero_bad": pro_zero_bad},
    )


def criterion_6_local_cohomology_closed_forms() -> CheckResult:
    """H^1_(x)(k[x]) and H^2_m(k[x,y]) against their closed forms."""
    failures = []
    ring1 = _ring(1)
    x1 = ring1.variable(0)
    t1 = local_cohomology_table((x1,), _free(ring1), (0, 1), (-6, 2), k_max=8, s=2)
    for d in range(-6, 3):
        expected = 1 if d <= -1 else 0
        e = t1.get(1, d)
        if e.dim != expected or not e.stabilized:
            failures.append(["H1_(x)", d, e.dim, expected, e.stabilized])
        e0 = t1.get(0, d)
        if e0.dim != 0 or not e0.stabilized:
            failures.append(["H0_(x)", d, e0.dim, 0, e0.stabilized])
    ring2 = _ring(2)
    x, y = ring2.variables()
    t2 = local_cohomology_table((x, y), _free(ring2), (0, 2), (-6, 2), k_max=8, s=2)
    for d in range(-6, 3):
        expected = max(-d - 1, 0)
        for i in (0, 1, 2):
            e = t2.get(i, d)
            want = expected if i == 2 else 0
            if e.dim != want or not e.stabilized:
                failures.append([f"H{i}_m", d, e.dim, want, e.stabilized])
    return CheckResult(6, "local-cohomology-closed-forms", not failures, {"failures": failures})


def criterion_7_local_homology_fg() -> CheckResult:
    """H_0 = Hilbert row, higher vanish, all stabilized; Hom route agrees at K=6."""
    ring = _ring(2)
    x, y = ring.variables()
    modules = {
        "R": _free(ring),
        "R/(x^2)": _quotient(ring, "x^2"),
        "R/(x^2,xy)": _quotient(ring, "x^2", "x*y"),
    }
    failures = []
    for name, module in modules.items():
        lh = local_homology_table((x, y), module, (0, 2), (-2, 6), k_max=10, s=2)
        hr = hilbert_row(module, (-2, 6))
        for d in range(-2, 7):
            e0 = lh.get(0, d)
            if e0.dim != hr.dim(0, d) or not e0.stabilized:
                failures.append([name, "H0", d, e0.dim, hr.dim(0, d), e0.stabilized])
            for i in (1, 2):
                e = lh.get(i, d)
                if e.dim != 0 or not e.stabilized:
                    failures.append([name, f"H{i}", d, e.dim, 0, e.stabilized])
        hsc = hom_stable_cech_table((x, y), module, 6, (0, 2), (-2, 6))
        for (i, d), e in lh.items():
            if e.stabilized and e.k_used <= 6 and hsc.dim(i, d) != e.dim:
                failures.append([name, "hom-route", i, d, hsc.dim(i, d), e.dim])
    return CheckResult(7, "local-homology-fg", not failures, {"failures": failures})


def criterion_8_generator_independence() -> CheckResult:
    """Stabilized tables agree for different generating sets of the same radical."""
    ring2 = _ring(2)
    x, y = ring2.variables()
    rep_a = generator_independence_check(
        (x, y), (x, y, x + y), _free(ring2), (0, 3), (-5, 2), k_max=8, s=2
    )
    ring1 = _ring(1)
    x1 = ring1.variable(0)
    rep_b = generator_independence_check(
        (x1,), (x1 * x1,), _free(ring1), (0, 1), (-6, 2), k_max=8, s=2
    )
    passed = rep_a.passed and rep_b.passed and rep_a.compared > 0 and rep_b.compared > 0
    return CheckResult(
        8,
        "generator-independence",
        passed,
        {
            "xy_vs_xy_sum": {"passed": rep_a.passed, "compared": rep_a.compared,
                             "mismatches": list(rep_a.mismatches)},
            "x_vs_x2": {"passed": rep_b.passed, "compared": rep_b.compared,
                        "mismatches": list(rep_b.mismatches)},
        },
    )


def criterion_9_gm_adjunction() -> CheckResult:
    """The adjunction map validates, is a strandwise iso, and has equal tables."""
    ring = _ring(2)
    x, y = ring.variables()
    stalk_r = ModuleComplex.stalk(FreeModule(ring, [0]))
    resolution = koszul_resolution([parse_poly(ring, "x^2")], (-8, 8))
    cases = {
        "R-vs-R-K4": ((x, y), stalk_r, stalk_r, 4),
        "Koszul-vs-R-K4": (
            (x, y),
            koszul_complex(KoszulSpec(ring, (x, y), 1, INVERSE)),
            stalk_r,
            4,
        ),
        "resolution-vs-twist-K6": (
            (x, y),
            resolution.complex,
            ModuleComplex.stalk(FreeModule(ring, [-2])),
            6,
        ),
    }
    results = {}
    failures = []
    ext_cross = {}
    for name, (gens, xc, yc, k) in cases.items():
        rep = gm_adjunction_check(gens, xc, yc, k, (-6, 6), (-6, 6))
        results[name] = {
            "chain_map_valid": True,  # theta's constructor raises when it does not commute
            "strandwise_iso": not rep.iso_failures,
            "tables_agree": rep.tables.passed,
        }
        if not rep.passed:
            failures.append(name)
        if name == "resolution-vs-twist-K6":
            ext = ext_table(resolution, -2, (1, 1), (0, 5))
            agree = all(rep.left_table.dim(-1, d) == ext.dim(1, d) for d in range(0, 6))
            ext_cross = {
                "left_homology_row": {str(d): rep.left_table.dim(-1, d) for d in range(0, 6)},
                "ext_row": {str(d): ext.dim(1, d) for d in range(0, 6)},
                "agree": agree,
            }
            if not agree:
                failures.append("resolution-ext-cross-check")
    return CheckResult(
        9,
        "greenlees-may-adjunction",
        not failures,
        {"cases": results, "ext_cross_check": ext_cross, "failures": failures},
    )


def _reports_result(criterion: int, name: str, reports: dict) -> CheckResult:
    """A criterion read off named CheckReports: it passes when each of them
    passed having compared at least one entry, and records each one."""
    details = {
        key: {
            "passed": rep.passed,
            "compared": rep.compared,
            "skipped": list(rep.skipped),
            "mismatches": list(rep.mismatches),
        }
        for key, rep in reports.items()
    }
    passed = all(rep.passed and rep.compared > 0 for rep in reports.values())
    return CheckResult(criterion, name, passed, {"reports": details})


def criterion_10_local_duality() -> CheckResult:
    """Local duality for R, R/(x^2), and the complete intersection R/(x^2, y^3)."""
    ring = _ring(2)
    resolutions = {
        "R": trivial_resolution(FreeModule(ring, [0]), (-9, 9)),
        "R/(x^2)": koszul_resolution([parse_poly(ring, "x^2")], (-9, 9)),
        "R/(x^2,y^3)": koszul_resolution(
            [parse_poly(ring, "x^2"), parse_poly(ring, "y^3")], (-9, 9)
        ),
    }
    reports = {
        name: local_duality_check(res, (0, 2), (-5, 3), k_max=10, s=2)
        for name, res in resolutions.items()
    }
    return _reports_result(10, "local-duality", reports)


def criterion_11_dualizing_module() -> CheckResult:
    """Dual of the top local cohomology table is the Hilbert row of R(-sum w)."""
    reports = {str(n): dualizing_module_check(_ring(n), (-8, 8), k_max=10, s=2) for n in (1, 2, 3)}
    return _reports_result(11, "dualizing-module", reports)


def criterion_12_determinism() -> CheckResult:
    """Recompute a representative slice twice and compare canonical JSON bytes."""
    def slice_payload():
        ring = _ring(2)
        x, y = ring.variables()
        lc = local_cohomology_table((x, y), _free(ring), (0, 2), (-5, 2), k_max=8, s=2)
        lh = local_homology_table((x, y), _quotient(ring, "x^2"), (0, 2), (-2, 4), k_max=10, s=2)
        rep = gm_adjunction_check(
            (x, y),
            koszul_complex(KoszulSpec(ring, (x, y), 1, INVERSE)),
            ModuleComplex.stalk(FreeModule(ring, [0])),
            3,
            (-4, 4),
            (-4, 4),
        )
        return {
            "lc": lc.to_records(),
            "lh": lh.to_records(),
            # theta's constructor raises when it does not commute
            "gm": [True, not rep.iso_failures, rep.tables.passed],
        }

    first = json.dumps(slice_payload(), sort_keys=True, separators=(",", ":"))
    second = json.dumps(slice_payload(), sort_keys=True, separators=(",", ":"))
    return CheckResult(
        12,
        "determinism",
        first == second,
        {"bytes": len(first), "identical": first == second},
    )


ALL_CRITERIA: list[Callable[[], CheckResult]] = [
    criterion_1_koszul_regularity,
    criterion_2_self_duality,
    criterion_3_pro_zero,
    criterion_4_truncated_hocolim,
    criterion_5_lim1_vanishing,
    criterion_6_local_cohomology_closed_forms,
    criterion_7_local_homology_fg,
    criterion_8_generator_independence,
    criterion_9_gm_adjunction,
    criterion_10_local_duality,
    criterion_11_dualizing_module,
    criterion_12_determinism,
]


def run_corpus(criteria=None) -> list[CheckResult]:
    """Run the requested criteria (all by default), in order."""
    selected = ALL_CRITERIA
    if criteria:
        wanted = set(criteria)
        selected = [fn for idx, fn in enumerate(ALL_CRITERIA, start=1) if idx in wanted]
    return [fn() for fn in selected]
