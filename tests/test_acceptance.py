"""Acceptance suite: one test per criterion, with the stated time budgets.

Each test prints a PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py``
doubles as the acceptance report.  The same checks back the CLI's
``verify corpus`` command; criterion 12 runs that command twice end to end
and compares report bytes.
"""

import json
import time


from lochom import corpus
from lochom.cli import JobSpec, emit_report, run


def _run(criterion_fn, budget=None):
    start = time.monotonic()
    result = criterion_fn()
    elapsed = time.monotonic() - start
    status = "PASS" if result.passed else "FAIL"
    budget_note = f" ({elapsed:.2f}s / budget {budget}s)" if budget else f" ({elapsed:.2f}s)"
    print(f"[{status}] criterion {result.criterion}: {result.name}{budget_note}")
    assert result.passed, json.dumps(result.details, indent=2)[:4000]
    if budget is not None:
        assert elapsed < budget, f"criterion {result.criterion} exceeded {budget}s"
    return result


def test_criterion_01_koszul_regularity():
    _run(corpus.criterion_1_koszul_regularity, budget=1.0)


def test_criterion_02_self_duality():
    result = _run(corpus.criterion_2_self_duality, budget=10.0)
    assert len(result.details["cases"]) == 10


def test_criterion_03_pro_zero():
    result = _run(corpus.criterion_3_pro_zero)
    assert result.details["annihilator_bound_t"] == 2
    assert result.details["certificate"] == {str(l): l + 2 for l in range(1, 7)}


def test_criterion_04_truncated_hocolim():
    _run(corpus.criterion_4_truncated_hocolim)


def test_criterion_05_lim1_vanishing():
    result = _run(corpus.criterion_5_lim1_vanishing)
    assert result.details["towers_checked"] > 50


def test_criterion_06_local_cohomology_closed_forms():
    _run(corpus.criterion_6_local_cohomology_closed_forms, budget=5.0)


def test_criterion_07_local_homology_fg():
    _run(corpus.criterion_7_local_homology_fg)


def test_criterion_08_generator_independence():
    _run(corpus.criterion_8_generator_independence)


def test_criterion_09_gm_adjunction():
    result = _run(corpus.criterion_9_gm_adjunction, budget=30.0)
    assert result.details["ext_cross_check"]["agree"]


def test_criterion_10_local_duality():
    result = _run(corpus.criterion_10_local_duality)
    for report in result.details["reports"].values():
        assert report["compared"] > 0


def test_criterion_11_dualizing_module():
    _run(corpus.criterion_11_dualizing_module)


def test_criterion_12_determinism(tmp_path):
    start = time.monotonic()
    job = JobSpec(command="verify", verify="corpus")
    first = emit_report(run(job), "json")
    second = emit_report(run(job), "json")
    identical = first == second
    status = "PASS" if identical else "FAIL"
    print(f"[{status}] criterion 12: determinism ({time.monotonic() - start:.2f}s)")
    assert identical
    doc = json.loads(first)
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(corpus.ALL_CRITERIA)
