"""Tests of the benchmark itself: generator, closed form, checker, tracer, sampler.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import sys
from pathlib import Path

import pytest

import closedform
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sorted(workloads.TABLE_SHAPES))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.job_document(name, 7) == workloads.job_document(name, 7)
    assert workloads.job_document(name, 7) != workloads.job_document(name, 8)


def test_generated_forms_are_dense_and_bounded():
    shape = workloads.TABLE_SHAPES["lc-dense-fp"]
    forms = workloads.draw_forms(shape, workloads.random.Random(3))
    assert len(forms) == 2
    for f in forms:
        assert len(f) == 6  # every quadric monomial in x, y, z
        assert all(c and abs(c) <= workloads.COEFF_BOUND for c in f.values())


def test_regular_sequence_check_rejects_bad_draws():
    w = (1, 1, 1)
    x2, y2 = {(2, 0, 0): 1}, {(0, 2, 0): 1}
    xy, xz = {(1, 1, 0): 1}, {(1, 0, 1): 1}
    assert workloads.is_regular_sequence(w, [x2, y2], (2, 2))
    assert not workloads.is_regular_sequence(w, [xy, xz], (2, 2))  # common factor x
    assert not workloads.is_regular_sequence(w, [x2, {(2, 0, 0): 3}], (2, 2))
    assert not workloads.is_regular_sequence((1, 2, 3), [{}], (6,))


def test_format_poly():
    names = ("x", "y", "z")
    text = workloads.format_poly(names, {(2, 0, 0): 3, (0, 1, 1): -1, (0, 0, 0): -5})
    assert text == "3*x^2 - y*z - 5"


def test_closed_form_hand_values():
    # k[x,y,z]/(two quadrics): 1, 3, 4, 4, ...
    assert closedform.hilbert_function((1, 1, 1), (2, 2), 6) == [1, 3, 4, 4, 4, 4, 4]
    # weights 1,2,3 modulo a degree-6 form: (1 + t^3) / ((1 - t)(1 - t^2))
    assert closedform.hilbert_function((1, 2, 3), (6,), 8) == [1, 1, 2, 3, 4, 5, 6, 7, 8]
    # k[x,y]/(two quadrics) is artinian: 1, 2, 1
    assert closedform.hilbert_function((1, 1), (2, 2), 4) == [1, 2, 1, 0, 0]


def test_expected_cells():
    ci = ("lc", (1, 1, 1), (2, 2))
    assert closedform.expected_dim(*ci, 1, -8) == 4  # HF(1 - d) = HF(9)
    assert closedform.expected_dim(*ci, 1, 1) == 1
    assert closedform.expected_dim(*ci, 1, 2) == 0
    assert closedform.expected_dim(*ci, 0, -8) == 0
    assert closedform.expected_dim("lh", (1, 2, 3), (6,), 0, 5) == 5
    assert closedform.expected_dim("lh", (1, 2, 3), (6,), 1, 5) == 0


def _records(shape, override):
    rows = []
    for i in range(shape.i_range[0], shape.i_range[1] + 1):
        for d in range(shape.window[0], shape.window[1] + 1):
            dim = closedform.expected_dim(shape.command, shape.weights, shape.degrees, i, d)
            rows.append({"i": i, "d": d, "dim": dim, "stabilized": True, "k_used": 1})
    for rec in rows:
        rec.update(override.get((rec["i"], rec["d"]), {}))
    return rows


def test_checker_fails_wrong_stabilized_and_passes_unstabilized():
    shape = workloads.TABLE_SHAPES["lc-dense-fp"]
    good = closedform.check_table(shape, _records(shape, {}))
    assert good == closedform.CellCheck(44, 0, ())
    planted = _records(shape, {(1, -8): {"dim": 0}, (1, -7): {"dim": 0, "stabilized": False}})
    check = closedform.check_table(shape, planted)
    assert check.failed == ((1, -8, 0, 4),)
    assert check.unstabilized == 1
    missing = closedform.check_table(shape, _records(shape, {})[1:])
    assert missing.failed == ((0, -8, None, 0),)


def test_known_false_stable_cell_stays_failed_and_is_matched_narrowly():
    shape = workloads.TABLE_SHAPES["lc-dense-fp"]
    known = closedform.check_table(shape, _records(shape, {(1, -8): {"dim": 0}}))
    assert known.failed == known.known == ((1, -8, 0, 4),)
    for override in (
        {(1, -8): {"dim": 3}},  # another wrong value in the listed cell
        {(1, -8): {"dim": 0, "k_used": 2}},
        {(1, -7): {"dim": 0}},  # the same signature in an unlisted cell
    ):
        check = closedform.check_table(shape, _records(shape, override))
        assert len(check.failed) == 1 and check.known == ()
    other = workloads.TABLE_SHAPES["lh-towers-fp"]
    assert other.known_false_stable == ()


def test_tracer_rebinds_imported_names_and_restores_them():
    sys.path.insert(0, str(SRC))
    from lochom import cli, exact, towers

    import spans

    original = exact.rank
    tracer = spans.Tracer().install()
    try:
        assert towers.rank is exact.rank is not original
        job = cli.JobSpec(
            command="lc",
            ring={"char": 32003, "vars": ["x", "y"], "weights": [1, 1]},
            module={"target_twists": [0], "relations": [["x^2"]]},
            i_range=(0, 2),
            window=(-3, 1),
            k_max=4,
        )
        text = cli.emit_report(cli.run(job), "json")
    finally:
        tracer.uninstall()
    assert towers.rank is exact.rank is original
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["exact.elim_calls"] > 0 and metrics["towers.colim_calls"] > 0
    assert metrics["cli.report_bytes"] == len(text.encode())
    assert metrics["localcoh.cells"] == 15
    assert cli.emit_report(cli.run(job), "json") == text


def test_speed_sampler_keeps_its_own_time_out_of_job_walls():
    import run

    sampler = run.SpeedSampler()
    with sampler:
        start = run.time.perf_counter()
        while run.time.perf_counter() - start < 0.35:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < 0.35
    assert all(s > 0 for s in sampler.samples)
