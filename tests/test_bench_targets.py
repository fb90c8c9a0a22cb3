"""The benchmark's span tracer still finds every engine name it wraps.

``bench/spans.py`` resolves its targets through ``owner.__dict__``, so a
renamed or deleted function, method or alias breaks ``--trace 1`` runs; this
catches it in the main suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    from lochom import exact

    rank = exact.rank
    tracer = spans.Tracer().install()
    try:
        assert exact.rank is not rank
    finally:
        tracer.uninstall()
    assert exact.rank is rank


def test_tracer_counts_mult_matrix_misses_and_hits():
    # the tracer tells a miss from a hit by the size of ``ring._mult_cache``
    spans = load_spans()
    from lochom.exact import FieldSpec
    from lochom.modules import FreeModule, GradedMap
    from lochom.rings import GradedRing, parse_poly

    r = GradedRing(FieldSpec(32003), ["x", "y"], [1, 1])
    f = GradedMap(FreeModule(r, [0]), FreeModule(r, [2]), [[parse_poly(r, "x*y - y^2")]])
    tracer = spans.Tracer().install()
    try:
        f.strand_matrix(1)
        missed = (tracer.counts["rings.mult_cache_bytes"], tracer.counts["rings.mult_matrix_hits"])
        f.strand_matrix(1)
    finally:
        tracer.uninstall()
    assert missed[0] > 0 and missed[1] == 0
    assert tracer.counts["rings.mult_cache_bytes"] == missed[0]
    assert tracer.counts["rings.mult_matrix_hits"] == 1
    assert tracer.calls["rings.mult_matrix"] == 2


def test_tracer_covers_the_lim_lim1_path_of_an_lh_job():
    spans = load_spans()
    from lochom import cli, localcoh, towers

    lim = towers.lim_lim1_truncated
    job = cli._document_to_jobspec({
        "command": "lh", "ring": {"char": 32003, "vars": ["x", "y"]},
        "module": {"relations": [["x^2"]]}, "i_range": [0, 1], "window": [-1, 1], "k_max": 4,
    })
    tracer = spans.Tracer().install()
    try:
        cli.run(job)
    finally:
        tracer.uninstall()
    assert tracer.calls["towers.limlim1"] > 0
    # the eliminations of the trusted levels are recorded inside the lim/lim1 spans
    names = [span[0] for span in tracer.spans]
    elim_parents = {names[span[3]] for span in tracer.spans if span[0].startswith("exact.elim.")}
    assert "towers.limlim1" in elim_parents
    assert towers.lim_lim1_truncated is lim and localcoh.lim_lim1_truncated is lim
