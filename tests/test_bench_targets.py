"""The benchmark's span tracer still finds every engine name it wraps.

``bench/spans.py`` resolves its targets through ``owner.__dict__``, so a
renamed or deleted function, method or alias breaks ``--trace 1`` runs; this
catches it in the main suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from lochom import exact

    rank = exact.rank
    tracer = spans.Tracer().install()
    try:
        assert exact.rank is not rank
    finally:
        tracer.uninstall()
    assert exact.rank is rank
