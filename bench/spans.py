"""Span tracing of the engine's layers, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the ``lochom``
modules with wrappers that record one span per call: a name, start, end and
the index of the enclosing span.  Names imported with ``from .exact import
rank`` live on in the importing module's namespace (and functions kept in
lists, such as ``corpus.ALL_CRITERIA``), so every reference to an original
function is rebound, not only the defining one.  A span's self time is its
duration minus the time of the spans it encloses.  Spans stay in memory and
are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "exact", "rings", "modules", "complexes", "koszul",
    "towers", "localcoh", "duality", "corpus", "cli",
)

# (module, attribute path, span name).  Elimination (``rank`` and
# ``rref_with_pivots``) is wrapped separately, to bucket by matrix size.
TARGETS = (
    ("exact", "kernel_basis", "exact.kernel_basis"),
    ("exact", "column_basis", "exact.column_basis"),
    ("exact", "solve_columns", "exact.solve_columns"),
    ("exact", "span_contains", "exact.span_contains"),
    ("exact", "induced_map", "exact.induced_map"),
    ("exact", "ExactMatrix.__matmul__", "exact.matmul"),
    ("exact", "StrandSpace.__init__", "exact.strand_space"),
    ("rings", "Poly.__mul__", "rings.poly_mul"),
    ("rings", "parse_poly", "rings.parse_poly"),
    ("modules", "GradedMap.strand_matrix", "modules.strand_matrix"),
    ("modules", "GradedMap.compose", "modules.compose"),
    ("modules", "GradedMap.tensor", "modules.tensor"),
    ("modules", "strand", "modules.strand"),
    ("modules", "mult_operator", "modules.mult_operator"),
    ("modules", "annihilator_strand", "modules.annihilator_strand"),
    ("modules", "hilbert_row", "modules.hilbert_row"),
    ("complexes", "FreeComplex.__init__", "complexes.construct"),
    ("complexes", "ChainMap.__init__", "complexes.construct"),
    ("complexes", "ModuleComplex.__init__", "complexes.construct"),
    ("complexes", "ModuleChainMap.__init__", "complexes.construct"),
    ("complexes", "StrandContext.homology", "complexes.homology"),
    ("complexes", "StrandContext.op", "complexes.op"),
    ("complexes", "homology_induced_matrix", "complexes.induced_homology"),
    ("complexes", "shift", "complexes.calculus"),
    ("complexes", "cone", "complexes.calculus"),
    ("complexes", "tensor", "complexes.calculus"),
    ("complexes", "hom_complex", "complexes.calculus"),
    ("complexes", "direct_sum", "complexes.calculus"),
    ("complexes", "tensor_chain_maps", "complexes.calculus"),
    ("complexes", "tensor_with_module", "complexes.calculus"),
    ("complexes", "tensor_map_with_module", "complexes.calculus"),
    ("complexes", "hom_into_module", "complexes.calculus"),
    ("complexes", "homology_table", "complexes.homology_table"),
    ("complexes", "quasi_iso_check", "complexes.quasi_iso"),
    ("koszul", "koszul_complex", "koszul.complex"),
    ("koszul", "transition", "koszul.transition"),
    ("koszul", "stable_cech_truncated", "koszul.stable_cech"),
    ("koszul", "koszul_homology_table", "koszul.homology_table"),
    ("koszul", "self_duality_check", "koszul.self_duality"),
    ("towers", "colim_truncated", "towers.colim"),
    ("towers", "lim_lim1_truncated", "towers.limlim1"),
    ("towers", "StrandTower.composite", "towers.composite"),
    ("towers", "pro_zero_certificate", "towers.pro_zero"),
    ("towers", "annihilator_bound", "towers.annihilator_bound"),
    ("towers", "direct_sum_towers", "towers.direct_sum"),
    ("localcoh", "KoszulTowerSystem.__init__", "localcoh.tower_system"),
    ("localcoh", "KoszulTowerSystem.homology_tower", "localcoh.homology_tower"),
    ("localcoh", "local_cohomology_table", "localcoh.table"),
    ("localcoh", "local_homology_table", "localcoh.table"),
    ("localcoh", "hom_stable_cech_table", "localcoh.table"),
    ("localcoh", "generator_independence_check", "localcoh.generator_independence"),
    ("duality", "validate_resolution", "duality.validate_resolution"),
    ("duality", "koszul_resolution", "duality.koszul_resolution"),
    ("duality", "ext_table", "duality.ext"),
    ("duality", "local_duality_check", "duality.local_duality"),
    ("duality", "dualizing_module_check", "duality.dualizing_module"),
    ("duality", "gm_adjunction_check", "duality.gm_adjunction"),
    ("corpus", "run_corpus", "corpus.run"),
    ("cli", "parse_input", "cli.parse"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_report", "cli.emit"),
)

# counters taken from a span's result: span name -> (counter, measure)
RESULT_COUNTS = {
    "localcoh.table": ("localcoh.cells", lambda table: len(table.entries)),
    "cli.emit": ("cli.report_bytes", lambda text: len(text.encode("utf-8"))),
}

ELIM_BUCKETS = ((16, "le16"), (64, "le64"), (256, "le256"))


def elim_bucket(rows: int, cols: int) -> str:
    size = max(rows, cols)
    return next((label for bound, label in ELIM_BUCKETS if size <= bound), "gt256")


class Tracer:
    """Collects spans while installed; ``calls``/``self_s`` aggregate them by name."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)  # counters measured at span boundaries
        self._open = []  # [span index, time covered by child spans]
        self._undo = []

    # -- recording ------------------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append([idx, 0.0])

    def _exit(self):
        end = perf_counter()
        idx, child = self._open.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        if self._open:
            self._open[-1][1] += dur
        self.calls[span[0]] += 1
        self.self_s[span[0]] += dur - child
        self.total_s[span[0]] += dur

    def span(self, name, fn):
        counter, measure = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter:
                self.counts[counter] += measure(out)
            return out

        return wrapper

    def _elim(self, fn):
        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            self.counts["exact.elim_cells"] += m.rows * m.cols
            self._enter(f"exact.elim.{elim_bucket(m.rows, m.cols)}")
            try:
                return fn(m, *args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _mult_matrix(self, fn):
        @functools.wraps(fn)
        def wrapper(f, d):
            cache = f.ring._mult_cache
            before = len(cache)
            self._enter("rings.mult_matrix")
            try:
                out = fn(f, d)
            finally:
                self._exit()
            if len(cache) > before:
                self.counts["rings.mult_cache_bytes"] += out._data.nbytes
            else:
                self.counts["rings.mult_matrix_hits"] += 1
            return out

        return wrapper

    # -- installing -----------------------------------------------------------
    def install(self):
        """Wrap every target, rebinding each reference the package holds to it."""
        mods = {name: importlib.import_module(f"lochom.{name}") for name in LAYERS}
        wrappers = []
        for mod_name, path, span_name in TARGETS:
            owner, attr = _owner(mods[mod_name], path)
            fn = owner.__dict__[attr]
            wrappers.append((owner, attr, fn, self.span(span_name, fn)))
        for attr in ("rank", "rref_with_pivots"):
            fn = mods["exact"].__dict__[attr]
            wrappers.append((mods["exact"], attr, fn, self._elim(fn)))
        fn = mods["rings"].mult_matrix
        wrappers.append((mods["rings"], "mult_matrix", fn, self._mult_matrix(fn)))
        criteria = mods["corpus"].ALL_CRITERIA
        for n, fn in enumerate(list(criteria), start=1):
            criteria[n - 1] = self.span(f"corpus.criterion.{n}", fn)
            self._undo.append(functools.partial(criteria.__setitem__, n - 1, fn))
        replace = {id(fn): (fn, wrapper) for _, _, fn, wrapper in wrappers}
        for owner, attr, fn, wrapper in wrappers:
            setattr(owner, attr, wrapper)
            self._undo.append(functools.partial(setattr, owner, attr, fn))
        # rebind names imported into other modules (``from .exact import rank``)
        for mod in [m for n, m in sys.modules.items() if n == "lochom" or n.startswith("lochom.")]:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append(functools.partial(setattr, mod, attr, value))
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output ---------------------------------------------------------------
    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")


def _owner(module, path):
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-job per-layer metrics from a tracer that ran ``jobs`` identical jobs."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def c(*names):
        return sum(calls[n] for n in names) / jobs

    def s(*names):
        return sum(self_s[n] for n in names) / jobs

    def prefixed(prefix):
        return [n for n in set(calls) | set(self_s) if n.startswith(prefix)]

    out = {}
    elim = prefixed("exact.elim.")
    out["exact.elim_calls"] = c(*elim)
    out["exact.elim_s"] = s(*elim)
    out["exact.elim_cells"] = counts["exact.elim_cells"] / jobs
    for label in [b for _, b in ELIM_BUCKETS] + ["gt256"]:
        out[f"exact.elim_calls.{label}"] = c(f"exact.elim.{label}")
        out[f"exact.elim_s.{label}"] = s(f"exact.elim.{label}")
    for short, name in (
        ("matmul", "exact.matmul"),
        ("strand_space", "exact.strand_space"),
        ("induced_map", "exact.induced_map"),
        ("span_contains", "exact.span_contains"),
    ):
        out[f"exact.{short}_calls"] = c(name)
        out[f"exact.{short}_s"] = s(name)
    mm_calls = calls["rings.mult_matrix"]
    out["rings.mult_matrix_calls"] = c("rings.mult_matrix")
    out["rings.mult_matrix_hit_ratio"] = (
        counts["rings.mult_matrix_hits"] / mm_calls if mm_calls else 0.0
    )
    out["rings.mult_matrix_s"] = s("rings.mult_matrix")
    out["rings.poly_mul_calls"] = c("rings.poly_mul")
    out["rings.poly_mul_s"] = s("rings.poly_mul")
    out["rings.mult_cache_mb"] = counts["rings.mult_cache_bytes"] / jobs / 2**20
    for short in ("strand_matrix", "strand", "compose"):
        out[f"modules.{short}_calls"] = c(f"modules.{short}")
        out[f"modules.{short}_s"] = s(f"modules.{short}")
    out["complexes.construct_calls"] = c("complexes.construct")
    out["complexes.construct_s"] = s("complexes.construct")
    out["complexes.homology_calls"] = c("complexes.homology")
    out["complexes.homology_s"] = s("complexes.homology")
    out["complexes.op_s"] = s("complexes.op")
    out["complexes.induced_homology_s"] = s("complexes.induced_homology")
    out["koszul.complex_s"] = s("koszul.complex")
    out["koszul.transition_s"] = s("koszul.transition")
    out["koszul.stable_cech_s"] = s("koszul.stable_cech")
    for short in ("colim", "limlim1", "composite"):
        out[f"towers.{short}_calls"] = c(f"towers.{short}")
        out[f"towers.{short}_s"] = s(f"towers.{short}")
    out["localcoh.tower_system_s"] = s("localcoh.tower_system")
    out["localcoh.cells"] = counts["localcoh.cells"] / jobs
    for short in ("validate_resolution", "ext", "local_duality", "gm_adjunction"):
        out[f"duality.{short}_s"] = s(f"duality.{short}")
    for n in range(1, 13):  # inclusive: a criterion's own code is trivial
        out[f"corpus.criterion_s.{n}"] = tracer.total_s[f"corpus.criterion.{n}"] / jobs
    out["cli.parse_s"] = s("cli.parse")
    out["cli.run_s"] = s("cli.run")
    out["cli.emit_s"] = s("cli.emit")
    out["cli.report_bytes"] = counts["cli.report_bytes"] / jobs
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s(*prefixed(layer + "."))
    return out
