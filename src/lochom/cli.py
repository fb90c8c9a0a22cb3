"""Command-line front end: JSON job documents in, deterministic reports out.

A job is one UTF-8 JSON document; command-line flags override document
fields.  Exit codes: 0 all checks passed, 1 a check failed, 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, replace

from .complexes import ModuleComplex
from .corpus import run_corpus
from .errors import (
    EngineError,
    HomogeneityError,
    InternalInvariantError,
    NonHomogeneousError,
    ParseError,
    SchemaError,
    UnknownVariableError,
    WellDefinednessError,
)
from .exact import DEFAULT_PRIME, FieldSpec
from .koszul import INVERSE, KoszulSpec, koszul_homology_table
from .localcoh import (
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from .modules import FreeModule, GradedMap, PresentedModule, hilbert_row
from .rings import GradedRing, parse_poly

__all__ = ["JobSpec", "parse_input", "run", "emit_report", "main"]

TABLE_COMMANDS = ("lc", "lh", "koszul", "hilbert", "homsc")
MODULE_COMMANDS = ("lh", "koszul", "hilbert")  # table commands that take no complex
VERIFY_SUBJECTS = {
    "selfdual": (2,),
    "genindep": (8,),
    "gm": (9,),
    "duality": (10,),
    "dualizing": (11,),
    "corpus": None,  # all criteria
}
REPORT_FORMATS = ("json", "csv", "pretty")


@dataclass(frozen=True)
class JobSpec:
    command: str
    ring: dict | None = None
    module: dict | None = None
    complex: dict | None = None
    ideal: tuple | None = None  # None: the variables
    i_range: tuple = (0, 2)
    window: tuple = (-6, 6)
    k_max: int = 8
    s: int = 2
    cech_k_max: int = 6
    power: int = 1
    report: str = "json"
    verify_subject: str = "corpus"

    def validate(self) -> "JobSpec":
        if self.command not in TABLE_COMMANDS and self.command != "verify":
            raise SchemaError(f"unknown command {self.command!r}", "command")
        if self.command == "verify" and self.verify_subject not in VERIFY_SUBJECTS:
            raise SchemaError(
                f"unknown verify subject {self.verify_subject!r}", "verify"
            )
        if self.command == "verify":
            # the verify subjects build their own rings and modules
            for name in ("module", "complex", "ideal", "ring"):
                if getattr(self, name) is not None:
                    raise SchemaError(f"verify takes no {name}", name)
        for name, pair in (("i_range", self.i_range), ("window", self.window)):
            if len(pair) != 2 or pair[0] > pair[1]:
                raise SchemaError(f"{name} must be [lo, hi] with lo <= hi", name)
        for name, value in (
            ("k_max", self.k_max),
            ("K_max", self.cech_k_max),
            ("s", self.s),
            ("power", self.power),
        ):
            if value < 1:
                raise SchemaError(f"{name} must be >= 1", name)
        if self.report not in REPORT_FORMATS:
            raise SchemaError(f"report format must be one of {REPORT_FORMATS}", "report")
        if self.module is not None and self.complex is not None:
            raise SchemaError("give a module or a complex, not both", "module")
        if self.complex is not None and self.command in MODULE_COMMANDS:
            raise SchemaError(f"{self.command} takes a module, not a complex", "complex")
        if self.ideal == ():
            raise SchemaError("ideal must list at least one generator", "ideal")
        return self

    def to_document(self) -> dict:
        doc: dict = {"command": self.command}
        if self.ring is not None:
            doc["ring"] = self.ring
        if self.module is not None:
            doc["module"] = self.module
        if self.complex is not None:
            doc["complex"] = self.complex
        if self.ideal is not None:
            doc["ideal"] = list(self.ideal)
        doc["i_range"] = list(self.i_range)
        doc["window"] = list(self.window)
        doc["k_max"] = self.k_max
        doc["s"] = self.s
        doc["K_max"] = self.cech_k_max
        doc["power"] = self.power
        doc["report"] = self.report
        if self.command == "verify":
            doc["verify"] = self.verify_subject
        return doc


def _integer(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {value!r}", location)
    return value


def _index(key: str, what: str, location: str) -> int:
    """A term or differential index, written as a canonical integer."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise SchemaError(f"{what} index {key!r} is not a canonical integer", location)
    return int(key)


def _object(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {value!r}", location)
    return value


def _known_fields(obj: dict, known, location: str) -> None:
    extra = sorted(k for k in obj if k not in known)
    if extra:
        raise SchemaError(f"unknown fields {extra}", location)


def _list(value, location: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected a list, got {value!r}", location)
    return value


def _integers(value, location: str) -> list:
    return [_integer(v, f"{location}[{n}]") for n, v in enumerate(_list(value, location))]


def _strings(value, location: str) -> list:
    items = _list(value, location)
    for n, v in enumerate(items):
        if not isinstance(v, str):
            raise SchemaError(f"expected a string, got {v!r}", f"{location}[{n}]")
    return items


def _document_to_jobspec(doc: dict) -> JobSpec:
    if not isinstance(doc, dict):
        raise SchemaError("job document must be a JSON object", "$")
    known = {
        "command",
        "ring",
        "module",
        "complex",
        "ideal",
        "i_range",
        "window",
        "k_max",
        "s",
        "K_max",
        "power",
        "report",
        "verify",
    }
    _known_fields(doc, known, "$")

    def pair(name, default):
        value = doc.get(name, default)
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise SchemaError(f"{name} must be a [lo, hi] pair", name)
        return (_integer(value[0], f"{name}[0]"), _integer(value[1], f"{name}[1]"))

    spec = JobSpec(
        command=str(doc.get("command", "lc")),
        ring=doc.get("ring"),
        module=doc.get("module"),
        complex=doc.get("complex"),
        ideal=tuple(_strings(doc["ideal"], "ideal")) if "ideal" in doc else None,
        i_range=pair("i_range", (0, 2)),
        window=pair("window", (-6, 6)),
        k_max=_integer(doc.get("k_max", 8), "k_max"),
        s=_integer(doc.get("s", 2), "s"),
        cech_k_max=_integer(doc.get("K_max", 6), "K_max"),
        power=_integer(doc.get("power", 1), "power"),
        report=str(doc.get("report", "json")),
        verify_subject=str(doc.get("verify", "corpus")),
    )
    return spec.validate()


def parse_input(path: str) -> JobSpec:
    """Load and validate a job document from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc}", path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input file is not UTF-8: {exc}", path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}")
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply", path)
    return _document_to_jobspec(doc)


# -- builders ------------------------------------------------------------------

def build_ring(spec: dict | None) -> GradedRing:
    if spec is None:
        raise SchemaError("this command needs a ring", "ring")
    if not isinstance(spec, dict):
        raise SchemaError("ring must be an object", "ring")
    _known_fields(spec, ("char", "vars", "weights"), "ring")
    char = _integer(spec.get("char", DEFAULT_PRIME), "ring.char")
    try:
        field = FieldSpec(char)
    except ValueError as exc:
        raise SchemaError(str(exc), "ring.char")
    vars_ = _strings(spec.get("vars", []), "ring.vars")
    weights = _integers(spec.get("weights", [1] * len(vars_)), "ring.weights")
    if not vars_:
        raise SchemaError("ring.vars must be a nonempty list", "ring.vars")
    try:
        return GradedRing(field, vars_, weights)
    except ValueError as exc:
        raise SchemaError(str(exc), "ring")


def build_module(ring: GradedRing, spec: dict | None) -> PresentedModule:
    if spec is None:
        return PresentedModule.free(FreeModule(ring, [0]))
    if not isinstance(spec, dict):
        raise SchemaError("module must be an object", "module")
    _known_fields(spec, ("target_twists", "relations"), "module")
    twists = _integers(spec.get("target_twists", [0]), "module.target_twists")
    target = FreeModule(ring, twists)
    rows = _list(spec.get("relations", []), "module.relations")
    for n, row in enumerate(rows):
        _list(row, f"module.relations[{n}]")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError("relations must be rectangular", "module.relations")
    if len(rows) not in (0, target.rank):
        raise SchemaError(
            "relations need one row per target generator", "module.relations"
        )
    ncols = len(rows[0]) if rows else 0
    columns = []
    for j in range(ncols):
        col = []
        for i in range(target.rank):
            col.append(parse_poly(ring, str(rows[i][j])))
        columns.append(col)
    try:
        return PresentedModule.quotient(target, columns)
    except NonHomogeneousError as exc:
        raise HomogeneityError(f"module relations: {exc}")


def build_complex(ring: GradedRing, spec: dict) -> ModuleComplex:
    if not isinstance(spec, dict) or "terms" not in spec:
        raise SchemaError("complex needs a terms object", "complex")
    _known_fields(spec, ("terms", "differentials"), "complex")
    terms = {}
    for key, val in _object(spec["terms"], "complex.terms").items():
        idx = _index(key, "term", "complex.terms")
        twists = val.get("twists") if isinstance(val, dict) else None
        if twists is None:
            raise SchemaError(f"term {key} needs twists", "complex.terms")
        _known_fields(val, ("twists",), f"complex.terms.{key}")
        terms[idx] = FreeModule(ring, _integers(twists, f"complex.terms.{key}.twists"))
    diffs = {}
    differentials = _object(spec.get("differentials", {}), "complex.differentials")
    for key, rows in differentials.items():
        idx = _index(key, "differential", "complex.differentials")
        for n, row in enumerate(_list(rows, f"complex.differentials.{key}")):
            _list(row, f"complex.differentials.{key}[{n}]")
        src = terms.get(idx)
        tgt = terms.get(idx - 1)
        if src is None or tgt is None:
            raise SchemaError(
                f"differential {idx} touches a missing term", "complex.differentials"
            )
        if len(rows) != tgt.rank or any(len(r) != src.rank for r in rows):
            raise SchemaError(
                f"differential {idx} must be {tgt.rank}x{src.rank}",
                "complex.differentials",
            )
        entries = [[parse_poly(ring, str(e)) for e in row] for row in rows]
        try:
            diffs[idx] = GradedMap(src, tgt, entries)
        except NonHomogeneousError as exc:
            raise HomogeneityError(f"differential {idx}: {exc}")
    try:
        return ModuleComplex(ring, terms, diffs)
    except InternalInvariantError as exc:
        raise SchemaError(f"not a complex: {exc}", "complex.differentials")


def _build_ideal(ring: GradedRing, job: JobSpec):
    if job.ideal is None:
        return tuple(ring.variables())
    gens = []
    for text in job.ideal:
        g = parse_poly(ring, str(text))
        if g.is_zero() or not g.is_homogeneous() or g.degree() <= 0:
            raise HomogeneityError(
                f"ideal generator {text!r} must be homogeneous of positive degree"
            )
        gens.append(g)
    return tuple(gens)


# -- running --------------------------------------------------------------------

class Report:
    __slots__ = ("command", "parameters", "table", "checks", "passed")

    def __init__(self, command, parameters, table=None, checks=()):
        self.command = command
        self.parameters = parameters
        self.table = table
        self.checks = list(checks)
        self.passed = all(c["passed"] for c in self.checks)

    def to_document(self) -> dict:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
        }
        if self.table is not None:
            doc["table"] = self.table.to_records()
        if self.checks:
            doc["checks"] = self.checks
        return doc


def run(job: JobSpec) -> Report:
    """Dispatch a validated job; deterministic for fixed inputs."""
    if job.command == "verify":
        criteria = VERIFY_SUBJECTS[job.verify_subject]
        results = run_corpus(criteria)
        checks = [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ]
        params = {"subject": job.verify_subject}
        return Report("verify", params, checks=checks)

    ring = build_ring(job.ring)
    params = {
        "ring": {
            "char": ring.field.characteristic,
            "vars": list(ring.var_names),
            "weights": list(ring.weights),
        },
        "ideal": list(job.ideal) if job.ideal else [str(v) for v in ring.variables()],
        "i_range": list(job.i_range),
        "window": list(job.window),
        "k_max": job.k_max,
        "s": job.s,
        "K_max": job.cech_k_max,
    }
    if job.command == "hilbert":
        module = build_module(ring, job.module)
        table = hilbert_row(module, job.window)
        return Report("hilbert", params, table=table)
    if job.command == "koszul":
        module = build_module(ring, job.module)
        gens = _build_ideal(ring, job)
        spec = KoszulSpec(ring, gens, job.power, INVERSE)
        table = koszul_homology_table(spec, module, job.window)
        params["power"] = job.power
        return Report("koszul", params, table=table)

    gens = _build_ideal(ring, job)
    if job.complex is not None:
        coefficients = build_complex(ring, job.complex)
    else:
        coefficients = build_module(ring, job.module)
    if job.command == "lc":
        table = local_cohomology_table(
            gens, coefficients, job.i_range, job.window, job.k_max, job.s
        )
        return Report("lc", params, table=table)
    if job.command == "lh":
        table = local_homology_table(
            gens, coefficients, job.i_range, job.window, job.k_max, job.s
        )
        return Report("lh", params, table=table)
    if job.command == "homsc":
        table = hom_stable_cech_table(
            gens, coefficients, job.cech_k_max, job.i_range, job.window
        )
        return Report("homsc", params, table=table)
    raise SchemaError(f"unknown command {job.command!r}", "command")


# -- emission --------------------------------------------------------------------

def emit_report(report: Report, fmt: str) -> str:
    """Render a report; byte-stable for fixed inputs."""
    if fmt == "json":
        return json.dumps(report.to_document(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = []
        if report.table is not None:
            lines.append("i,d,dim,stabilized,k_used")
            for rec in report.table.to_records():
                lines.append(
                    f"{rec['i']},{rec['d']},{rec['dim']},"
                    f"{str(rec['stabilized']).lower()},{rec['k_used']}"
                )
        else:
            lines.append("criterion,name,passed")
            for c in report.checks:
                lines.append(f"{c.get('criterion', '')},{c['name']},{str(c['passed']).lower()}")
        return "\n".join(lines) + "\n"
    if fmt == "pretty":
        lines = [f"command: {report.command}"]
        for key, val in sorted(report.parameters.items()):
            lines.append(f"  {key}: {val}")
        if report.table is not None:
            records = report.table.to_records()
            if not records:
                lines.append("no entries")
            else:
                lines.append(f"{'i':>4} {'d':>5} {'dim':>5}  stabilized  k_used")
                for rec in records:
                    lines.append(
                        f"{rec['i']:>4} {rec['d']:>5} {rec['dim']:>5}  "
                        f"{str(rec['stabilized']):<10}  {rec['k_used']}"
                    )
        for c in report.checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{status}] criterion {c.get('criterion', '?')}: {c['name']}")
        lines.append("result: " + ("PASS" if report.passed else "FAIL"))
        return "\n".join(lines) + "\n"
    raise SchemaError(f"unknown report format {fmt!r}", "report")


# -- entry point -------------------------------------------------------------------

def _parse_range(text: str, name: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise SchemaError(f"{name} must look like lo:hi", name)
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise SchemaError(f"{name} bounds must be integers", name)


def _argument_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lochom",
        description=(
            "Degreewise Koszul/Cech engine for graded local cohomology, "
            "local homology, and duality checks"
        ),
    )
    ap.add_argument("command", nargs="?", help=f"one of {TABLE_COMMANDS + ('verify',)}")
    ap.add_argument("subject", nargs="?", help="verify subject (gm, duality, ... , corpus)")
    ap.add_argument("--input", help="job document (JSON)")
    ap.add_argument("--ideal", help='ideal generators, e.g. "x,y"')
    ap.add_argument("--i", dest="i_range", help="homological range lo:hi")
    ap.add_argument("--window", help="internal degree window lo:hi")
    ap.add_argument("--kmax", type=int, help="tower truncation")
    ap.add_argument("--stab", type=int, help="stabilization window s")
    ap.add_argument("--Kmax", dest="cech_kmax", type=int, help="stable Cech truncation")
    ap.add_argument("--power", type=int, help="Koszul power for the koszul command")
    ap.add_argument("--field", type=int, help="characteristic override (0 or a prime)")
    ap.add_argument("--report", choices=REPORT_FORMATS, help="output format")
    ap.add_argument("--output", help="write the report to a file instead of stdout")
    return ap


def _merge(job: JobSpec, args) -> JobSpec:
    updates = {}
    if args.command:
        updates["command"] = args.command
    if args.subject:
        updates["verify_subject"] = args.subject
    if args.ideal is not None:
        items = tuple(t.strip() for t in args.ideal.split(","))
        if items == ("",):
            items = ()  # rejected by validate() as an empty ideal
        elif "" in items:
            raise SchemaError("ideal has an empty generator", "ideal")
        updates["ideal"] = items
    if args.i_range is not None:
        updates["i_range"] = _parse_range(args.i_range, "--i")
    if args.window is not None:
        updates["window"] = _parse_range(args.window, "--window")
    if args.kmax is not None:
        updates["k_max"] = args.kmax
    if args.stab is not None:
        updates["s"] = args.stab
    if args.cech_kmax is not None:
        updates["cech_k_max"] = args.cech_kmax
    if args.power is not None:
        updates["power"] = args.power
    if args.report is not None:
        updates["report"] = args.report
    if args.field is not None and updates.get("command", job.command) == "verify":
        raise SchemaError("verify takes no field", "ring.char")
    if args.field is not None and job.ring is not None:
        ring = dict(job.ring)
        ring["char"] = args.field
        updates["ring"] = ring
    if not updates:
        return job
    return replace(job, **updates).validate()


_RANGE_FLAGS = {"--i", "--window"}
_RANGE_PATTERN = re.compile(r"^-?\d+:-?\d+$")


def _normalize_argv(argv):
    """Let range flags take values with a leading minus: --window -6:2."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    skip = False
    for idx, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _RANGE_FLAGS and idx + 1 < len(argv) and _RANGE_PATTERN.match(argv[idx + 1]):
            out.append(f"{token}={argv[idx + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _argument_parser().parse_args(_normalize_argv(argv))
    try:
        if args.input:
            job = parse_input(args.input)
        else:
            if not args.command:
                raise SchemaError("give a command or --input", "command")
            job = JobSpec(command=args.command)
        job = _merge(job, args)
        report = run(job)
        text = emit_report(report, job.report)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise SchemaError(f"cannot write output file: {exc}", "--output")
        else:
            sys.stdout.write(text)
    except (InternalInvariantError, WellDefinednessError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (
        SchemaError,
        ParseError,
        HomogeneityError,
        UnknownVariableError,
        NonHomogeneousError,
        EngineError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
