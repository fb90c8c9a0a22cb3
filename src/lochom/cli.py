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
from dataclasses import dataclass, fields, replace

from .complexes import ModuleComplex
from .corpus import run_corpus
from .errors import (
    EngineError,
    InternalInvariantError,
    NonHomogeneousError,
    SchemaError,
    WellDefinednessError,
)
from .exact import DEFAULT_PRIME, FieldSpec
from .koszul import INVERSE, KoszulSpec, _checked_gens, koszul_homology_table
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
    K_max: int = 6
    power: int = 1
    report: str = "json"
    verify: str | None = None  # None: every criterion, as "corpus"

    def validate(self) -> "JobSpec":
        if self.command not in TABLE_COMMANDS and self.command != "verify":
            raise SchemaError(f"unknown command {self.command!r}", "command")
        if self.command != "verify" and self.verify is not None:
            raise SchemaError(f"{self.command} takes no verify subject", "verify")
        if self.verify not in (None, *VERIFY_SUBJECTS):
            raise SchemaError(f"unknown verify subject {self.verify!r}", "verify")
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
            ("K_max", self.K_max),
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


# the document keys: each names the JobSpec field it sets, and a key the
# document leaves out keeps the field's default
_DOCUMENT_KEYS = tuple(f.name for f in fields(JobSpec))


def _read_field(key: str, value):
    """The JobSpec value of the document field ``key``."""
    if key in ("i_range", "window"):
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise SchemaError(f"{key} must be a [lo, hi] pair", key)
        return (_integer(value[0], f"{key}[0]"), _integer(value[1], f"{key}[1]"))
    if key in ("k_max", "s", "K_max", "power"):
        return _integer(value, key)
    if key == "ideal":
        gens = tuple(_strings(value, key))
        if any(not g.strip() for g in gens):
            raise SchemaError("ideal has an empty generator", key)
        return gens
    if key in ("command", "report", "verify"):
        return str(value)
    return value


def _document_to_jobspec(doc: dict) -> JobSpec:
    _known_fields(_object(doc, "$"), _DOCUMENT_KEYS, "$")
    values = {key: _read_field(key, doc[key]) for key in _DOCUMENT_KEYS if key in doc}
    return JobSpec(**{"command": "lc", **values}).validate()


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
    _known_fields(_object(spec, "ring"), ("char", "vars", "weights"), "ring")
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


def _poly_rows(ring: GradedRing, value, location: str, height: int, width: int | None) -> list:
    """The rows of a ``height`` x ``width`` matrix of polynomial texts, parsed;
    a ``width`` of None takes the length of the first row."""
    rows = [_strings(row, f"{location}[{n}]") for n, row in enumerate(_list(value, location))]
    width = len(rows[0]) if width is None and rows else width
    if len(rows) != height or any(len(row) != width for row in rows):
        raise SchemaError(f"expected a {height}x{width} matrix", location)
    return [[parse_poly(ring, e) for e in row] for row in rows]


def build_module(ring: GradedRing, spec: dict | None) -> PresentedModule:
    if spec is None:
        return PresentedModule.free(FreeModule(ring, [0]))
    _known_fields(_object(spec, "module"), ("target_twists", "relations"), "module")
    twists = _integers(spec.get("target_twists", [0]), "module.target_twists")
    target = FreeModule(ring, twists)
    relations = spec.get("relations", [])
    # no rows, or one per target generator with a column per relation
    rows = _poly_rows(ring, relations, "module.relations", target.rank if relations else 0, None)
    try:
        return PresentedModule.quotient(target, zip(*rows))
    except NonHomogeneousError as exc:
        raise NonHomogeneousError(f"module relations: {exc}") from None


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
    for key, value in differentials.items():
        idx = _index(key, "differential", "complex.differentials")
        src, tgt = terms.get(idx), terms.get(idx - 1)
        if src is None or tgt is None:
            raise SchemaError(
                f"differential {idx} touches a missing term", "complex.differentials"
            )
        rows = _poly_rows(ring, value, f"complex.differentials.{key}", tgt.rank, src.rank)
        try:
            diffs[idx] = GradedMap(src, tgt, rows)
        except NonHomogeneousError as exc:
            raise NonHomogeneousError(f"differential {idx}: {exc}") from None
    try:
        return ModuleComplex(ring, terms, diffs)
    except InternalInvariantError as exc:
        raise SchemaError(f"not a complex: {exc}", "complex.differentials")


def _check_strand_degrees(job: JobSpec, coefficients, gens):
    """SchemaError at the first field that takes a strand degree d to |d| + 1 >= 2^63.

    The rings hold strand degrees (plus one) in int64.  A strand degree is a
    window degree shifted by a module twist and by k' <= k times a sum of
    ideal degrees, k the truncation field, so the fields add up in that order.
    """
    k_field = {"koszul": "power", "homsc": "K_max"}.get(job.command, "k_max")
    k = getattr(job, k_field)
    if isinstance(coefficients, ModuleComplex):
        twists_field = "complex.terms"
        twists = [t for m in coefficients.terms.values() for t in m.generators.twists]
    else:
        twists_field, twists = "module.target_twists", coefficients.generators.twists
    ideal = sum(g.degree() for g in gens)
    reach = 0
    for name, more in (("window", max(map(abs, job.window))),
                       (twists_field, max(map(abs, twists), default=0)),
                       ("ideal", ideal), (k_field, (k - 1) * ideal)):
        reach += more
        if reach + 1 >= 2**63:
            raise SchemaError("strand degrees must stay below 2^63 - 1", name)


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
        subject = job.verify or "corpus"
        results = run_corpus(VERIFY_SUBJECTS[subject])
        checks = [r._asdict() for r in results]  # criterion, name, passed, details
        return Report("verify", {"subject": subject}, checks=checks)

    ring = build_ring(job.ring)
    ideal = list(job.ideal) if job.ideal else [str(v) for v in ring.variables()]
    params = {
        "ring": {
            "char": ring.field.characteristic,
            "vars": list(ring.var_names),
            "weights": list(ring.weights),
        },
        "ideal": ideal,
        "i_range": list(job.i_range),
        "window": list(job.window),
        "k_max": job.k_max,
        "s": job.s,
        "K_max": job.K_max,
    }
    gens = () if job.command == "hilbert" else _checked_gens(parse_poly(ring, t) for t in ideal)
    if job.complex is not None:
        coefficients = build_complex(ring, job.complex)
    else:
        coefficients = build_module(ring, job.module)
    _check_strand_degrees(job, coefficients, gens)
    if job.command == "hilbert":
        table = hilbert_row(coefficients, job.window)
    elif job.command == "koszul":
        spec = KoszulSpec(ring, gens, job.power, INVERSE)
        table = koszul_homology_table(spec, coefficients, job.window)
        params["power"] = job.power
    elif job.command in ("lc", "lh"):
        table_of = local_cohomology_table if job.command == "lc" else local_homology_table
        table = table_of(gens, coefficients, job.i_range, job.window, job.k_max, job.s)
    else:  # homsc: validate() admits no other command
        table = hom_stable_cech_table(
            gens, coefficients, job.K_max, job.i_range, job.window
        )
    return Report(job.command, params, table=table)


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

def _integer_flag(location: str):
    """An argparse type: the integer a flag spells, or an input error at ``location``."""

    def read(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise SchemaError(f"expected an integer, got {text!r}", location) from None

    return read


def _range_flag(name: str):
    bound = _integer_flag(name)

    def read(text: str) -> list:
        parts = text.split(":")
        if len(parts) != 2:
            raise SchemaError(f"{name} must look like lo:hi", name)
        return [bound(part) for part in parts]

    return read


def _ideal_flag(text: str) -> list:
    """The generators of ``--ideal``, split at commas; ``_read_field`` checks them."""
    return [t.strip() for t in text.split(",")] if text else []


def _usage_error(message: str):
    # argparse reports a malformed command line here; it is an input error
    raise SchemaError(message, "command line")


def _argument_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lochom",
        description=(
            "Degreewise Koszul/Cech engine for graded local cohomology, "
            "local homology, and duality checks"
        ),
    )
    ap.add_argument("command", nargs="?", help=f"one of {TABLE_COMMANDS + ('verify',)}")
    ap.add_argument("verify", nargs="?", metavar="subject",
                    help="verify subject (gm, duality, ... , corpus)")
    ap.add_argument("--input", help="job document (JSON)")
    ap.add_argument("--ideal", type=_ideal_flag, help='ideal generators, e.g. "x,y"')
    ap.add_argument("--i", dest="i_range", type=_range_flag("--i"), help="homological range lo:hi")
    ap.add_argument("--window", type=_range_flag("--window"), help="internal degree window lo:hi")
    ap.add_argument("--kmax", dest="k_max", type=_integer_flag("k_max"), help="tower truncation")
    ap.add_argument("--stab", dest="s", type=_integer_flag("s"), help="stabilization window s")
    ap.add_argument("--Kmax", dest="K_max", type=_integer_flag("K_max"),
                    help="stable Cech truncation")
    ap.add_argument("--power", type=_integer_flag("power"),
                    help="Koszul power for the koszul command")
    ap.add_argument("--field", type=_integer_flag("ring.char"),
                    help="characteristic override (0 or a prime)")
    ap.add_argument("--report", help=f"output format: {', '.join(REPORT_FORMATS)}")
    ap.add_argument("--output", help="write the report to a file instead of stdout")
    ap.error = _usage_error
    return ap


def _merge(job: JobSpec, args) -> JobSpec:
    """The job with the document fields that flags set.  Such a flag has the
    field's key as its dest and its value in the field's document form (see
    ``_range_flag``), so ``_read_field`` reads it as it reads a document."""
    flags = vars(args)
    updates = {
        key: _read_field(key, flags[key]) for key in _DOCUMENT_KEYS if flags.get(key) is not None
    }
    if args.field is not None and updates.get("command", job.command) == "verify":
        raise SchemaError("verify takes no field", "ring.char")
    if args.field is not None and isinstance(job.ring, dict):
        updates["ring"] = {**job.ring, "char": args.field}
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
    try:
        args = _argument_parser().parse_args(_normalize_argv(argv))
        if not (args.input or args.command):
            raise SchemaError("give a command or --input", "command")
        job = _merge(parse_input(args.input) if args.input else JobSpec(args.command), args)
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
    except EngineError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy names the array it could not allocate
        print(f"input error: out of memory{detail}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
