"""CLI: job parsing, report emission, exit codes, determinism."""

import contextlib
import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import cli, errors
from lochom.cli import emit_report, main, parse_input, run, _document_to_jobspec
from lochom.errors import (
    EngineError,
    InternalInvariantError,
    ParseError,
    SchemaError,
    WellDefinednessError,
)
from lochom.modules import HilbertTable, TableEntry


RING = {"char": 32003, "vars": ["x", "y"], "weights": [1, 1]}


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_minimal_document_gets_defaults(tmp_path):
    job = parse_input(write_job(tmp_path, {"command": "lc", "ring": RING}))
    assert job.k_max == 8 and job.s == 2 and job.K_max == 6
    assert job.report == "json"
    from lochom.cli import build_ring

    ring = build_ring(job.ring)
    assert ring.field.characteristic == 32003


def test_a_document_takes_its_defaults_from_jobspec():
    # a job read from --input and a flag-only job start from the same defaults
    from lochom.cli import JobSpec

    assert _document_to_jobspec({}) == JobSpec(command="lc")
    assert _document_to_jobspec({"command": "verify"}) == JobSpec(command="verify")


def test_module_twist_inference(tmp_path):
    from lochom.cli import build_module, build_ring

    job = parse_input(
        write_job(
            tmp_path,
            {
                "command": "hilbert",
                "ring": RING,
                "module": {"target_twists": [0], "relations": [["x^2", "x*y"]]},
            },
        )
    )
    module = build_module(build_ring(job.ring), job.module)
    assert module.relations.twists == (-2, -2)


def test_malformed_polynomial_is_parse_error(tmp_path):
    job = parse_input(
        write_job(
            tmp_path,
            {
                "command": "hilbert",
                "ring": RING,
                "module": {"target_twists": [0], "relations": [["x^"]]},
            },
        )
    )
    with pytest.raises(ParseError):
        run(job)


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(SchemaError):
        parse_input(write_job(tmp_path, {"command": "lc", "ring": RING, "bogus": 1}))


def test_complex_input_and_schema_errors(tmp_path):
    doc = {
        "command": "lc",
        "ring": RING,
        "ideal": ["x", "y"],
        "complex": {
            "terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}},
            "differentials": {"1": [["x"]]},
        },
        "i_range": [0, 2],
        "window": [-3, 1],
    }
    report = run(parse_input(write_job(tmp_path, doc)))
    assert report.table is not None
    bad = dict(doc)
    bad["complex"] = {
        "terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}, "2": {"twists": [-2]}},
        "differentials": {"1": [["x"]], "2": [["x"]]},
    }
    with pytest.raises(SchemaError):
        run(parse_input(write_job(tmp_path, bad, "bad.json")))


def test_emit_empty_table():
    table = HilbertTable()
    from lochom.cli import Report

    report = Report("lc", {}, table=table)
    assert json.loads(emit_report(report, "json"))["table"] == []
    assert emit_report(report, "csv") == "i,d,dim,stabilized,k_used\n"
    assert "no entries" in emit_report(report, "pretty")


def test_emit_single_entry_roundtrip():
    table = HilbertTable({(1, -2): TableEntry(3, True, 4)})
    from lochom.cli import Report

    report = Report("lc", {}, table=table)
    doc = json.loads(emit_report(report, "json"))
    assert doc["table"] == [
        {"i": 1, "d": -2, "dim": 3, "stabilized": True, "k_used": 4}
    ]
    csv = emit_report(report, "csv").splitlines()
    assert csv[0] == "i,d,dim,stabilized,k_used"
    assert csv[1] == "1,-2,3,true,4"


def test_main_exit_codes(tmp_path, capsys):
    good = write_job(
        tmp_path,
        {"command": "lc", "ring": RING, "ideal": ["x", "y"], "window": [-3, 1]},
    )
    assert main(["--input", good]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    assert main(["--input", missing]) == 2
    capsys.readouterr()
    bad_poly = write_job(
        tmp_path, {"command": "lc", "ring": RING, "ideal": ["x +"]}, "badpoly.json"
    )
    assert main(["--input", bad_poly]) == 2
    capsys.readouterr()


ENGINE_ERRORS = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, EngineError)
]


@pytest.mark.parametrize("cls", ENGINE_ERRORS + [MemoryError], ids=lambda cls: cls.__name__)
def test_every_engine_error_has_its_exit_code(cls, tmp_path, capsys, monkeypatch):
    # broken invariants exit 3, every other engine error is an input error, and
    # so is a job too big for memory (numpy raises MemoryError)
    def fail(job):
        raise cls("boom", 1) if cls is ParseError else cls("boom")

    monkeypatch.setattr(cli, "run", fail)
    job = write_job(tmp_path, {"command": "lc", "ring": RING, "ideal": ["x", "y"]})
    invariant = cls in (InternalInvariantError, WellDefinednessError)
    assert main(["--input", job]) == (3 if invariant else 2)
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation: " if invariant else "input error: ")
    assert "boom" in err and "Traceback" not in err


def test_flag_overrides(tmp_path, capsys):
    good = write_job(tmp_path, {"command": "lc", "ring": RING, "ideal": ["x", "y"]})
    assert main(["--input", good, "--window", "-2:0", "--i", "2:2", "--report", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "i,d,dim,stabilized,k_used"
    assert len(out) == 4  # three degrees, one homological index
    # an explicit empty ideal is an input error, not the maximal ideal
    assert main(["--input", good, "--ideal", ""]) == 2
    assert "(at ideal)" in capsys.readouterr().err
    # so is an empty item between, before or after the generators
    for ideal in ("x,,y", ",x", "x,", "x, ,y"):
        assert main(["--input", good, "--ideal", ideal]) == 2
        assert "(at ideal)" in capsys.readouterr().err
    # and in a document, by the same rule
    for ideal in (["x", ""], ["x", " "]):
        bad = write_job(tmp_path, {"command": "lc", "ring": RING, "ideal": ideal})
        assert main(["--input", bad]) == 2
        assert "ideal has an empty generator (at ideal)" in capsys.readouterr().err


def test_run_is_deterministic(tmp_path):
    doc = {
        "command": "lc",
        "ring": RING,
        "ideal": ["x", "y"],
        "i_range": [0, 2],
        "window": [-4, 1],
    }
    job = parse_input(write_job(tmp_path, doc))
    first = emit_report(run(job), "json")
    second = emit_report(run(job), "json")
    assert first == second


def test_verify_subject_dispatch(capsys):
    assert main(["verify", "selfdual", "--report", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "criterion,name,passed"
    assert "2,koszul-self-duality,true" in out


TWO_TERM = {"terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}}, "differentials": {"1": [["x"]]}}
# the verify subjects build their own rings and modules, so verify takes none of these
VERIFY_REJECTS = {"ring": RING, "module": {"target_twists": [0]}, "complex": TWO_TERM, "ideal": ["x"]}
MALFORMED = {
    "k_max-string": {"k_max": "abc"},
    "complex-terms-list": {"complex": {"terms": [1]}},
    "module-twist-string": {"module": {"target_twists": ["a"]}},
    "module-relations-number": {"module": {"relations": 5}},
    "i_range-float": {"i_range": [0, 1.7]},
    "ideal-string": {"ideal": "x"},
    "ideal-empty": {"ideal": []},
    "weights-string": {"ring": {"char": 32003, "vars": ["x", "y"], "weights": "12"}},
    "char-above-bound": {"ring": {"char": 4294967311, "vars": ["x", "y"]}},
    # "1" would parse as the constant, never as the variable
    "ring-var-digit": {"command": "hilbert", "ring": {"char": 32003, "vars": ["1", "y"]},
                       "module": {"relations": [["1"]]}},
    "hilbert-complex": {"command": "hilbert", "complex": TWO_TERM},
    "koszul-complex": {"command": "koszul", "complex": TWO_TERM},
    "complex-term-leading-zero": {"complex": {
        "terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}, "01": {"twists": [-1]}},
        "differentials": {"1": [["x"]]}}},
    "complex-term-underscore": {"complex": {
        "terms": {"0": {"twists": [0]}, "1_0": {"twists": [-1]}}}},
    "complex-differential-key": {"complex": {
        "terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}},
        "differentials": {" 1": [["x"]]}}},
    # a misspelt key in a nested object would otherwise be read as its default
    "ring-unknown-key": {"ring": {"char": 32003, "vars": ["x", "y"], "weight": [1, 3]}},
    "module-unknown-key": {"command": "hilbert", "module": {"relation": [["x^2"]]}},
    "complex-unknown-key": {"complex": {"terms": TWO_TERM["terms"], "differential": {"1": [["x"]]}}},
    "complex-term-unknown-key": {"complex": {
        "terms": {"0": {"twists": [0]}, "1": {"twists": [-1], "twist": [0]}},
        "differentials": {"1": [["x"]]}}},
    **{f"verify-{field}": {"command": "verify", field: value} for field, value in VERIFY_REJECTS.items()},
    # --field rewrites ring.char, which needs the ring to be an object first
    "field-ring-string": {"command": "hilbert", "ring": "ab"},
    "field-ring-pairs": {"command": "hilbert", "ring": [["vars", ["x"]]]},
    # every polynomial of a job goes through the validating constructor
    "relation-negative-exponent": {"module": {"relations": [["x*y^-1"]]}},
    "ideal-negative-exponent": {"ideal": ["x", "y^-2"]},
    "differential-negative-exponent": {"complex": {
        "terms": TWO_TERM["terms"], "differentials": {"1": [["x^-1"]]}}},
    # a polynomial entry must be text: true is not the variable named True
    "relation-true": {"command": "hilbert", "ring": {"char": 32003, "vars": ["True", "y"]},
                      "module": {"relations": [[True]]}},
    "relation-number": {"module": {"relations": [[3]]}},
    "relation-null": {"module": {"relations": [[None]]}},
    "relation-float": {"module": {"relations": [[1.5]]}},
    "differential-number": {"complex": {"terms": TWO_TERM["terms"], "differentials": {"1": [[2]]}}},
    "verify-unknown-subject": {"command": "verify", "verify": "bogus"},
    "ideal-item-number": {"ideal": [1]},
    "vars-empty": {"ring": {"char": 32003, "vars": []}},
    "relations-ragged": {"module": {"target_twists": [0, 0], "relations": [["x", "y"], ["x"]]}},
    "complex-empty": {"complex": {}},
    "complex-term-no-twists": {"complex": {"terms": {"0": {}}}},
    "complex-differential-missing-term": {"complex": {
        "terms": {"0": {"twists": [0]}}, "differentials": {"1": [["x"]]}}},
}
# the cases run with --field 5, whose error must point at the ring
WITH_FIELD = {"field-ring-string", "field-ring-pairs"}
# the error text of the cases whose error must name its cell or field
MALFORMED_ERRORS = {
    "relation-true": "expected a string, got True (at module.relations[0][0])",
    "relation-number": "(at module.relations[0][0])",
    "relation-null": "(at module.relations[0][0])",
    "relation-float": "(at module.relations[0][0])",
    "differential-number": "(at complex.differentials.1[0][0])",
    "verify-unknown-subject": "unknown verify subject 'bogus' (at verify)",
    "ideal-item-number": "(at ideal[0])",
    "vars-empty": "(at ring.vars)",
    "relations-ragged": "expected a 2x2 matrix (at module.relations)",
    "complex-empty": "(at complex)",
    "complex-term-no-twists": "(at complex.terms)",
    "complex-differential-missing-term": "(at complex.differentials)",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_job_exits_2_without_traceback(tmp_path, capsys, name):
    doc = {"command": "lc", "ring": RING, "window": [-1, 0], "k_max": 2}
    doc.update(MALFORMED[name])
    flags = ["--field", "5"] if name in WITH_FIELD else []
    assert main(["--input", write_job(tmp_path, doc), *flags]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and ("(at ring)" if name in WITH_FIELD else "(at ") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(MALFORMED_ERRORS))
def test_a_malformed_job_names_its_field(tmp_path, capsys, name):
    doc = {"command": "lc", "ring": RING, "window": [-1, 0], "k_max": 2, **MALFORMED[name]}
    assert main(["--input", write_job(tmp_path, doc)]) == 2
    assert MALFORMED_ERRORS[name] in capsys.readouterr().err


def test_a_non_homogeneous_relation_exits_2_naming_the_relation(tmp_path, capsys):
    doc = {"command": "hilbert", "ring": RING, "module": {"relations": [["y^2 + x"]]}}
    assert main(["--input", write_job(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == "input error: module relations: y^2 + x is not homogeneous\n"


def test_a_job_needs_a_command_or_an_input(capsys):
    assert main([]) == 2
    assert "give a command or --input (at command)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra", [("hilbert", {}), ("lc", {"ideal": ["y"], "k_max": 3})], ids=["hilbert", "lc"]
)
def test_weight_past_int64_reports_like_a_large_weight(tmp_path, capsys, command, extra):
    # x of weight above every degree the job reaches has exponent 0 in every
    # strand, so weight 2^63 gives the report of weight 10^6
    reports = []
    for weight in (2**63, 10**6):
        ring = {"char": 5, "vars": ["x", "y"], "weights": [weight, 1]}
        doc = {"command": command, "ring": ring, "module": {"relations": [["y"]]},
               "window": [0, 2], **extra}
        assert main(["--input", write_job(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["ring"]["weights"] == [weight, 1]
        report["parameters"]["ring"]["weights"] = None
        reports.append(report)
    assert reports[0] == reports[1]


DEGREES_PAST_INT64 = {
    "ideal": {"ideal": ["x", "y"]},
    "window": {"window": [0, 2**63 - 1]},
    "module.target_twists": {"module": {"target_twists": [-(2**63)], "relations": [["y"]]}},
    "k_max": {"k_max": 2**63},
}


@pytest.mark.parametrize("field", sorted(DEGREES_PAST_INT64))
def test_strand_degrees_past_int64_exit_2_at_the_field(tmp_path, capsys, field):
    # x of weight 2^63 is harmless while no strand degree reaches it (the
    # test above); the ideal (x, y) takes the strand degrees of K(x, y) there
    doc = {"command": "lc", "ring": {"char": 5, "vars": ["x", "y"], "weights": [2**63, 1]},
           "module": {"relations": [["y"]]}, "ideal": ["y"], "window": [0, 2], "k_max": 3}
    doc.update(DEGREES_PAST_INT64[field])
    assert main(["--input", write_job(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"(at {field})" in err and "Traceback" not in err


@pytest.mark.parametrize("field", sorted(VERIFY_REJECTS))
def test_verify_rejects_each_table_field_at_that_field(field):
    doc = {"command": "verify", "verify": "selfdual", field: VERIFY_REJECTS[field]}
    with pytest.raises(SchemaError) as err:
        _document_to_jobspec(doc)
    assert err.value.location == field


def test_field_flag_on_verify_is_an_input_error(capsys):
    assert main(["verify", "selfdual", "--field", "5"]) == 2
    assert "(at ring.char)" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["document", "positional"])
@pytest.mark.parametrize("command", cli.TABLE_COMMANDS)
def test_a_table_command_takes_no_verify_subject(tmp_path, capsys, command, route):
    doc = {"command": command, "ring": RING, "window": [0, 1]}
    if route == "document":
        doc["verify"], argv = "gm", []
    else:
        argv = [command, "bogus"]
    assert main([*argv, "--input", write_job(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "(at verify)" in err and "Traceback" not in err


def test_verify_with_no_subject_runs_every_criterion_as_corpus(tmp_path, capsys, monkeypatch):
    asked = []
    monkeypatch.setattr(cli, "run_corpus", lambda criteria: asked.append(criteria) or [])
    outputs = []
    for argv in (["verify"], ["--input", write_job(tmp_path, {"command": "verify"})]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert asked == [None, None]
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["parameters"] == {"subject": "corpus"}


FLAG_JOB = {"command": "lc", "ring": RING, "window": [-1, 0], "k_max": 2}
# each flag, and the document field it sets: a job given either way is one job
FLAG_FIELDS = {
    "--ideal": (["--ideal", "x"], {"ideal": ["x"]}),
    "--i": (["--i", "1:2"], {"i_range": [1, 2]}),
    "--window": (["--window", "-2:0"], {"window": [-2, 0]}),
    "--kmax": (["--kmax", "3"], {"k_max": 3}),
    "--stab": (["--stab", "1"], {"s": 1}),
    "--Kmax": (["--Kmax", "2"], {"K_max": 2}),
    "--power": (["--power", "2"], {"power": 2}),
    "--report": (["--report", "pretty"], {"report": "pretty"}),
    "command": (["lh"], {"command": "lh"}),
    "subject": (["verify", "selfdual"], {"command": "verify", "verify": "selfdual"}),
    "--field": (["--field", "5"], {"ring": {**RING, "char": 5}}),
}


@pytest.mark.parametrize("flag", sorted(FLAG_FIELDS))
def test_a_flag_is_its_document_field(tmp_path, capsys, monkeypatch, flag):
    flags, fields = FLAG_FIELDS[flag]
    base = {"command": "verify"} if flag == "subject" else FLAG_JOB
    jobs, outputs, real_run = [], [], cli.run
    monkeypatch.setattr(cli, "run", lambda job: jobs.append(job) or real_run(job))
    for argv in ([*flags, "--input", write_job(tmp_path, base)],
                 ["--input", write_job(tmp_path, {**base, **fields}, "fields.json")]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert jobs[0] == jobs[1] and outputs[0] == outputs[1]


# a malformed flag value, and the field the error names
MALFORMED_FLAGS = {
    "i-reversed": (["--i", "2:1"], "i_range"),
    "i-no-colon": (["--i", "2"], "--i"),
    "window-reversed": (["--window", "1:0"], "window"),
    "window-not-integer": (["--window", "0:x"], "--window"),
    "kmax-0": (["--kmax", "0"], "k_max"),
    "stab-0": (["--stab", "0"], "s"),
    "Kmax-0": (["--Kmax", "0"], "K_max"),
    "power-0": (["--power", "0"], "power"),
    "ideal-empty-item": (["--ideal", "x,,y"], "ideal"),
    "field-on-verify": (["verify", "--field", "5"], "ring.char"),
    # flags argparse splits off and the one integer reader reads
    "kmax-not-integer": (["--kmax", "abc"], "k_max"),
    "stab-not-integer": (["--stab", "x"], "s"),
    "Kmax-not-integer": (["--Kmax", "x"], "K_max"),
    "power-not-integer": (["--power", "x"], "power"),
    "field-not-integer": (["--field", "x"], "ring.char"),
    "report-unknown": (["--report", "xml"], "report"),
    "unknown-flag": (["--nope"], "command line"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FLAGS))
def test_a_malformed_flag_exits_2_at_its_field(tmp_path, capsys, name):
    flags, field = MALFORMED_FLAGS[name]
    job = [] if "verify" in flags else ["--input", write_job(tmp_path, FLAG_JOB)]
    assert main([*flags, *job]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"(at {field})" in err
    assert "Traceback" not in err


UNREADABLE = {"not-utf8": b'{"command": "lc", "ideal": ["\xff"]}', "nested-100000": b"[" * 100_000}


def test_invalid_json_exits_2_at_its_line_and_column(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("{command: lc}", encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: invalid JSON") and f"(at {path}:1:2)" in err


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_exits_2_at_the_path(tmp_path, capsys, name):
    path = tmp_path / "job.json"
    path.write_bytes(UNREADABLE[name])
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"(at {path})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2_at_output(tmp_path, capsys, where):
    job = write_job(tmp_path, {"command": "hilbert", "ring": RING, "window": [0, 1]})
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    assert main(["--input", job, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "(at --output)" in err
    assert "Traceback" not in err


def test_an_output_file_holds_the_bytes_stdout_would(tmp_path, capsys):
    job = write_job(tmp_path, {"command": "lc", "ring": RING, "window": [-2, 0], "k_max": 2})
    assert main(["--input", job]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["--input", job, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


def test_a_pretty_verify_report_lists_each_criterion(capsys):
    assert main(["verify", "selfdual", "--report", "pretty"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["command: verify", "  subject: selfdual"]
    assert "[PASS] criterion 2: koszul-self-duality" in out and out[-1] == "result: PASS"


# -- fuzzing the job surface ---------------------------------------------------

POLY_TEXTS = ("x", "y", "x^2", "x*y", "y^2 - x^2", "2*x*y", "x + y^2", "z", "0", "1", "x +")
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                 st.lists(st.integers(-1, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.none()))


@st.composite
def _ring_docs(draw):
    nvars = draw(st.integers(1, 2))
    doc = {"char": draw(st.sampled_from((32003, 0, 2, 3, 4))), "vars": ["x", "y"][:nvars]}
    if draw(st.booleans()):
        doc["weights"] = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    return doc


_module_docs = st.fixed_dictionaries({}, optional={
    "target_twists": st.lists(st.integers(-2, 2), min_size=1, max_size=2),
    "relations": st.lists(st.lists(st.sampled_from(POLY_TEXTS), min_size=1, max_size=2), max_size=2),
})
_complex_docs = st.sampled_from((
    {"terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}}, "differentials": {"1": [["x"]]}},
    {"terms": {"0": {"twists": [0]}, "1": {"twists": [-2]}}, "differentials": {"1": [["x^2"]]}},
    {"terms": {"0": {"twists": [0]}, "1": {"twists": [-1]}}, "differentials": {"1": [["x^2"]]}},
    {"terms": {"0": {"twists": [0]}}},
))
_pairs = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
_valid_docs = st.fixed_dictionaries({
    "command": st.sampled_from(("lc", "lh", "koszul", "hilbert", "homsc")),
    "ring": _ring_docs(),
}, optional={
    "module": _module_docs,
    "ideal": st.lists(st.sampled_from(POLY_TEXTS), min_size=1, max_size=3),
    "i_range": _pairs.map(sorted),
    "window": _pairs.map(sorted),
    "k_max": st.integers(1, 3),
    "s": st.integers(1, 2),
    "K_max": st.integers(1, 2),
    "power": st.integers(1, 2),
    "report": st.sampled_from(("json", "csv", "pretty")),
})


@st.composite
def _job_docs(draw):
    """A job document, with at most one field replaced by a value of another shape."""
    doc = draw(_valid_docs)
    if draw(st.booleans()):
        doc.pop("module", None)
        doc["complex"] = draw(_complex_docs)
    field = draw(st.sampled_from((None, None, "command", "ring", "module", "complex", "ideal",
                                  "i_range", "window", "k_max", "s", "K_max", "power", "report")))
    if field is not None:
        doc[field] = draw(JUNK)
    return doc


@settings(max_examples=150)
@given(doc=_job_docs())
def test_cli_exit_code_contract_on_generated_jobs(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    # an exception escaping main would print a traceback; it fails this test instead
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_a_finished_job_leaves_no_cyclic_garbage():
    # a job's ring holds its multiplication and basis caches; a reference cycle
    # through any engine object would keep them until a full collection
    doc = {
        "command": "lc", "ring": RING, "ideal": ["x", "y"], "i_range": [0, 2], "window": [-3, 1],
        "module": {"target_twists": [0], "relations": [["x^2", "x*y"]]}, "k_max": 3,
    }
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        emit_report(run(_document_to_jobspec(doc)), "json")
        gc.collect()
        leaked = {type(o).__qualname__ for o in gc.garbage
                  if (type(o).__module__ or "").startswith("lochom")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not leaked
