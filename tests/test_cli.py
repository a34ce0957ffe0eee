import json
import re
from pathlib import Path

import pytest

from hgalois import DegreeCapError, cli, envelope, jobs, maps, ore
from hgalois.cli import COMMANDS, build_parser, main, render_json, run_commands
from hgalois.errors import JobError
from hgalois.examples import BUILTINS, builtin_job, builtin_listing
from hgalois.fields import PRIME_BOUND
from hgalois.jobs import Job

ALL_BUILTINS = sorted(BUILTINS)


def run_cli(*argv):
    return main(list(argv))


def test_command_table_matches_the_parser():
    """Every row of COMMANDS is a subcommand or `convert <direction>`, and
    every subcommand but `run` and `list-builtins` is a row."""
    rows = set()
    for name, sub in build_parser()._subparsers._group_actions[0].choices.items():
        if name == "convert":
            rows |= {f"convert {d}" for a in sub._actions if a.dest == "direction"
                     for d in a.choices}
        elif name not in ("run", "list-builtins"):
            rows.add(name)
    assert rows == set(COMMANDS)


def test_readme_names_every_command():
    """The README's `Commands:` sentence names each row of COMMANDS, `run`
    and `list-builtins`, once each, and nothing else."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"^Commands: (.*?)\.\s", readme, re.M | re.S).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(names) == sorted([*COMMANDS, "run", "list-builtins"])


def _job_file(tmp_path, doc):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [["run"]] + [name.split() for name in sorted(COMMANDS)])
def test_unknown_command_name_exits_two_before_any_command_runs(argv, tmp_path, capsys):
    """The job's command list is checked before any command runs, under
    `run` and under every explicit subcommand."""
    doc = builtin_job("sweedler_h4")
    doc["commands"] = ["check-hopf-galois", "check-hopf"]
    assert run_cli(*argv, "--input", _job_file(tmp_path, doc)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sweedler_h4.commands: unknown command 'check-hopf'\n"


def test_run_commands_rejects_an_unknown_name():
    with pytest.raises(JobError) as err:
        run_commands(Job(builtin_job("sweedler_h4")), ["check-hopf-galois", "bogus"])
    assert (err.value.path, str(err.value)) == (
        "sweedler_h4.commands", "sweedler_h4.commands: unknown command 'bogus'")


@pytest.mark.parametrize("command,field", [("check-thm59", "cap"),
                                           ("check-lemma55", "sample_words")])
def test_commands_read_the_job_blocks_in_a_fixed_order(command, field, tmp_path, capsys):
    """With a bad envelope block and a bad mu block, check-thm59 reads the
    envelope's cap first and check-lemma55 its sample words, before mu."""
    doc = builtin_job("z2_zero_bracket")
    doc["envelope"] = {"cap": "abc", "sample_words": 5}
    doc["mu"] = 5
    doc["commands"] = [command]
    assert run_cli("run", "--input", _job_file(tmp_path, doc)) == 2
    assert capsys.readouterr().err.startswith(f"error: z2_zero_bracket.envelope.{field}: ")


def test_list_builtins(capsys):
    assert run_cli("list-builtins") == 0
    out = capsys.readouterr().out
    assert "sweedler_h4" in out
    assert "laurent_lambda1" in out
    for item in builtin_listing():
        assert item["anchor"] in out


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_every_bundled_job_passes(name, tmp_path):
    report = tmp_path / "report.json"
    assert run_cli("run", "--builtin", name, "--report", str(report)) == 0
    doc = json.loads(report.read_text())
    summary = doc[-1]["summary"]
    assert summary["status"] == "pass"
    assert summary["failed"] == 0
    assert all(e["status"] == "pass" for e in doc[:-1])
    assert all(e["anchor"] for e in doc[:-1])


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_reports_are_byte_identical(name, tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in (1, 2)]
    for path in paths:
        assert run_cli("run", "--builtin", name, "--report", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_single_command_against_builtin(capsys):
    assert run_cli("check-hopf-galois", "--builtin", "sweedler_h4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[-1]["summary"]["commands"] == ["check-hopf-galois"]


def test_text_format(capsys):
    assert run_cli("check-poisson", "--builtin", "laurent_lambda1",
                   "--format", "text") == 0
    out = capsys.readouterr().out
    assert "== check-poisson ==" in out
    assert "-> PASS" in out


def test_job_file_from_disk(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(builtin_job("sweedler_h4")))
    assert run_cli("run", "--input", str(job)) == 0
    capsys.readouterr()


def test_failing_job_exits_one_with_witness(tmp_path):
    doc = builtin_job("sweedler_h4")
    del doc["mu"]["x"][2]  # drop the third summand of mu(x)
    job = tmp_path / "bad.json"
    job.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert run_cli("run", "--input", str(job), "--report", str(report)) == 1
    entries = json.loads(report.read_text())[:-1]
    failing = [e for e in entries if e["status"] == "fail"]
    assert failing
    assert any(e.get("witness") and e["witness"]["terms"] for e in failing)


# right-hand sides of x^2 in sweedler_h4 that are zero with a zero term
ZERO_X2_RHS = {
    "0*g*x^2": [{"coeff": "0", "word": ["g", "x", "x"]}],
    "g-g": [{"coeff": "1", "word": ["g"]}, {"coeff": "-1", "word": ["g"]}],
}


@pytest.mark.parametrize("rhs", sorted(ZERO_X2_RHS))
def test_zero_terms_of_a_relation_are_dropped(rhs, tmp_path):
    """x^2 = 0*g*x^2 and x^2 = g - g are the relation x^2 = 0: no order
    error for the zero term and no zero coefficient in the rule, so the
    report is the bundled one, byte for byte."""
    doc = builtin_job("sweedler_h4")
    doc["presentation"]["relations"][1]["rhs"] = ZERO_X2_RHS[rhs]
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    reports = [tmp_path / "bundled.json", tmp_path / "zero_rhs.json"]
    assert run_cli("run", "--builtin", "sweedler_h4", "--report", str(reports[0])) == 0
    assert run_cli("run", "--input", str(job), "--report", str(reports[1])) == 0
    assert reports[1].read_bytes() == reports[0].read_bytes()


def test_mutating_each_summand_fails(tmp_path):
    for index in range(3):
        doc = builtin_job("sweedler_h4")
        del doc["mu"]["x"][index]
        job = tmp_path / f"mut{index}.json"
        job.write_text(json.dumps(doc))
        assert run_cli("run", "--input", str(job), "--report",
                       str(tmp_path / "r.json")) == 1


def test_schema_error_exits_two(tmp_path, capsys):
    job = tmp_path / "bad.json"
    job.write_text(json.dumps({
        "presentation": {"generators": [{"name": "g"}]},
        "mu": {"g": [{"coeff": "1", "factors": [["q"], ["g"], ["g"]]}]},
        "commands": ["check-hopf-galois"],
    }))
    assert run_cli("run", "--input", str(job)) == 2
    err = capsys.readouterr().err
    assert "mu.g[0].factors[0]" in err
    assert "unknown atom" in err


def test_float_coefficient_rejected(tmp_path, capsys):
    doc = builtin_job("sweedler_h4")
    doc["mu"]["g"][0]["coeff"] = 1.5
    job = tmp_path / "float.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert "floating-point" in capsys.readouterr().err


def test_unknown_builtin_exits_two(capsys):
    assert run_cli("run", "--builtin", "nope") == 2
    assert "unknown builtin" in capsys.readouterr().err


def test_missing_input_exits_two(capsys):
    assert run_cli("run") == 2
    capsys.readouterr()


def test_invalid_json_exits_two(tmp_path, capsys):
    job = tmp_path / "broken.json"
    job.write_text("{not json")
    assert run_cli("run", "--input", str(job)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    job = tmp_path / "latin1.json"
    job.write_bytes(b'{"name": "caf\xe9"}')
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err.startswith(f"error: {job}: invalid JSON")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    job = tmp_path / "nested.json"
    job.write_text("[" * 200_000)
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err.startswith(f"error: {job}: invalid JSON")


def test_characteristic_guard(tmp_path, capsys):
    doc = builtin_job("sweedler_h4")
    doc["field"] = {"prime": 2}
    job = tmp_path / "char2.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert "characteristic" in capsys.readouterr().err


def test_h4_over_gf5(tmp_path, capsys):
    doc = builtin_job("sweedler_h4")
    doc["field"] = {"prime": 5}
    job = tmp_path / "gf5.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 0
    capsys.readouterr()


def test_convert_commands(capsys):
    assert run_cli("convert", "hopf-to-galois", "--builtin", "sweedler_h4") == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc[-1]["summary"]["results"]["convert hopf-to-galois"]
    assert set(result["mu"]) == {"g", "x"}
    assert run_cli("convert", "galois-to-hopf", "--builtin", "sweedler_h4") == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc[-1]["summary"]["results"]["convert galois-to-hopf"]
    assert result["antipode"]["x"] == [{"coeff": "-1", "word": ["g", "x"]}]


def test_round_trip_via_cli_results(capsys):
    """convert hopf-to-galois emits exactly the bundled structure map."""
    assert run_cli("convert", "hopf-to-galois", "--builtin", "sweedler_h4") == 0
    doc = json.loads(capsys.readouterr().out)
    mu = doc[-1]["summary"]["results"]["convert hopf-to-galois"]["mu"]
    bundled = builtin_job("sweedler_h4")["mu"]

    def normalize(terms):
        return sorted((t["coeff"], tuple(map(tuple, t["factors"]))) for t in terms)

    for atom in ("g", "x"):
        assert normalize(mu[atom]) == normalize(bundled[atom])


def test_cap_override_low_cap_fails_cleanly(capsys):
    assert run_cli("check-thm28", "--builtin", "ore_q2_laurent", "--cap", "1") == 2
    err = capsys.readouterr().err
    assert "cap" in err


def test_pushforward_command(capsys):
    assert run_cli("pushforward", "--builtin", "laurent_mod_x") == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc[-1]["summary"]["results"]["pushforward"]
    assert result["mu"]["h"] == [
        {"coeff": "1", "factors": [["h"], ["h^-1"], ["h"]]}]
    # single-generator quotient: the descended table has no pairs at all
    assert result["bracket"] == []


def test_pushforward_without_a_bracket_checks_only_the_hopf_galois_half():
    doc = builtin_job("laurent_mod_x")
    poisson_entries, _ = run_commands(Job(doc), ["pushforward"])
    del doc["bracket"]
    entries, summary = run_commands(Job(doc), ["pushforward"])
    assert list(summary["results"]["pushforward"]) == ["mu"]
    assert (summary["status"], len(entries), len(poisson_entries)) == ("pass", 8, 15)
    assert entries == poisson_entries[:8]


def test_report_written_message(tmp_path, capsys):
    report = tmp_path / "out.json"
    assert run_cli("check-poisson", "--builtin", "kxy_truncated",
                   "--report", str(report)) == 0
    out = capsys.readouterr().out
    assert "report written" in out
    assert report.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_report_exits_two(where, tmp_path, capsys):
    path = tmp_path / "no" / "such" / "r.json" if where == "missing directory" else tmp_path
    assert run_cli("run", "--builtin", "sweedler_h4", "--report", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: cannot write report: ")
    assert "Traceback" not in captured.err and captured.out == ""


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


BAD_FIELDS = [
    ("sweedler_h4", ("cap",), "abc", "sweedler_h4.cap"),
    ("sweedler_h4", ("cap",), 6.0, "sweedler_h4.cap"),
    ("sweedler_h4", ("presentation", "cap"), "abc", "sweedler_h4.presentation.cap"),
    ("z2_zero_bracket", ("envelope", "cap"), "abc", "z2_zero_bracket.envelope.cap"),
    ("z2_zero_bracket", ("envelope", "cap"), True, "z2_zero_bracket.envelope.cap"),
    ("ore_q2_laurent", ("ore", "cap"), "abc", "ore_q2_laurent.ore.cap"),
    ("poisson_ore_laurent", ("poisson_ore", "cap"), "abc",
     "poisson_ore_laurent.poisson_ore.cap"),
    ("laurent_lambda1", ("presentation", "generators", 0, "invertible"), "false",
     "laurent_lambda1.presentation.generators[0].invertible"),
    ("laurent_lambda1", ("presentation", "commutative"), "false",
     "laurent_lambda1.presentation.commutative"),
    ("sweedler_h4", ("presentation", "relations", 0, "rhs", 0), "1",
     "sweedler_h4.presentation.relations[0].rhs[0]"),
    ("sweedler_h4", ("commands",), 5, "sweedler_h4.commands"),
    ("sweedler_h4", ("commands",), "check-hopf-galois", "sweedler_h4.commands"),
    ("sweedler_h4", ("commands",), ["check-hopf-galois", 5], "sweedler_h4.commands[1]"),
    ("kxy_truncated", ("envelope", "sample_words"), 5, "kxy_truncated.envelope.sample_words"),
    # exponents whose expansion exceeds the cap are rejected before the
    # word is built (a tuple of 10^8 atoms otherwise)
    ("sweedler_h4", ("presentation", "relations", 0, "lhs"), ["g^100000000"],
     "sweedler_h4.presentation.relations[0].lhs[0]"),
    ("sweedler_h4", ("mu", "g", 0, "factors", 1), ["g", "g^-100000000"],
     "sweedler_h4.mu.g[0].factors[1][1]"),
    ("kxy_truncated", ("envelope", "sample_words", 1), ["x^" + "9" * 5000],
     "kxy_truncated.envelope.sample_words[1][0]"),
    # containers of the wrong JSON type
    ("sweedler_h4", ("field",), {"prime": "abc"}, "sweedler_h4.field"),
    ("sweedler_h4", ("field",), {"prime": [5]}, "sweedler_h4.field"),
    ("sweedler_h4", ("field",), {"prime": 5.0}, "sweedler_h4.field"),
    # only "rationals" and {"prime": p} name a field
    *[("sweedler_h4", ("field",), spec, "sweedler_h4.field") for spec in (None, "Q", "QQ")],
    ("sweedler_h4", ("forbidden_characteristics",), 5,
     "sweedler_h4.forbidden_characteristics"),
    ("laurent_lambda1", ("bracket",), 5, "laurent_lambda1.bracket"),
    ("sweedler_h4", ("presentation", "generators"), 5, "sweedler_h4.presentation.generators"),
    ("sweedler_h4", ("presentation", "relations"), 5, "sweedler_h4.presentation.relations"),
    ("sweedler_h4", ("mu",), [1], "sweedler_h4.mu"),
    ("sweedler_h4", ("hopf", "counit"), [], "sweedler_h4.hopf.counit"),
    ("sweedler_h4", ("alpha",), 5, "sweedler_h4.alpha"),
    ("ore_q2_laurent", ("ore",), 5, "ore_q2_laurent.ore"),
    ("poisson_ore_laurent", ("poisson_ore",), 5, "poisson_ore_laurent.poisson_ore"),
    ("laurent_mod_x", ("quotient", "section"), 5, "laurent_mod_x.quotient.section"),
    ("sweedler_h4", ("field",), {"prime": PRIME_BOUND}, "sweedler_h4.field"),
    # string fields, and the innermost path of an error inside a block
    ("sweedler_h4", ("presentation", "generators", 0, "name"), 5,
     "sweedler_h4.presentation.generators[0].name"),
    ("sweedler_h4", ("presentation", "relations", 0, "lhs", 0), 7,
     "sweedler_h4.presentation.relations[0].lhs[0]"),
    ("sweedler_h4", ("presentation", "relations", 0, "rhs", 0, "words"), ["g"],
     "sweedler_h4.presentation.relations[0].rhs[0]"),
    ("laurent_lambda1", ("bracket", 0, "pair", 0), ["x"], "laurent_lambda1.bracket[0].pair[0]"),
    ("ore_q2_laurent", ("ore", "variable"), 5, "ore_q2_laurent.ore.variable"),
    ("ore_q2_laurent", ("ore", "tau", "g", 0, "word", 0), "q",
     "ore_q2_laurent.ore.tau.g[0].word[0]"),
    ("poisson_ore_laurent", ("poisson_ore", "variable"), [],
     "poisson_ore_laurent.poisson_ore.variable"),
    # the adjoined variable's name is checked when the block is read, not
    # only when the extension is built
    *[(name, (block, "variable"), value, f"{name}.{block}")
      for name, block in (("ore_q2_laurent", "ore"), ("poisson_ore_laurent", "poisson_ore"))
      for value in ("", "g^-1", "g")],
]

# blocks that the bundled job's own commands do not read, and a command that does
READERS = {"hopf": "convert hopf-to-galois", "alpha": "convert galois-to-hopf"}


@pytest.mark.parametrize("name,path,value,field", BAD_FIELDS,
                         ids=[f"{b[0]}:{b[3].split('.', 1)[1]}={b[2]!r}" for b in BAD_FIELDS])
def test_bad_field_exits_two_and_names_it(name, path, value, field, tmp_path, capsys):
    doc = builtin_job(name)
    _set(doc, path, value)
    if path[0] in READERS:
        doc["commands"] = [READERS[path[0]]]
    job = tmp_path / "bad.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


# data that parses but is inconsistent, found while a command runs
BAD_DATA = [
    ("ore_q2_laurent", ("ore", "tau_inverse", "g", 0, "coeff"), "1/3",
     "ore_q2_laurent [check-thm28]: tau inverse does not invert tau on generator g"),
    ("laurent_mod_x", ("quotient", "section", "h", 0, "coeff"), "2",
     "laurent_mod_x [pushforward]: pushforward: section of 'h' is not a preimage under f"),
]


@pytest.mark.parametrize("name,path,value,message", BAD_DATA,
                         ids=[f"{b[0]}:{b[1][-3]}={b[2]}" for b in BAD_DATA])
def test_inconsistent_data_names_job_and_command(name, path, value, message, tmp_path,
                                                 capsys):
    """An error raised inside a command names the job and the command, and
    keeps the original text."""
    doc = builtin_job(name)
    _set(doc, path, value)
    job = tmp_path / "bad.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _count_calls(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def _assert_same_as_fresh_jobs(doc, commands, entries, summary):
    """The report of one job equals, byte for byte, the reports of a fresh
    job per command, put together."""
    parts = [run_commands(Job(doc), [command]) for command in commands]
    checks = sum(s["checks"] for _, s in parts)
    passed = sum(s["passed"] for _, s in parts)
    expected = {
        "job": doc["name"], "field": "rationals", "commands": commands,
        "checks": checks, "passed": passed, "failed": checks - passed,
        "status": "pass" if passed == checks else "fail",
        "results": {k: v for _, s in parts for k, v in s.get("results", {}).items()},
    }
    assert render_json(entries, summary) == \
        render_json([e for part, _ in parts for e in part], expected)


def test_envelope_commands_share_one_build(monkeypatch):
    """build-envelope, check-lemma55 and check-thm59 in one job build the
    envelope and run its relation report once, and report exactly what a
    fresh job per command reports."""
    calls = {"build_envelope": 0, "relation_instance_report": 0}
    _count_calls(monkeypatch, calls, jobs, "build_envelope")
    _count_calls(monkeypatch, calls, envelope, "relation_instance_report")
    doc = builtin_job("z2_zero_bracket")
    commands = ["build-envelope", "check-lemma55", "check-thm59"]
    entries, summary = run_commands(Job(doc), commands)
    assert calls == {"build_envelope": 1, "relation_instance_report": 1}
    _assert_same_as_fresh_jobs(doc, commands, entries, summary)
    assert calls["build_envelope"] == 1 + len(commands)


def _laurent_with_hopf():
    """laurent_lambda1 plus the Hopf data of k[g^±1, x]: Delta(x) = x⊗1 + g⊗x."""
    doc = builtin_job("laurent_lambda1")
    doc["hopf"] = {
        "comultiplication": {
            "g": [{"coeff": "1", "factors": [["g"], ["g"]]}],
            "x": [{"coeff": "1", "factors": [["x"], []]},
                  {"coeff": "1", "factors": [["g"], ["x"]]}],
        },
        "counit": {"g": "1", "x": "0"},
        "antipode": {"g": [{"coeff": "1", "word": ["g^-1"]}],
                     "x": [{"coeff": "-1", "word": ["g^-1", "x"]}]},
    }
    return doc


def test_structure_commands_share_one_parse(monkeypatch):
    """The Poisson, Hopf-Galois and Hopf blocks are parsed once per job and
    shared by every command, and the report is what a fresh job per command
    reports."""
    calls = {"PoissonStructure": 0, "mu_map": 0, "hopf_structure": 0}
    for name in calls:
        _count_calls(monkeypatch, calls, jobs, name)
    doc = _laurent_with_hopf()
    commands = ["check-poisson", "check-poisson-hg", "check-poisson-hopf",
                "check-hopf-galois", "convert hopf-to-galois"]
    job = Job(doc)
    entries, summary = run_commands(job, commands)
    assert calls == {"PoissonStructure": 1, "mu_map": 1, "hopf_structure": 1}
    assert job.poisson() is job.poisson() and job.hopf() is job.hopf()
    _assert_same_as_fresh_jobs(doc, commands, entries, summary)


def test_ore_job_checks_once(monkeypatch):
    """ore_q2_laurent parses its ore block and validates its data once, runs
    Thm 2.8 once per command, and reports what a fresh job per command
    reports."""
    calls = {"OreData": 0, "check_thm28": 0, "check_map_respects_relations": 0,
             "check_relations": 0, "is_grouplike": 0}
    _count_calls(monkeypatch, calls, jobs, "OreData")
    _count_calls(monkeypatch, calls, cli, "check_thm28")
    for name in ("check_thm28", "check_map_respects_relations", "is_grouplike"):
        _count_calls(monkeypatch, calls, ore, name)
    _count_calls(monkeypatch, calls, maps.Derivation, "check_relations")
    doc = builtin_job("ore_q2_laurent")
    commands = ["check-thm28", "ore-extend"]
    job = Job(doc)
    entries, summary = run_commands(job, commands)
    assert summary["status"] == "pass" and "ore-extend" in summary["results"]
    # two maps (tau, tau inverse) and one derivation, checked by one validate
    assert calls == {"OreData": 1, "check_thm28": 2, "check_map_respects_relations": 2,
                     "check_relations": 1, "is_grouplike": 2}
    assert job.ore_data() is job.ore_data()
    _assert_same_as_fresh_jobs(doc, commands, entries, summary)


def test_poisson_ore_job_checks_once(monkeypatch):
    """poisson_ore_laurent parses its poisson_ore block, validates its
    data and builds B[x] once, and reports what a fresh job per command
    reports."""
    calls = {"PoissonOreData": 0, "check_thm44": 0, "check_relations": 0, "is_grouplike": 0,
             "_adjoin_variable": 0}
    _count_calls(monkeypatch, calls, jobs, "PoissonOreData")
    _count_calls(monkeypatch, calls, cli, "check_thm44")
    for name in ("is_grouplike", "_adjoin_variable"):
        _count_calls(monkeypatch, calls, ore, name)
    _count_calls(monkeypatch, calls, maps.Derivation, "check_relations")
    doc = builtin_job("poisson_ore_laurent")
    commands = ["check-thm44", "poisson-ore-extend"]
    job = Job(doc)
    entries, summary = run_commands(job, commands)
    assert summary["status"] == "pass"
    # two derivations (alpha, delta), checked by one validate; B[x] is read
    # by check-thm44, its assembly and poisson-ore-extend
    assert calls == {"PoissonOreData": 1, "check_thm44": 1, "check_relations": 2,
                     "is_grouplike": 1, "_adjoin_variable": 1}
    assert job.poisson_ore_data() is job.poisson_ore_data()
    _assert_same_as_fresh_jobs(doc, commands, entries, summary)


def test_failed_parse_is_not_cached():
    """A block that failed to parse fails again on the next command."""
    doc = builtin_job("laurent_lambda1")
    doc["bracket"].append({"pair": ["x", "g^-1"], "value": []})
    job = Job(doc)
    for _ in range(2):
        with pytest.raises(JobError, match=r"laurent_lambda1\.bracket: .*forced"):
            job.poisson()


def _brackets(*pairs_and_coeffs):
    """Bracket entries {pair, value = c g x}, from alternating pairs and c."""
    return [{"pair": pair, "value": [{"coeff": c, "word": ["g", "x"]}]}
            for pair, c in zip(pairs_and_coeffs[::2], pairs_and_coeffs[1::2])]


@pytest.mark.parametrize("pair,coeff", [(["x", "g"], "1"), (["g", "x"], "-1")])
def test_repeated_bracket_with_the_same_value_is_accepted(pair, coeff):
    """A repeat that agrees ({g,x} = -{x,g} when reversed) is no conflict."""
    doc = builtin_job("laurent_lambda1")
    doc["bracket"] = _brackets(["x", "g"], "1", pair, coeff)
    assert run_commands(Job(doc), doc["commands"])[1]["status"] == "pass"


# caps below 1, coefficients that are not strings, unknown atoms at
# exponent 0 (a^0 is the empty word only for an atom a of the presentation),
# and cap or confluence errors raised inside a block or a command: each
# names its field or command
BAD_VALUES = [
    # null is not an absent key: neither the pushforward's bracket nor the sample words
    ("laurent_mod_x", ("bracket",), None, "laurent_mod_x.bracket: expected an array, got None"),
    ("kxy_truncated", ("envelope", "sample_words"), None,
     "kxy_truncated.envelope.sample_words: expected an array, got None"),
    ("kxy_truncated", ("envelope", "cap"), -3,
     "kxy_truncated.envelope.cap: a degree cap must be at least 1, got -3"),
    ("kxy_truncated", ("cap",), 0, "kxy_truncated.cap: a degree cap must be at least 1, got 0"),
    ("sweedler_h4", ("mu", "g", 0, "coeff"), 5,
     "sweedler_h4.mu.g[0].coeff: expected a string, got 5"),
    ("sweedler_h4", ("mu", "g", 0, "coeff"), None,
     "sweedler_h4.mu.g[0].coeff: expected a string, got None"),
    ("sweedler_h4", ("hopf", "counit", "g"), 1,
     "sweedler_h4.hopf.counit.g: expected a string, got 1"),
    ("sweedler_h4", ("presentation", "relations", 0, "rhs", 0, "word"), ["zzz^0"],
     "sweedler_h4.presentation.relations[0].rhs[0].word[0]: unknown atom 'zzz'"),
    ("sweedler_h4", ("mu", "g", 0, "factors", 0), ["qq^0", "g"],
     "sweedler_h4.mu.g[0].factors[0][0]: unknown atom 'qq'"),
    ("sweedler_h4", ("presentation", "cap"), 1,
     "sweedler_h4.mu.x: normal_form: word g*x of length 2 exceeds degree cap 1"),
    ("ore_q2_laurent", ("ore", "cap"), 1,
     "ore_q2_laurent [ore-extend]: multiply: word g^-1*z of length 2 exceeds degree cap 1"),
    # one name grammar for generators and tokens: an exponent is ASCII
    # digits, and no whitespace is part of a name
    ("sweedler_h4", ("presentation", "relations", 0, "rhs", 0, "word"), ["x^\u0662"],
     "sweedler_h4.presentation.relations[0].rhs[0].word[0]: cannot parse word token 'x^\u0662'"),
    ("sweedler_h4", ("presentation", "relations", 0, "rhs", 0, "word"), ["x\n"],
     "sweedler_h4.presentation.relations[0].rhs[0].word[0]: cannot parse word token 'x\\n'"),
    ("sweedler_h4", ("mu", "g", 0, "factors", 0), ["g^-\u0661"],
     "sweedler_h4.mu.g[0].factors[0][0]: cannot parse word token 'g^-\u0661'"),
    ("sweedler_h4", ("presentation", "generators", 1, "name"), "x\t",
     "sweedler_h4.presentation.generators[1]: invalid generator name 'x\\t'"),
    ("sweedler_h4", ("presentation", "generators", 0, "name"), "g\n",
     "sweedler_h4.presentation.generators[0]: invalid generator name 'g\\n'"),
    ("sweedler_h4", ("presentation", "generators", 0, "name"), "g\xa0",
     "sweedler_h4.presentation.generators[0]: invalid generator name 'g\\xa0'"),
    ("ore_q2_laurent", ("ore", "variable"), "z\t",
     "ore_q2_laurent.ore: invalid generator name 'z\\t'"),
    ("sweedler_h4", ("forbidden_characteristics", 0), "2",
     "sweedler_h4.forbidden_characteristics[0]: expected an integer, got '2'"),
    # a bracket pair given twice with different values, in the same order
    # or reversed, and a nonzero bracket of a generator with itself
    ("laurent_lambda1", ("bracket",), _brackets(["x", "g"], "1", ["x", "g"], "5"),
     "laurent_lambda1.bracket: conflicting bracket values for pair (x,g)"),
    ("laurent_lambda1", ("bracket",), _brackets(["x", "g"], "1", ["g", "x"], "5"),
     "laurent_lambda1.bracket: conflicting bracket values for pair (g,x)"),
    ("laurent_lambda1", ("bracket",), _brackets(["x", "x"], "1"),
     "laurent_lambda1.bracket: bracket {x,x} must vanish"),
    # a repeated sample word, compared after parsing, would repeat every law on it
    ("kxy_truncated", ("envelope", "sample_words"), [["x"], ["y"], ["x"], ["y"]],
     "kxy_truncated.envelope.sample_words[2]: repeats sample word [0]"),
    ("kxy_truncated", ("envelope", "sample_words"), [[], ["x^2"], ["x", "x"]],
     "kxy_truncated.envelope.sample_words[2]: repeats sample word [1]"),
    # so would two words with one normal form, here in a commutative algebra
    ("kxy_truncated", ("envelope", "sample_words"), [["x", "y"], ["y", "x"]],
     "kxy_truncated.envelope.sample_words[1]: y*x has the normal form of sample word [0], x*y"),
    # no sample words, or a word that reduces to zero, would make every law vacuous
    ("kxy_truncated", ("envelope", "sample_words"), [],
     "kxy_truncated.envelope.sample_words: no sample words, so every law would be vacuous"),
    ("kxy_truncated", ("envelope", "sample_words"), [["x"], ["x", "x", "x"]],
     "kxy_truncated.envelope.sample_words[1]: x^3 has normal form zero, so every law on it "
     "would be vacuous"),
    ("kxy_truncated", ("envelope", "sample_words"), [["x^2", "y"], ["y"]],
     "kxy_truncated.envelope.sample_words[0]: x^2*y has normal form zero, so every law on it "
     "would be vacuous"),
]


@pytest.mark.parametrize("name,path,value,message", BAD_VALUES,
                         ids=[f"{b[0]}:{'.'.join(map(str, b[1]))}={b[2]!r}" for b in BAD_VALUES])
def test_bad_value_exits_two_and_names_it(name, path, value, message, tmp_path, capsys):
    doc = builtin_job(name)
    _set(doc, path, value)
    if path[0] in READERS:
        doc["commands"] = [READERS[path[0]]]
    job = tmp_path / "bad.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("source,value", [("--cap", "0"), ("--cap", "-1")])
def test_cap_override_below_one_exits_two(source, value, capsys):
    assert run_cli("run", "--builtin", "kxy_truncated", "--cap", value) == 2
    assert capsys.readouterr().err == (
        f"error: {source}: a degree cap must be at least 1, got {value}\n")


@pytest.mark.parametrize("value,message", [
    (0, "a degree cap must be at least 1, got 0"),
    (-1, "a degree cap must be at least 1, got -1"),
    (True, "expected an integer, got True"),
    ("3", "expected an integer, got '3'"),
])
def test_python_cap_override_below_one_is_a_job_error(value, message, tmp_path):
    """`Job` and `load_job` check an override as the CLI checks `--cap`."""
    with pytest.raises(JobError) as err:
        Job(builtin_job("kxy_truncated"), cap_override=value)
    assert (err.value.path, str(err.value)) == (
        "kxy_truncated.cap_override", f"kxy_truncated.cap_override: {message}")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(builtin_job("sweedler_h4")))
    with pytest.raises(JobError, match=f"^sweedler_h4.cap_override: {message}$"):
        jobs.load_job(str(path), cap_override=value)
    assert Job(builtin_job("kxy_truncated"), cap_override=1).cap == 1


def test_envelope_past_the_basis_size_guard_exits_two(tmp_path, capsys):
    """k[x,y]/(x^40, y^40) has 1600 basis words, more than `MAX_BASIS_SIZE`."""
    doc = {"name": "kxy40", "commands": ["build-envelope"],
           "presentation": {"generators": ["x", "y"], "commutative": True, "cap": 80,
                            "relations": [{"lhs": ["x^40"]}, {"lhs": ["y^40"]}]}}
    job = tmp_path / "kxy40.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err == (
        "error: kxy40 [build-envelope]: enveloping requires a finite basis, and the basis "
        "search stopped at one of its limits, the degree cap 80 or MAX_BASIS_SIZE = 1024 "
        "basis words\n")


def test_envelope_past_the_presentation_cap_exits_two(tmp_path, capsys):
    """z2_zero_bracket has dimension 2, but at presentation cap 1 the basis
    search meets c*c, a word longer than the cap; the error names the limits
    and claims no infinite dimension."""
    doc = builtin_job("z2_zero_bracket")
    doc["presentation"]["cap"] = 1
    job = tmp_path / "z2.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err == (
        "error: z2_zero_bracket [build-envelope]: enveloping requires a finite basis, and "
        "the basis search stopped at one of its limits, the degree cap 1 or MAX_BASIS_SIZE "
        "= 1024 basis words\n")


def test_confluence_error_names_the_presentation(tmp_path, capsys):
    doc = {"name": "nc", "commands": ["check-poisson"],
           "presentation": {"generators": ["a", "b"], "relations": [
               {"lhs": ["b", "a"], "rhs": [{"coeff": "1", "word": ["a"]}]},
               {"lhs": ["a", "a"], "rhs": [{"coeff": "1", "word": ["b"]}]}]}}
    job = tmp_path / "nc.json"
    job.write_text(json.dumps(doc))
    assert run_cli("run", "--input", str(job)) == 2
    assert capsys.readouterr().err == (
        "error: nc.presentation: presentation nc is not locally confluent; first unresolved "
        "overlap: b*a^2 between [b*a -> (1)*a] and [a^2 -> (1)*b]\n")


def test_cap_error_keeps_its_class_and_attributes():
    doc = builtin_job("sweedler_h4")
    doc["presentation"]["cap"] = 1
    job = Job(doc)
    for _ in range(2):  # a failed parse keeps nothing, and fails the same way again
        with pytest.raises(DegreeCapError) as err:
            job.hopf_galois()
        assert (err.value.operation, err.value.word, err.value.word_length, err.value.cap) == (
            "normal_form", ("g", "x"), 2, 1)
        assert err.value.path == "sweedler_h4.mu.x"
        assert str(err.value) == "sweedler_h4.mu.x: normal_form: word g*x of length 2 exceeds " \
                                 "degree cap 1"


def test_repeated_generator_name_names_the_repeating_entry(tmp_path, capsys):
    """A generator name given twice is refused at the entry that repeats it."""
    doc = {"name": "t", "presentation": {"generators": ["x", {"name": "x"}]},
           "commands": ["check-poisson"]}
    assert run_cli("run", "--input", _job_file(tmp_path, doc)) == 2
    assert capsys.readouterr().err == \
        "error: t.presentation.generators[1]: duplicate generator name 'x'\n"
