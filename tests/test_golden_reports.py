"""Reports byte for byte.  The default `run` report of every bundled job
must have the golden SHA-256 that the benchmark gate checks
(`perfbench/expected.json`, read only); the reports of `MORE_GOLDEN`, which
no default run produces, must have the SHA-256 pinned there.  Those include
every bundled job's GF(421) image, whose relation subjects and envelope
rules spell coefficients as `c (mod 421)`.  The JSON report of generated
entries is compared with `json.dumps(indent=2, ensure_ascii=False)`."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import _laurent_with_hopf

from hgalois.cli import main, render_json, run_commands
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job
from hgalois.reports import PASSING_KEYS

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
GOLDEN = json.loads(EXPECTED.read_text(encoding="utf-8"))["golden_sha256"]


def test_every_bundled_job_has_a_golden_hash():
    assert sorted(GOLDEN) == sorted(BUILTINS)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_default_run_report_matches_golden_hash(name):
    doc = builtin_job(name)
    entries, summary = run_commands(Job(doc), doc["commands"])
    text = render_json(entries, summary)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]


def _gf421(doc):
    doc["field"] = {"prime": 421}
    return doc


def _gf421_mutant():
    """sweedler_h4 over GF(421) with one coefficient of mu(x) set to 1/3:
    a failing run whose witnesses carry residues."""
    doc = _gf421(builtin_job("sweedler_h4"))
    doc["mu"]["x"][1]["coeff"] = "1/3"
    return doc


JOBS = {"laurent_with_hopf": _laurent_with_hopf, "sweedler_h4_gf421_mutant": _gf421_mutant}
JOBS.update({f"{name}_gf421": lambda name=name: _gf421(builtin_job(name)) for name in BUILTINS})
FAILING = {"sweedler_h4_gf421_mutant"}

# (command, job, format, SHA-256 of the report file): the conversions, the
# Poisson Hopf check of laurent_lambda1 with its Hopf block, the text report
# of every bundled job's default run, the JSON and text reports of the
# default run of every bundled job's GF(421) image, the envelope rules of
# kxy_truncated over GF(421) and both reports of a failing GF(421) mutant
MORE_GOLDEN = [
    ("convert hopf-to-galois", "sweedler_h4", "json",
     "7fb6559dca78d129d27a4fb9c454b44eb33099ac554e21d2d2578c89ac74dba1"),
    ("convert galois-to-hopf", "sweedler_h4", "json",
     "0fd4f65b4e0701430c6a6dbd1a6c580f6e7a4eecc9d2d8275f6a3b71b7227628"),
    ("check-poisson-hopf", "laurent_with_hopf", "json",
     "d5743831b0f33f53b5fc76b8800a340820e913e9ecf8247dd977d0a0f3845346"),
    ("run", "kxy_truncated", "text",
     "aa63a732e91b142a1f67ad9139e17064ad9b9ca05be0b69810ee632fbd5c8d50"),
    ("run", "laurent_lambda1", "text",
     "5e2192de0cd80ccbac494bf992765cdb164525bfaa5ba7148a90caf59fcd783d"),
    ("run", "laurent_lambda2", "text",
     "59f4530bd8ed504b9915c36d118efa55e3fb4582adc9adf4eba1dad914e901d1"),
    ("run", "laurent_mod_x", "text",
     "9e472362fc9206fa9f6651911a8eded14bbf82d98dae33059e3a7437083dafa4"),
    ("run", "ore_q2_laurent", "text",
     "ccfc2dc94e0fedcb1cebd97f8599394b02c3913f99d0be9db22062b9947cc9ba"),
    ("run", "poisson_ore_laurent", "text",
     "c257bb9e47577b5c862212aabbcc543af58e814872fa08dd44b72c490e712dfa"),
    ("run", "sweedler_h4", "text",
     "ff422719949f3627359a136e8e7f6c68ec312288c212d33a7130713751d84395"),
    ("run", "z2_zero_bracket", "text",
     "4c1c206b51ab96ee9b598bb46dab13bc75f3d468d932085d50a37cb04e2d78e3"),
    ("run", "kxy_truncated_gf421", "json",
     "f9d734a8fa767a1f3eead1c2c2ee490418132885aa7aeb0da67b2e4e17227127"),
    ("run", "kxy_truncated_gf421", "text",
     "c822b619b32c940c26ab2783b67aa6e1fd7c12eb7208823c15ce02d3d1bfc5df"),
    ("run", "laurent_lambda1_gf421", "json",
     "247426d06286c990c64d996b9ddb3d6920a2ddc88a77c554cdc6a98fc1335d8a"),
    ("run", "laurent_lambda1_gf421", "text",
     "462c4929ee28bcf37e48df512dc1d15d8fcd2d31b43d2669e0c80eaf9408f76d"),
    ("run", "laurent_lambda2_gf421", "json",
     "17028bce071ac77b5950a9abe40dff5237612e9b7a123f1de0ed82b89d9e37d8"),
    ("run", "laurent_lambda2_gf421", "text",
     "47c23da734a1793aea39fd8ca738095f7e2c1651e72c69947d56442281d4f88f"),
    ("run", "laurent_mod_x_gf421", "json",
     "cfa234808f3d41423246af05b3be6ca1def0fbb32543d0c87ff7eab8e6c522ce"),
    ("run", "laurent_mod_x_gf421", "text",
     "0643388e26b50dbe2b0f3a721409904cc51b9b76ab61ccf545fc6775fc7ac912"),
    ("run", "ore_q2_laurent_gf421", "json",
     "5b0d5e481eb79787c305ea6f1bb58240a0925b057ee780463b4e09054d9ea5af"),
    ("run", "ore_q2_laurent_gf421", "text",
     "32d1189f44dae0756757ec43a2c017e8c83b7fa041b63cea967433dd57751b75"),
    ("run", "poisson_ore_laurent_gf421", "json",
     "16e6cc637cd99115b736daba7d3ba839b665b48e6889494a55680dc265888b18"),
    ("run", "poisson_ore_laurent_gf421", "text",
     "97ad0942acca9b3589910dd0a53b4ed12c17b62ecd3a5c149556d224650f1cf4"),
    ("run", "sweedler_h4_gf421", "json",
     "6b50cfbc366b158f21216cbf533cba3ad929d5859c38885cfcfaaad5b0b0e0db"),
    ("run", "sweedler_h4_gf421", "text",
     "171b73aea7a8dc9729075d78452e76b233bdd970658539b642a42f5f8b6274d4"),
    ("run", "z2_zero_bracket_gf421", "json",
     "ade286317e71fef6437148044c44644278687fe03da53cc78e97f043c9ea932e"),
    ("run", "z2_zero_bracket_gf421", "text",
     "cdb5ccc5ea014d4654616b5e5b08f3ee03d310524a869205de604d9300a9c42e"),
    ("build-envelope", "kxy_truncated_gf421", "json",
     "00e65e22caadf50de912bbfb955b898cdd58b95e1063590e45d92676e985324a"),
    ("run", "sweedler_h4_gf421_mutant", "json",
     "c24d6bdf542e71516f6b43829a7b7509485cfeaf5b33c428096bf567e0a280c6"),
    ("run", "sweedler_h4_gf421_mutant", "text",
     "8a7363aca0cbbbaba3645eabba440bf99a7257325b9c0308d7949b73f3937686"),
]


@pytest.mark.parametrize("command,name,fmt,sha256", MORE_GOLDEN,
                         ids=[f"{c}:{n}:{f}" for c, n, f, _ in MORE_GOLDEN])
def test_more_reports_match_golden_hash(command, name, fmt, sha256, tmp_path, capsys):
    doc = JOBS[name]() if name in JOBS else builtin_job(name)
    job, report = tmp_path / "job.json", tmp_path / "report"
    job.write_text(json.dumps(doc))
    argv = command.split() + ["--input", str(job), "--format", fmt, "--report", str(report)]
    assert main(argv) == (1 if name in FAILING else 0)
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256


# strings with non-ASCII text, control characters, quotes, backslashes and
# the separators that JavaScript does not allow in string literals
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029é中🙂')),
               max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=16)


def _entry(keys, values):
    return dict(zip(keys, values))


STRINGS = st.tuples(*[TEXT] * len(PASSING_KEYS))
ENTRIES = st.one_of(
    st.builds(_entry, st.just(PASSING_KEYS), STRINGS),  # the passing shape
    st.builds(lambda e, w: {**e, "witness": w},  # a failing entry's shape
              st.builds(_entry, st.just(PASSING_KEYS), STRINGS), JSON_VALUES),
    st.builds(_entry, st.permutations(PASSING_KEYS), STRINGS),
    st.builds(_entry, st.just(PASSING_KEYS), st.tuples(*[JSON_VALUES] * len(PASSING_KEYS))),
    st.dictionaries(TEXT, JSON_VALUES, max_size=6))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(ENTRIES, max_size=5), st.dictionaries(TEXT, JSON_VALUES, max_size=4))
def test_report_template_matches_json_dumps(entries, summary):
    """`render_json` writes an entry of the passing shape by a template of
    what `json.dumps` writes, and every other entry (keys in another order,
    a witness, a value that is not a string) and the summary by `json.dumps`
    itself."""
    assert render_json(entries, summary) == json.dumps(
        entries + [{"summary": summary}], indent=2, ensure_ascii=False) + "\n"


KEY_ORDER_JOBS = {name: lambda name=name: builtin_job(name) for name in BUILTINS}
KEY_ORDER_JOBS["sweedler_h4_gf421_mutant"] = _gf421_mutant


@pytest.mark.parametrize("name", sorted(KEY_ORDER_JOBS))
def test_entry_dicts_have_the_passing_keys_in_order(name):
    """Every entry dict has exactly the `PASSING_KEYS` in order, with
    string values, and a failing one has its witness last, so the template
    of `render_json` writes every passing entry.  A passing entry that
    missed the template (a dict or string subclass) would be written by
    `json.dumps` to the same bytes, only more slowly: no golden sees it."""
    doc = KEY_ORDER_JOBS[name]()
    entries, summary = run_commands(Job(doc), doc["commands"])
    assert (summary["failed"] > 0) == (name in FAILING)
    for entry in entries:
        witness = ("witness",) if entry["status"] == "fail" else ()
        assert type(entry) is dict and tuple(entry) == PASSING_KEYS + witness
        assert all(type(entry[key]) is str for key in PASSING_KEYS)


def test_import_does_not_load_json():
    """The report writers import `json` when they run, not at import."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import hgalois; print('json' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def test_log_canonical_stress_envelope_report_is_pinned():
    """The envelope of the log-canonical k[x,y,z]/(x^2, y^3, z^2) over
    GF(101), {x,y} = 2xy, {x,z} = 3xz, {y,z} = 6yz, at cap 8: a completion
    of several hundred rules, so a change to the pair order, the memo or
    the overlap rows that alters one rule changes this report."""
    doc = {
        "name": "stress_gf101",
        "field": {"prime": 101},
        "presentation": {
            "generators": ["x", "y", "z"],
            "commutative": True,
            "relations": [{"lhs": list(m), "rhs": []} for m in ("xx", "yyy", "zz")],
        },
        "bracket": [{"pair": [a, b], "value": [{"coeff": q, "word": [a, b]}]}
                    for (a, b), q in ((("x", "y"), "2"), (("x", "z"), "3"), (("y", "z"), "6"))],
        "envelope": {"cap": 8},
        "commands": ["build-envelope"],
    }
    entries, summary = run_commands(Job(doc), doc["commands"])
    assert (summary["passed"], summary["failed"]) == (1090, 0)
    text = render_json(entries, summary)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest().startswith("0f3f3e218ffd")
