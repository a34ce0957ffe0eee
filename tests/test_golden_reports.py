"""Reports byte for byte.  The default `run` report of every bundled job
must have the golden SHA-256 that the benchmark gate checks
(`perfbench/expected.json`, read only); the reports of `MORE_GOLDEN`, which
no default run produces, must have the SHA-256 pinned there."""

import hashlib
import json
from pathlib import Path

import pytest

from test_cli import _laurent_with_hopf

from hgalois.cli import main, render_json, run_commands
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job

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


# (command, job, format, SHA-256 of the report file): the conversions, the
# Poisson Hopf check of laurent_lambda1 with its Hopf block, and the text
# report of every bundled job's default run
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
]


@pytest.mark.parametrize("command,name,fmt,sha256", MORE_GOLDEN,
                         ids=[f"{c}:{n}:{f}" for c, n, f, _ in MORE_GOLDEN])
def test_more_reports_match_golden_hash(command, name, fmt, sha256, tmp_path, capsys):
    doc = _laurent_with_hopf() if name == "laurent_with_hopf" else builtin_job(name)
    job, report = tmp_path / "job.json", tmp_path / "report"
    job.write_text(json.dumps(doc))
    argv = command.split() + ["--input", str(job), "--format", fmt, "--report", str(report)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256
