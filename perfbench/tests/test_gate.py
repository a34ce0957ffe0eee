import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN_ARGS = ["--workload", "many_small", "--seed", "1", "--seconds", "1", "--trace", "0"]


def _entry(status, witness="w"):
    e = {"command": "c", "check": "k", "subject": "s", "status": status}
    if status != "pass":
        e["witness"] = witness
    return e


def _summary(checks, status):
    return {"checks": checks, "status": status}


def _gate():
    return gate.Gate({"golden_sha256": {"bundled": "0" * 64},
                      "jobs": {"job_gfp": {"checks": 1, "status": "pass"},
                               "bundled": {"checks": 1, "status": "pass"},
                               "bad": {"checks": 1, "status": "fail",
                                       "failing": [["c", "k", "s"]]}}})


def test_gate_accepts_the_known_answer():
    g = _gate()
    assert g.check(0, "job_gf211", "x", [_entry("pass")], _summary(1, "pass")) == []
    assert g.check(1, "bad", "y", [_entry("fail")], _summary(1, "fail")) == []


def test_gate_rejects_each_kind_of_miss():
    g = _gate()
    assert g.check(0, "job_gf211", "x", [_entry("pass")], _summary(2, "pass"))
    assert g.check(1, "job_gf211", "x", [_entry("fail")], _summary(1, "fail"))
    assert g.check(2, "bad", "y", [_entry("fail", witness=None)], _summary(1, "fail"))
    assert g.check(3, "bundled", "z", [_entry("pass")], _summary(1, "pass"))
    assert g.check(4, "unknown", "z", [_entry("pass")], _summary(1, "pass"))
    assert g.check(5, "job_gf211", "first", [_entry("pass")], _summary(1, "pass")) == []
    assert g.check(5, "job_gf211", "second", [_entry("pass")], _summary(1, "pass"))


def _copy_bench(tmp_path, with_src=True):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "perfbench"


def _run(bench):
    return subprocess.run([sys.executable, str(bench / "run.py")] + RUN_ARGS,
                          cwd=bench.parent, capture_output=True, text=True, timeout=120)


def _tamper(bench, edit):
    path = bench / "expected.json"
    expected = json.loads(path.read_text())
    edit(expected)
    path.write_text(json.dumps(expected))


def test_command_passes_on_this_commit(tmp_path):
    out = _run(_copy_bench(tmp_path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_command_fails_on_a_golden_hash_miss(tmp_path):
    bench = _copy_bench(tmp_path)
    _tamper(bench, lambda e: e["golden_sha256"].update(sweedler_h4="0" * 64))
    out = _run(bench)
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_command_fails_on_a_known_verdict_miss(tmp_path):
    bench = _copy_bench(tmp_path)
    _tamper(bench, lambda e: e["jobs"]["exterior_E2"].update(checks=47))
    out = _run(bench)
    assert out.returncode == 1
    assert not json.loads(out.stdout.splitlines()[-1])["correct"]


def test_command_refuses_to_run_without_the_program(tmp_path):
    bench = _copy_bench(tmp_path, with_src=False)
    out = _run(bench)
    assert out.returncode == 2
    assert out.stdout == ""
