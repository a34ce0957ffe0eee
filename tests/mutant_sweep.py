"""Operator-mutant sweep: the single-operator mutants of one module that a
set of tests fails to kill.

One mutant per operator site of the module, found with the standard-library
`ast` module:
- `+` and `-` swapped, in binary operations and in `+=` and `-=`;
- a unary `-` dropped;
- `<` and `<=` swapped, and `>` and `>=` swapped, at each operator of a
  comparison chain.
Operators inside f-strings are not mutated.  A mutant edits the one
operator token in the source text, so every other line, comment and line
number stays as written.

Each mutant runs the given tests (`pytest -x`) in a copy of the repository
with the module replaced, in a fresh interpreter that writes no bytecode; a
failing or erroring run kills the mutant, and so does a run longer than ten
times the unmutated run (at least 60 s).  The unmutated tests must pass
first.

    python tests/mutant_sweep.py src/hgalois/ore.py tests/test_ore.py
    python tests/mutant_sweep.py src/hgalois/ore.py tests/test_ore.py tests/test_cli.py

It prints one line per mutant (`module:line:column  old -> new  verdict`,
then the mutated line) and a count; the exit status is 1 when a mutant
survives and 2 when the unmutated tests fail.  pytest does not collect this
file (its name does not start with `test_`).  The `ore.py` sweep against
`tests/test_ore.py` (24 mutants, 25 runs) takes about 45 s on a 2-CPU Linux
machine.
"""

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {"+": "-", "-": "+", "+=": "-=", "-=": "+=", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
TOKEN = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def mutants(source: str) -> list:
    """(line, column, old token, new token) of every mutant of `source`, in
    source order; columns count characters and the new token of a dropped
    unary `-` is empty."""
    lines = source.splitlines(keepends=True)
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
           if t.type == tokenize.OP]

    def start(node):  # ast columns count UTF-8 bytes
        return node.lineno, len(lines[node.lineno - 1].encode()[:node.col_offset].decode())

    def end(node):
        line = lines[node.end_lineno - 1].encode()
        return node.end_lineno, len(line[:node.end_col_offset].decode())

    def between(left, right, text):
        lo, hi = end(left), start(right)
        return next(t.start for t in ops if t.string == text and lo <= t.start and t.end <= hi)

    tree = ast.parse(source)
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
            old = TOKEN[type(node.op)]
            out.append((*between(node.left, node.right, old), old, SWAP[old]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            old = TOKEN[type(node.op)] + "="
            out.append((*between(node.target, node.value, old), old, SWAP[old]))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            out.append((*start(node), "-", ""))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in TOKEN:
                    old = TOKEN[type(op)]
                    out.append((*between(left, right, old), old, SWAP[old]))
    return sorted(out)


def mutate(source: str, line: int, col: int, old: str, new: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, (line, col, old)
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def run_tests(copy: Path, tests, timeout=None) -> str:
    """'passed', 'failed' or 'timeout' for pytest on `tests` in `copy`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def _relative(path: str) -> str:
    return str(Path(path).resolve().relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/hgalois/ore.py")
    parser.add_argument("tests", nargs="+", help="the killing tests, e.g. tests/test_ore.py")
    args = parser.parse_args(argv)
    module = _relative(args.module)
    source = (ROOT / module).read_text(encoding="utf-8")
    sites = mutants(source)
    tests = [_relative(t) for t in args.tests]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        began = time.perf_counter()
        if run_tests(copy, tests) != "passed":
            print("the unmutated tests do not pass", file=sys.stderr)
            return 2
        timeout = max(60.0, 10 * (time.perf_counter() - began))
        survivors = 0
        target = copy / module
        for line, col, old, new in sites:
            mutant = mutate(source, line, col, old, new)
            target.write_text(mutant, encoding="utf-8")
            verdict = run_tests(copy, tests, timeout)
            verdict = "SURVIVED" if verdict == "passed" else f"killed ({verdict})"
            survivors += verdict == "SURVIVED"
            print(f"{module}:{line}:{col + 1}  {old} -> {new or '(dropped)'}  {verdict}\n"
                  f"    {mutant.splitlines()[line - 1].strip()}", flush=True)
    print(f"{len(sites)} mutants, {len(sites) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
