"""Byte-identity census: one SHA-256 over the reports of a fixed set of jobs.

The set:
- the 8 bundled jobs over Q, GF(5), GF(7) and GF(421);
- every benchmark workload document (`perfbench/workloads.py`) at seeds 1-3;
- the 39 coefficient mutants of `test_mutant_census.py`;
- the cap-8 stress envelope, log-canonical k[x,y,z]/(x^2, y^3, z^2), over Q
  (constants 2, 3/5, -7) and over GF(101) (constants 2, 3, 6).

Each job runs through `hgalois run` twice, with `--format json` and with
`--format text`, and the census hashes both reports, the exit codes and
stderr.  The whole set runs in two fresh interpreters, under PYTHONHASHSEED
0 and 12345, and the digest covers both.  A change that must keep every
report byte quotes the same digest before and after.

    python tests/census.py           # the digest, exit-code counts, stress prefixes
    python tests/census.py --table   # also one digest per document

pytest does not collect this file (its name does not start with `test_`).
The run takes about 25 s on one CPU of a 2-CPU Linux machine.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "12345")
FIELDS = (("Q", "rationals"), ("GF5", {"prime": 5}), ("GF7", {"prime": 7}),
          ("GF421", {"prime": 421}))
SEEDS = (1, 2, 3)
STRESS = (("Q", "rationals", ("2", "3/5", "-7")), ("GF101", {"prime": 101}, ("2", "3", "6")))


def documents() -> list:
    """(label, job document) for every job of the census, in a fixed order."""
    from hgalois.examples import BUILTINS, builtin_job
    from test_mutant_census import coefficients
    from workloads import WORKLOADS, generate, log_canonical

    docs = []
    for name in sorted(BUILTINS):
        for label, field in FIELDS:
            doc = builtin_job(name)
            doc["field"] = field
            docs.append((f"builtin/{name}/{label}", doc))
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, doc in enumerate(generate(workload, seed)):
                docs.append((f"workload/{workload}/{seed}/{i}/{doc['name']}", doc))
    for name in sorted(BUILTINS):
        for path, _ in coefficients(builtin_job(name)):
            doc = builtin_job(name)
            holder = dict(coefficients(doc))[path]
            holder["coeff"] = str(Fraction(holder["coeff"]) + 1)
            docs.append((f"mutant/{name}/{path}", doc))
    for label, field, qs in STRESS:
        doc = log_canonical("stress", ("x", "y", "z"), ("xx", "yyy", "zz"), field, qs,
                            ("build-envelope",), cap=8)
        docs.append((f"stress/{label}", doc))
    return docs


def _run(path: str, fmt: str):
    from hgalois.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--input", path, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def worker():
    """Run every document; print one JSON line per document: its label, exit
    code, the SHA-256 of its JSON report and the SHA-256 of everything."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        for label, doc in documents():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            digest = hashlib.sha256()
            for fmt in ("json", "text"):
                code, out, err = _run(path, fmt)
                if fmt == "json":
                    report = hashlib.sha256(out.encode("utf-8")).hexdigest()
                digest.update(json.dumps([fmt, code, out, err]).encode("utf-8"))
            print(json.dumps([label, code, report, digest.hexdigest()]), flush=True)


def census() -> dict:
    """hash seed -> the worker's rows, each run in a fresh interpreter."""
    runs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs[seed] = [json.loads(line) for line in out.splitlines()]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", action="store_true", help="print one digest per document")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker()
        return 0
    runs = census()
    total = hashlib.sha256(json.dumps(runs, sort_keys=True).encode("utf-8")).hexdigest()
    rows = runs[HASH_SEEDS[0]]
    differ = [a[0] for a, b in zip(rows, runs[HASH_SEEDS[1]]) if a != b]
    if args.table:
        for label, code, _, digest in rows:
            print(f"{digest[:16]}  {code}  {label}")
    codes = Counter(code for _, code, _, _ in rows)
    print(f"documents: {len(rows)} per hash seed; exit codes "
          + ", ".join(f"{c}: {codes[c]}" for c in sorted(codes)))
    for label, _, report, _ in rows:
        if label.startswith("stress/"):
            print(f"{label} JSON report: {report[:12]}")
    for label in differ:
        print(f"hash seeds {' and '.join(HASH_SEEDS)} differ on {label}")
    print(f"census {total}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
