"""Time to verdict for hgalois on seeded workloads.

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory.  A run generates the workload's job documents from the
seed and then makes passes until its time is spent.  A pass feeds every job
document, one after another from a single thread, through the path that
`hgalois run` takes: `Job(doc)` -> `run_commands` -> `render_json`.  Every
report is checked by the gate in gate.py.  `--workload all` runs each
workload in its own process, one at a time.

With `--trace 0` the run reports the end-to-end metrics, scaled to a
reference machine speed (see `Runner`); with `--trace 1` it
spends a third of its time on untraced passes and the rest on traced passes,
and reports the per-layer metrics of tracer.py.  Human-readable lines come
first; the last line of standard output is one JSON object.  The whole run
is also written to perfbench/out/.  The exit code is 0 when every report
was correct, 1 when one was not, and 2 when the run could not start.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 15
UNTRACED_SHARE = 1 / 3  # of a traced run's time, for trace.overhead_frac
CALIBRATE_EVERY_S = 0.5  # wall time between two machine-speed samples
REFERENCE_CALIBRATION_S = 0.03  # calibration time at the reference speed

END_TO_END_UNITS = {"verdict_s": "s", "verdict_s.gfp": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run (per workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarize(samples) -> dict:
    """Median and quartiles of a sample, with its size; from 11 samples on,
    also the highest percentile that has ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["tail"] = {"percentile": 100 * (n - 10) // n, "value": ordered[n - 11]}
    return out


def calibration_s() -> float:
    """Wall time of a fixed piece of standard-library work, the package's
    inner loop in miniature: exact rational arithmetic accumulated in a dict
    keyed by tuples.  The collector is off, so the program's heap does not
    change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(3000):
            key = (i % 17, i % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 3 + 1) * Fraction(3, i % 4 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(before, after) -> float:
    """Reference-speed seconds per wall second between two calibrations."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def setup_seconds(workload, seed) -> tuple:
    """Fresh-interpreter times to import hgalois and generate the documents:
    as measured, and at reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wall, scaled = [], []
    before = calibration_s()
    cals = [before]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_time.py"), workload, str(seed)],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        after = calibration_s()
        wall.append(float(out.stdout.split()[-1]))
        scaled.append(wall[-1] * speed_factor(before, after))
        before = after
        cals.append(after)
    return wall, scaled, cals


class Runner:
    """Passes over one workload's jobs, each report checked by the gate.

    The machine's speed drifts by tens of per cent over seconds to minutes
    when other processes share its cores.  So the runner also times a fixed
    calibration between jobs, at least every CALIBRATE_EVERY_S, and scales
    each job's wall time by the mean of the two calibrations around it: the
    job's time at the reference speed, where the calibration takes
    REFERENCE_CALIBRATION_S.
    """

    def __init__(self, docs, gate):
        from hgalois import cli, jobs
        self.cli, self.jobs = cli, jobs  # looked up per call, so tracing sees them
        self.docs = docs
        self.gate = gate
        self.gfp = [d.get("field", "rationals") != "rationals" for d in docs]
        self.attempted = 0
        self.problems = []
        self.layers = []  # per-layer metrics of each traced pass
        self.calibration = calibration_s()
        self.calibrated_at = time.perf_counter()
        self.calibrations = [self.calibration]

    def one_pass(self, tracer=None) -> tuple:
        """Seconds per job for one pass: as measured, and at reference speed."""
        times, scaled = [], []
        for position, doc in enumerate(self.docs):
            if tracer is not None:
                tracer.job = position
            start = time.perf_counter()
            try:
                entries, summary = self.cli.run_commands(self.jobs.Job(doc), doc["commands"])
                text = self.cli.render_json(entries, summary)
            except Exception:  # a raising job is a failed run; keep measuring
                times.append(time.perf_counter() - start)
                problems = [f"{doc['name']}: raised\n{traceback.format_exc()}"]
            else:
                times.append(time.perf_counter() - start)
                problems = self.gate.check(position, doc["name"], text, entries, summary)
            self.attempted += 1
            if problems:
                self.problems.append(problems)
            last = position == len(self.docs) - 1
            if last or time.perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S:
                after = calibration_s()
                factor = speed_factor(self.calibration, after)
                scaled += [t * factor for t in times[len(scaled):]]
                self.calibration, self.calibrated_at = after, time.perf_counter()
                self.calibrations.append(after)
        if tracer is not None:
            self.layers.append(tracer.take_metrics())
        return times, scaled

    def passes(self, until, tracer=None) -> list:
        """Passes while the next one should end before `until` (at least
        one), each as (wall seconds per job, reference seconds per job)."""
        out = []
        while True:
            out.append(self.one_pass(tracer))
            if time.perf_counter() + sum(out[-1][0]) > until:
                return out

    def gfp_seconds(self, times) -> float:
        return sum(t for t, gfp in zip(times, self.gfp) if gfp)


def end_to_end(runner, until, setup, record):
    """The end-to-end metrics, from untraced passes, at reference speed; the
    run file also keeps the wall-time figures."""
    passes = runner.passes(until)
    record["job_s"] = [wall for wall, _ in passes]
    record["job_reference_s"] = [scaled for _, scaled in passes]
    setup_wall, setup_scaled, setup_calibrations = setup
    samples = {
        "verdict_s": [sum(scaled) for _, scaled in passes],
        "verdict_s.gfp": [runner.gfp_seconds(scaled) for _, scaled in passes],
        "setup_s": setup_scaled,
        "wall.verdict_s": [sum(wall) for wall, _ in passes],
        "wall.verdict_s.gfp": [runner.gfp_seconds(wall) for wall, _ in passes],
        "wall.setup_s": setup_wall,
    }
    record.update({name: summarize(values) for name, values in samples.items()})
    record["calibrations"] = runner.calibrations
    record["setup_calibrations"] = setup_calibrations
    metrics = {name: statistics.median(samples[name])
               for name in ("verdict_s", "verdict_s.gfp", "setup_s")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, END_TO_END_UNITS


def per_layer(runner, start, seconds, spans_path, record):
    """The per-layer metrics: counts from the first traced pass (they repeat
    exactly), self times as medians over traced passes, and the overhead of
    tracing against untraced passes of the same run."""
    import tracer as tracing
    untraced = runner.passes(start + UNTRACED_SHARE * seconds)
    with tracing.Tracer() as tracer:
        traced = runner.passes(start + seconds, tracer)
    tracer.write_spans(spans_path)
    first = runner.layers[0]
    counts = {k: v for k, v in first.items() if k.endswith(tracing.COUNT_SUFFIXES)}
    record["counts_repeat"] = all(
        {k: layer[k] for k in counts} == counts for layer in runner.layers)
    if not record["counts_repeat"]:
        print("warning: layer counts differ between traced passes", file=sys.stderr)
    untraced_s = [sum(scaled) for _, scaled in untraced]
    traced_s = [sum(scaled) for _, scaled in traced]
    record.update({"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                   "layers": runner.layers})
    units = dict(tracing.metric_names())
    metrics = {name: statistics.median(layer[name] for layer in runner.layers)
               if unit == "s" else first[name] for name, unit in units.items()}
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    units["trace.overhead_frac"] = "ratio"
    return metrics, units


def run_workload(args) -> int:
    import gate
    import workloads

    # one CPU for the whole run, set-up probes included, so that every
    # calibration samples the CPU that runs the jobs it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "nproc": os.cpu_count()}
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    start = time.perf_counter()
    docs = workloads.generate(args.workload, args.seed)
    record["jobs"] = [d["name"] for d in docs]
    runner = Runner(docs, gate.Gate())
    if args.trace:
        metrics, units = per_layer(runner, start, args.seconds,
                                   OUT_DIR / f"{stem}.spans.tsv.gz", record)
    else:
        metrics, units = end_to_end(runner, start + args.seconds, setup, record)
    failed = len(runner.problems)
    record.update(attempted=runner.attempted, failed=failed,
                  failed_frac=failed / runner.attempted, problems=runner.problems[:20],
                  metrics=metrics)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problems in runner.problems[:5]:
        print("FAILED:", "; ".join(problems), file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    for name in ("wall.verdict_s", "wall.verdict_s.gfp", "wall.setup_s"):
        if name in record:
            print(f"{args.workload} {name} = {record[name]['median']!r} s (as measured)")
    print(f"{args.workload} failed_frac = {failed / runner.attempted!r} ratio "
          f"({failed} of {runner.attempted} job runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    if not (SRC / "hgalois" / "__init__.py").is_file():
        print(f"error: no hgalois package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
