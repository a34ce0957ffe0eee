"""Batch command-line front end.

A job file (or bundled example) describes one algebra and its structure
blocks; commands run checks or constructions against it and the results
are written as a deterministic report: a JSON array of check entries
followed by a summary object, or the same data rendered as text.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
input, usage error or a report file that cannot be written.
"""

import argparse
import sys

from .envelope import TripleEnvelope, check_lemma55, check_thm59
from .errors import HgError, JobError
from .examples import builtin_job, builtin_listing
from .hopf_galois import (
    check_hopf,
    check_hopf_galois,
    galois_to_hopf,
    hopf_to_galois,
    pushforward,
)
from .jobs import Job, at, degree_cap, load_job
from .ore import assemble_ore, build_poisson_ore, check_thm28, check_thm44, grouplike_inverse
from .poisson import (
    PoissonHopfGaloisStructure,
    PoissonHopfStructure,
    check_poisson,
    check_poisson_hg,
    check_poisson_hopf,
    poisson_pushforward,
)
from .reports import entry_to_json, render_json, render_text, terms_json


def _mu_json(hg, render) -> dict:
    return {atom: terms_json(img, render) for atom, img in sorted(hg.mu.images.items())}


def _bracket_json(p, render) -> list:
    return [{"pair": [a, b], "value": terms_json(v, render)}
            for (a, b), v in sorted(p.table.items())]


def _poisson_hg(job) -> PoissonHopfGaloisStructure:
    """The job's Poisson bracket and Hopf-Galois structure map, read in that order."""
    return PoissonHopfGaloisStructure(job.poisson(), job.hopf_galois())


def _cmd_convert_hopf_to_galois(job):
    hs = job.hopf()
    report, result = check_hopf(hs), None
    if report.passed:
        hg = hopf_to_galois(hs)
        report.extend(check_hopf_galois(hg))
        result = {"mu": _mu_json(hg, job.field.render)}
    return report, result


def _cmd_convert_galois_to_hopf(job):
    hs = galois_to_hopf(job.hopf_galois(), job.alpha_map())
    report = check_hopf(hs)
    render = job.field.render
    result = {
        "comultiplication": {
            atom: terms_json(img, render) for atom, img in sorted(hs.delta.images.items())
        },
        "counit": {atom: render(img.scalar()) for atom, img in sorted(hs.counit.images.items())},
        "antipode": {
            atom: terms_json(img.to_element(), render)
            for atom, img in sorted(hs.antipode.images.items())
        },
    }
    return report, result


def _cmd_check_thm28(job):
    data, g = job.ore_data()
    return check_thm28(data, job.hopf_galois(), g), None


def _cmd_ore_extend(job):
    data, g = job.ore_data()
    hg = job.hopf_galois()
    g_inv = grouplike_inverse("check_thm28", hg, g)
    report, result = check_thm28(data, hg, g, g_inv), None
    if report.passed:
        extended = assemble_ore(data, hg, g, g_inv)
        report.extend(check_hopf_galois(extended))
        result = {
            "presentation": repr(extended.presentation),
            "mu": _mu_json(extended, job.field.render),
        }
    return report, result


def _cmd_check_thm44(job):
    data, g = job.poisson_ore_data()
    return check_thm44(data, _poisson_hg(job), g), None


def _cmd_poisson_ore_extend(job):
    data, _ = job.poisson_ore_data()
    extended = build_poisson_ore(data)
    report = check_poisson(extended)
    result = {
        "presentation": repr(extended.presentation),
        "bracket": _bracket_json(extended, job.field.render),
    }
    return report, result


def _cmd_build_envelope(job):
    env = job.envelope()
    result = {
        "source_dimension": len(env.basis),
        "generators": [g.name for g in env.presentation.generators],
        "rules": [repr(r) for r in env.presentation.rules],
    }
    return env.relation_report, result


def _cmd_pushforward(job):
    f, section, ideal = job.quotient()
    render = job.field.render
    if "bracket" in job.doc:
        pushed = poisson_pushforward(_poisson_hg(job), f, section, ideal)
        report = (check_hopf_galois(pushed.hopf_galois)
                  .extend(check_poisson(pushed.poisson))
                  .extend(check_poisson_hg(pushed)))
        result = {"mu": _mu_json(pushed.hopf_galois, render),
                  "bracket": _bracket_json(pushed.poisson, render)}
    else:
        pushed = pushforward(job.hopf_galois(), f, section)
        report, result = check_hopf_galois(pushed), {"mu": _mu_json(pushed, render)}
    return report, result


# The commands, each a function of the job that returns its report and its
# result (None for a check only).  A row reads the job's blocks in the order
# in which its arguments are written, keyword arguments included, so that a
# job with two bad blocks reports the same one first under every command.
COMMANDS = {
    "check-hopf-galois": lambda job: (check_hopf_galois(job.hopf_galois()), None),
    "check-poisson": lambda job: (check_poisson(job.poisson()), None),
    "check-poisson-hg": lambda job: (check_poisson_hg(_poisson_hg(job)), None),
    "check-poisson-hopf": lambda job: (
        check_poisson_hopf(PoissonHopfStructure(job.poisson(), job.hopf())), None),
    "convert hopf-to-galois": _cmd_convert_hopf_to_galois,
    "convert galois-to-hopf": _cmd_convert_galois_to_hopf,
    "ore-extend": _cmd_ore_extend,
    "check-thm28": _cmd_check_thm28,
    "poisson-ore-extend": _cmd_poisson_ore_extend,
    "check-thm44": _cmd_check_thm44,
    "build-envelope": _cmd_build_envelope,
    "check-lemma55": lambda job: (
        check_lemma55(sample_words=job.lemma55_words(), te=TripleEnvelope(job.envelope())), None),
    "check-thm59": lambda job: (check_thm59(env=job.envelope(), ph=_poisson_hg(job)), None),
    "pushforward": _cmd_pushforward,
}


def _check_command_names(job: Job, commands) -> None:
    """Raise a `JobError` at `<job>.commands` unless every name is a command."""
    for name in commands:
        if name not in COMMANDS:
            raise JobError(f"{job.name}.commands", f"unknown command {name!r}")


def run_commands(job: Job, commands) -> tuple:
    """Execute commands in order, once every name is known; returns (entry
    dicts, summary dict)."""
    _check_command_names(job, commands)
    render = job.field.render
    all_entries = []
    results = {}
    for command in commands:
        with at(f"{job.name} [{command}]"):
            report, result = COMMANDS[command](job)
        all_entries += [entry_to_json(entry, render, command) for entry in report.entries]
        if result is not None:
            results[command] = result
    passed = sum(1 for e in all_entries if e["status"] == "pass")
    summary = {
        "job": job.name,
        "field": job.field.name,
        "commands": list(commands),
        "checks": len(all_entries),
        "passed": passed,
        "failed": len(all_entries) - passed,
        "status": "pass" if passed == len(all_entries) else "fail",
    }
    if results:
        summary["results"] = results
    return all_entries, summary


def _load(args) -> Job:
    if args.builtin and args.input:
        raise JobError("usage", "give either --input or --builtin, not both")
    cap = None if args.cap is None else degree_cap(args.cap, "--cap")
    if args.builtin:
        job = Job(builtin_job(args.builtin), cap_override=cap)
    elif args.input:
        job = load_job(args.input, cap_override=cap)
    else:
        raise JobError("usage", "one of --input or --builtin is required")
    return job


def _emit(args, entries, summary) -> int:
    text = render_json(entries, summary) if args.format == "json" \
        else render_text(entries, summary)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise JobError(args.report, f"cannot write report: {exc}")
        print(f"{summary['status']}: {summary['passed']}/{summary['checks']} checks "
              f"passed; report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0 if summary["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgalois",
        description="Exact verification of Hopf-Galois and Poisson structures "
                    "on finitely presented algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="PATH", help="job file (JSON)")
    common.add_argument("--builtin", metavar="NAME", help="bundled example job")
    common.add_argument("--report", metavar="PATH", help="write the report here")
    common.add_argument("--cap", type=int, default=None,
                        help="override every degree cap in the job")
    common.add_argument("--format", choices=("json", "text"), default="json")

    sub.add_parser("list-builtins", help="list bundled example jobs")
    sub.add_parser("run", parents=[common],
                   help="run the job's own command list")
    convert = sub.add_parser("convert", parents=[common],
                             help="convert between Hopf and Hopf-Galois data")
    convert.add_argument("direction", choices=("hopf-to-galois", "galois-to-hopf"))
    for name in sorted(COMMANDS):
        if name.startswith("convert "):
            continue
        sub.add_parser(name, parents=[common], help=f"run {name} on the job")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "list-builtins":
            for item in builtin_listing():
                print(f"{item['name']:22s}  [{item['anchor']}]  {item['description']}")
            return 0
        job = _load(args)
        if args.subcommand == "run":
            commands = job.commands
            if not commands:
                raise JobError(job.name, "job file has no commands")
        else:
            _check_command_names(job, job.commands)  # the file's own list, though it does not run
            commands = [f"convert {args.direction}" if args.subcommand == "convert"
                         else args.subcommand]
        entries, summary = run_commands(job, commands)
        return _emit(args, entries, summary)
    except HgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
