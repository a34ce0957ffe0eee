"""One-node mutations of the bundled jobs: malformed input raises an
`HgError` (exit 2, and a field path under the job's name for a job error),
never a Python traceback.

Every non-root node of every bundled job except kxy_truncated (whose
Lemma 5.5 check is the slowest), over Q and over GF(5), is replaced by each
of VALUES in turn.  The sweep enumerates every such mutation, so it needs no
randomness and always runs the same cases.  Each generator is also renamed
everywhere with a non-ASCII digit or a control character appended: the name
is rejected where it is declared exactly when no word token could spell it."""

import copy
import json

import pytest

from hgalois.cli import main, run_commands
from hgalois.errors import HgError, JobError
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job

HUGE = 10**30
VALUES = [5, -1, 0, "", "q", "g^-1", [], {}, None, True, 1.5, HUGE, [["x"]], {"a": 1},
          "1/0", "x^" + "9" * 30, "x^\u0662", "g\x01", "g\t"]
JOBS = sorted(set(BUILTINS) - {"kxy_truncated"})
FIELDS = {"Q": "rationals", "GF5": {"prime": 5}}


def nodes(doc, path=()):
    """The path of every node below `doc`, each parent before its children."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutants(name, field):
    base = builtin_job(name)
    base["field"] = field
    for path in list(nodes(base)):
        for value in VALUES:
            # a huge cap is valid input: it only makes envelope completion slow
            if path[-1] == "cap" and value is HUGE:
                continue
            yield path, value, mutated(base, path, value)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", JOBS)
def test_one_node_mutations_raise_only_hg_errors(name, field):
    escapes = []
    for path, value, doc in mutants(name, FIELDS[field]):
        job_name = doc["name"] if isinstance(doc.get("name"), str) else "job"
        try:
            job = Job(doc)
            run_commands(job, job.commands)
        except JobError as exc:
            if not exc.path.startswith(job_name):
                escapes.append((path, value, f"JobError at {exc.path!r}"))
        except HgError:
            pass
        except Exception as exc:  # would reach the user as a traceback
            escapes.append((path, value, repr(exc)))
    assert escapes == []


CLI_NODES = [
    ("sweedler_h4", ("name",)),
    ("sweedler_h4", ("mu", "x", 1, "coeff")),
    ("laurent_lambda1", ("presentation", "generators", 0, "name")),
    ("laurent_lambda1", ("bracket", 0, "pair", 0)),
    ("ore_q2_laurent", ("ore", "variable")),
]


@pytest.mark.parametrize("name,path", CLI_NODES,
                         ids=[f"{n}:{'.'.join(map(str, p))}" for n, p in CLI_NODES])
def test_mutated_job_files_exit_cleanly(name, path, tmp_path, capsys):
    job = tmp_path / "job.json"
    for value in VALUES:
        job.write_text(json.dumps(mutated(builtin_job(name), path, value)))
        code = main(["run", "--input", str(job), "--report", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert err.startswith("error: ") if code == 2 else err == ""


# appended to a generator name: whitespace can never be part of a name, and
# every other character can (a non-ASCII digit too, only not as an exponent)
NAME_SUFFIXES = ["\x01", "\x1b", "\x7f", "\u0662", "\t", "\n", "\x0b", "\xa0", "\u2028"]


def renamed(doc, old, new):
    """`doc` with the atom `old` renamed `new` in every string and key that
    spells it: the name itself and each token "old" or "old^n"."""
    def spell(text):
        return new + text[len(old):] if text == old or text.startswith(old + "^") else text
    if isinstance(doc, dict):
        return {spell(k): renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [renamed(v, old, new) for v in doc]
    return spell(doc) if isinstance(doc, str) else doc


@pytest.mark.parametrize("name", JOBS)
def test_a_generator_name_is_valid_iff_a_token_can_spell_it(name):
    base = builtin_job(name)
    _, summary = run_commands(Job(base), base["commands"])
    expected = (summary["checks"], summary["passed"])
    for i, generator in enumerate(base["presentation"]["generators"]):
        old = generator if isinstance(generator, str) else generator["name"]
        for suffix in NAME_SUFFIXES:
            doc = renamed(base, old, old + suffix)
            if suffix.isspace():
                with pytest.raises(JobError) as err:
                    run_commands(Job(doc), doc["commands"])
                assert err.value.path == f"{name}.presentation.generators[{i}]"
            else:
                _, summary = run_commands(Job(doc), doc["commands"])
                assert (summary["checks"], summary["passed"]) == expected, (old, suffix)
