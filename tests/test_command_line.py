"""The command-line reader against argparse, and the outcome of each variant.

`cli._read` reads every command line from the table of subcommands.  On the
argv of every golden case, of seeded rounds of every bench workload and of
the variants below, wherever an argparse parser built from the same table
accepts the argv, the reader gives the attributes of its Namespace.  The
jobs of two rounds of seed 1 also run in process, checked by bench/oracle.py,
as do two mixed-region cycles at large nu, and the help layout's line
filling is pinned on its own.
Each variant's exit code, stdout and stderr from `run` are pinned in
golden/variants.json.  Those of a command line that argparse also reads are
its bytes on Python 3.10-3.12 at 80 columns; after a deliberate change,
rewrite them with

    PYTHONPATH=src python tests/test_command_line.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from ratdyn import cli
from test_golden import CASES, COLUMNS, GOLDEN

BENCH = Path(__file__).resolve().parents[1] / "bench"
OUTCOMES = GOLDEN / "variants.json"
SEEDS = (1, 2, 3)
ROUNDS = 2  # rounds of each seed's deck whose argv are read both ways
RUN_ROUNDS = 2  # rounds of seed 1 that are also run and checked by bench/oracle.py


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module


DECK, ORACLE = _bench_module("jobs"), _bench_module("oracle")


def _bench_jobs(seeds, rounds):
    return {f"{workload}:{seed}:{n}:{' '.join(job.argv)}": job
            for workload in DECK.WORKLOADS for seed in seeds
            for n, jobs in enumerate(itertools.islice(DECK.rounds(workload, seed), rounds))
            for job in jobs}


def _bench_argvs(seeds, rounds):
    return {key: list(job.argv) for key, job in _bench_jobs(seeds, rounds).items()}


VARIANTS = [
    "period2 --bra plus --p 1 --q 4 --nu 12",  # a unique prefix
    "horadam --p 1 --q 2 --fr 0 --to 5",
    "horadam --p 1 --p 2 --q 1 --from 0 --to 5",  # a repeated flag: the last wins
    "period2 --branch plus --p 1 --q 2 --nu 3 --nu=4",
    "simulate --branch minus --p 2 --q 7 --x0 -3 --steps 5",  # a value that starts with '-'
    "horadam --p 1 --q 2 --from -20 --to -7",
    "simulate --branch minus --p 2 --q 7 --x0 -1/2 --steps 5",  # argparse: a flag, exit 2
    "simulate --branch minus --p 2 --q 7 --x0 -\u0663 --steps 5",
    "horadam --p 1 --q 2 --from - --to 7",
    "period2 --branch plus --p 1 --q 2 --nu -3",  # read, then refused by its converter
    "simulate --branch minus --p 2 --q 7 --x0=-3 --steps 5",
    "simulate --branch minus --p 2 --q 7 --x0=-1/2 --steps 5 --plane=float",
    "horadam --from=-3 --to 3 --a=1/2 --b=-1 --q 1 --p 1 --format=json",
    "period2 --p 1 --q 2 --branch=minus --tol=1e-4 --nu=7",
    "analyze --branch plus --p= --q 1",
    "horadam --p 1 --q 1 --from 0 --to 3 --format=",
    "horadam --p '' --q 1 --from 0 --to 3",
    "analyze --branch plus --p 1 --q 1 --bogus 1",  # an unknown flag
    "analyze --branch plus --p 1 --q 1 --x0 1",  # a flag of another subcommand
    "identities --p 1 --q 1 --nmax 5 --format json",
    "period2 --branch plus --p 1",  # a missing required flag
    "period2 --branch plus --p 1 --q 2 --format xml",  # a bad choice
    "simulate --branch plus --p 1 --q 2 --x0 1 --steps 5 --plane=real",
    "period2 --branch sideways --p 1 --q 2",  # bad values
    "period2 --branch plus --p 1 --q 2 --nu 0",
    "period2 --branch plus --p 1 --q 2 --tol nan",
    "horadam --p zebra --q 1 --from 0 --to 5",
    "horadam --p 1 --q 1 --from 0 --to",  # a flag without its value
    "horadam --p 1 --q 1 --from 0 --to 5 extra",  # a stray token
    "horadam --p 1 --q 1 --from 0 -- --to 5",  # '--' leaves the rest unrecognized
    "horadam -h",
    "period2 --branch plus --p 1 --q 2 -h",
    "--help",
    "-h horadam",
    "",
    "bogus --p 1",
    "--he",  # prefixes of --help
    "horadam --h",
    "horadam --p 1 --q 2 --fo 0 --to 5",  # a prefix of --format, then a bad choice
    "horadam --p 1 --q 2 --fro 0 --t 5",
    "horadam --p 1 --q 2 --f 0 --to 5",  # an ambiguous prefix
    "period2 --branch plus --p 1 --q 2 --nu 3 --=3",
    "analyze --branch=plus --branch=minus --p 3 --q 1 --nu 2",
    "simulate --branch plus --p 1 --q 2 --x0 1 --steps 5 --bogus --plane=real",  # error order
    "simulate --bogus 1",
    "--bogus horadam",  # an unknown flag before the subcommand
    "-x",
    "HORADAM --p 1",
    "horadam --p 1 --q 1 --from 0 --to 5 -h --bogus",  # the help, left to right
    "period2 --branch plus --p 1 --q 2 --nu 0 -h",
    "horadam --p 1 --q 2 --from=-5 --to=-1 -- --p",
    "horadam --p 1 --q 1 --from 1_0 --to 12",  # int() reads '_' on every Python
    "analyze --branch plus --p 1_0 --q 1",  # Fraction only from 3.11 on: refused
    "horadam --p 1 --q 1 --a=1_000.5 --from 0 --to 2",
    "simulate --branch plus --p 2 --q 7 --x0 1_0/3 --steps 5",
    "simulate --branch minus --p 2 --q 7 --x0 -1e3 --steps 5",  # argparse: a flag, exit 2
    "period2 --branch plus --p 1 --q 2 --tol -1e-5 --nu 3",
    "simulate --branch minus --p 2 --q 7 --x0 --steps 5",
    "horadam --p 1 --q 1 --from 0 --to 5 --help=1",  # argparse refused the '=1'
]

GOLDEN_ARGVS = {name: shlex.split(line) for name, line in CASES.items()}
VARIANT_ARGVS = {line: shlex.split(line) for line in VARIANTS}
ARGVS = {**GOLDEN_ARGVS, **_bench_argvs(SEEDS, ROUNDS), **VARIANT_ARGVS}


def _argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser of `cli._COMMANDS`, a reference for `cli._read`."""
    parser = argparse.ArgumentParser(prog="ratdyn")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _, flags) in cli._COMMANDS.items():
        subparser = sub.add_parser(name)
        for spelling, options in flags:
            subparser.add_argument(spelling, **options)
        subparser.set_defaults(fn=fn)
    return parser


PARSER = _argparse_parser()


def _argparse_vars(argv):
    """vars() of the reference's Namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
def test_the_reader_gives_the_namespace_of_argparse_where_argparse_reads(argv):
    expected = _argparse_vars(argv)
    if expected is not None:
        assert vars(cli._read(argv)) == expected


def test_the_reader_reads_every_bench_job():
    for argv in _bench_argvs(SEEDS, ROUNDS).values():
        assert cli._read(argv).fn is cli._COMMANDS[argv[0]][0], argv


def test_a_line_is_filled_up_to_column_78():
    assert cli._fill(["a" * 70, "b" * 7], "", "  ") == ["a" * 70 + " " + "b" * 7]
    assert cli._fill(["a" * 70, "b" * 8], "", "  ") == ["a" * 70, "  " + "b" * 8]


def test_usage_may_break_between_a_required_flag_and_its_metavar(monkeypatch):
    # as argparse does on Python 3.10-3.12, where a required flag and its
    # metavar are two words of the usage
    flags = tuple(cli._flag(f"--{name}", name, required=True)
                  for name in ("first", "second", "third", "fourth", "fifth", "sixth"))
    monkeypatch.setitem(cli._COMMANDS, "fake", (None, "", flags))
    assert cli._help("fake").split("\n\n")[0] == (
        "usage: ratdyn fake [-h] --first FIRST --second SECOND --third THIRD --fourth\n"
        "                   FOURTH --fifth FIFTH --sixth SIXTH")


def _outcome(argv):
    """(exit code, stdout, stderr) of one in-process `run`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


RUN_JOBS = _bench_jobs(SEEDS[:1], RUN_ROUNDS)


@pytest.mark.parametrize("job", RUN_JOBS.values(), ids=RUN_JOBS)
def test_a_bench_job_run_in_process_passes_the_oracle(job):
    rc, out, err = _outcome(list(job.argv))
    verdict = ORACLE.check(job.argv, rc, out.encode(), err.encode(), clean_refusal_ok=job.defect)
    assert verdict.ok, verdict.reason


@pytest.mark.parametrize("nu", [600, 2000])
def test_the_mixed_region_past_nu_400_prints_a_cycle_the_oracle_passes(nu):
    # minus (3, 1) at nu = 600 did not finish in 95 s while the signs next to
    # the cycle point fell back to Fraction powers of ~53*nu**2 bits
    argv = ["period2", "--branch", "minus", "--p", "3", "--q", "1", "--nu", str(nu)]
    rc, out, err = _outcome(argv)
    assert (rc, err, out.count("\n")) == (0, "", 2), (rc, out, err)
    verdict = ORACLE.check(argv, rc, out.encode(), err.encode())
    assert verdict.ok, verdict.reason


def test_every_variant_has_a_pinned_outcome():
    assert sorted(json.loads(OUTCOMES.read_text())) == sorted(VARIANTS)


@pytest.mark.parametrize("line", VARIANTS)
def test_the_outcome_of_a_variant_is_pinned(line):
    assert _outcome(VARIANT_ARGVS[line]) == tuple(json.loads(OUTCOMES.read_text())[line])


if __name__ == "__main__":
    outcomes = {line: _outcome(argv) for line, argv in VARIANT_ARGVS.items()}
    OUTCOMES.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
