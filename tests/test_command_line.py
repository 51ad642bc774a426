"""The command-line reader against argparse.

`cli._read` reads the plain form of a command line straight from the table of
subcommands, and declines anything else, which then goes to the argparse
parser built from the same table.  On the argv of every golden case, of
seeded rounds of every bench workload and of the variants below, the reader
either declines or gives the attributes of argparse's Namespace, and `run`
gives the same exit code, stdout and stderr with the reader forced to
decline.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from ratdyn import cli
from test_golden import CASES, COLUMNS

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)
ROUNDS = 2  # rounds of each seed's deck whose argv are parsed both ways
RUN_ROUNDS = 1  # rounds of seed 1 that are also run both ways


def _deck():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module


DECK = _deck()


def _bench_argvs(seeds, rounds):
    return {f"{workload}:{seed}:{n}:{' '.join(job.argv)}": list(job.argv)
            for workload in DECK.WORKLOADS for seed in seeds
            for n, jobs in enumerate(itertools.islice(DECK.rounds(workload, seed), rounds))
            for job in jobs}


# command line -> whether it is in the plain form the reader reads
VARIANTS = {
    "period2 --bra plus --p 1 --q 4 --nu 12": False,  # a unique prefix
    "horadam --p 1 --q 2 --fr 0 --to 5": False,
    "horadam --p 1 --p 2 --q 1 --from 0 --to 5": False,  # a repeated flag
    "period2 --branch plus --p 1 --q 2 --nu 3 --nu=4": False,
    "simulate --branch minus --p 2 --q 7 --x0 -3 --steps 5": False,  # a value token with '-'
    "simulate --branch minus --p 2 --q 7 --x0 -1/2 --steps 5": False,  # argparse: a flag
    "simulate --branch minus --p 2 --q 7 --x0=-3 --steps 5": True,
    "simulate --branch minus --p 2 --q 7 --x0=-1/2 --steps 5 --plane=float": True,
    "horadam --from=-3 --to 3 --a=1/2 --b=-1 --q 1 --p 1 --format=json": True,
    "period2 --p 1 --q 2 --branch=minus --tol=1e-4 --nu=7": True,
    "analyze --branch plus --p= --q 1": False,
    "horadam --p 1 --q 1 --from 0 --to 3 --format=": False,
    "horadam --p '' --q 1 --from 0 --to 3": False,
    "analyze --branch plus --p 1 --q 1 --bogus 1": False,  # an unknown flag
    "analyze --branch plus --p 1 --q 1 --x0 1": False,  # a flag of another subcommand
    "identities --p 1 --q 1 --nmax 5 --format json": False,
    "period2 --branch plus --p 1": False,  # a missing required flag
    "period2 --branch plus --p 1 --q 2 --format xml": False,  # a bad choice
    "simulate --branch plus --p 1 --q 2 --x0 1 --steps 5 --plane=real": False,
    "period2 --branch sideways --p 1 --q 2": False,  # bad values
    "period2 --branch plus --p 1 --q 2 --nu 0": False,
    "period2 --branch plus --p 1 --q 2 --tol nan": False,
    "horadam --p zebra --q 1 --from 0 --to 5": False,
    "horadam --p 1 --q 1 --from 0 --to": False,  # a flag without its value
    "horadam --p 1 --q 1 --from 0 --to 5 extra": False,  # a stray token
    "horadam --p 1 --q 1 --from 0 -- --to 5": False,
    "horadam -h": False,
    "period2 --branch plus --p 1 --q 2 -h": False,
    "--help": False,
    "-h horadam": False,
    "": False,
    "bogus --p 1": False,
}

GOLDEN_ARGVS = {name: shlex.split(line) for name, line in CASES.items()}
VARIANT_ARGVS = {line: shlex.split(line) for line in VARIANTS}
ARGVS = {**GOLDEN_ARGVS, **_bench_argvs(SEEDS, ROUNDS), **VARIANT_ARGVS}
RUN_ARGVS = {**GOLDEN_ARGVS, **_bench_argvs(SEEDS[:1], RUN_ROUNDS), **VARIANT_ARGVS}


def _argparse_vars(argv):
    """vars() of the argparse parser's Namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._argparse_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
def test_the_reader_declines_or_gives_the_namespace_of_argparse(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == _argparse_vars(argv)


@pytest.mark.parametrize("line, plain", VARIANTS.items(), ids=VARIANTS)
def test_the_reader_reads_the_plain_form_and_declines_the_rest(line, plain):
    assert (cli._read(VARIANT_ARGVS[line]) is not None) is plain


def test_the_reader_reads_every_bench_job_without_a_negative_value_token():
    for argv in _bench_argvs(SEEDS, ROUNDS).values():
        negative = any(token.startswith("-") and not token.startswith("--") for token in argv)
        assert (cli._read(argv) is None) is negative, argv


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


@pytest.mark.parametrize("argv", RUN_ARGVS.values(), ids=RUN_ARGVS)
def test_run_is_the_same_with_the_reader_forced_to_decline(monkeypatch, argv):
    read = _outcome(argv)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert _outcome(argv) == read
