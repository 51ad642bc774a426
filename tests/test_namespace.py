"""The package namespace resolves each public name from its module on first
access, and the CLI imports only the layers a subcommand uses.  These tests
count modules; they time nothing."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import ratdyn

# `python -c` finds the package in its working directory.
SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = {"ratdyn.analysis", "ratdyn.closed_form", "ratdyn.dynamics"}


def loaded_modules(statement: str = "pass") -> set:
    """sys.modules after `statement` in a fresh `python -E -s` process."""
    code = f"{statement}\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    result = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=SRC,
                            stdin=subprocess.DEVNULL, capture_output=True, text=True,
                            timeout=60, check=True)
    return set(result.stderr.split())


@pytest.fixture(scope="module")
def bare_modules():
    return loaded_modules()


@pytest.mark.parametrize("name", ratdyn.__all__)
def test_public_name_is_the_object_of_its_module(name):
    value = getattr(ratdyn, name)
    assert value.__module__.startswith("ratdyn.")
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_covers_all_and_unknown_names_raise():
    assert set(ratdyn.__all__) <= set(dir(ratdyn))
    with pytest.raises(AttributeError, match="no_such_name"):
        ratdyn.no_such_name
    assert not hasattr(ratdyn, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ratdyn import *", namespace)
    assert set(ratdyn.__all__) <= set(namespace)


def test_importing_the_cli_loads_no_layer_and_no_dataclasses(bare_modules):
    added = loaded_modules("import ratdyn.cli") - bare_modules
    assert "ratdyn.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json", *LAYERS})


@pytest.mark.parametrize("argv, layers", [
    (["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", "5"], set()),
    (["simulate", "--branch", "plus", "--p", "2", "--q", "7", "--x0", "3", "--steps", "5"],
     {"ratdyn.dynamics"}),
    (["closed-form", "--branch", "plus", "--p", "2", "--q", "7", "--x0", "3", "--n", "5"],
     {"ratdyn.closed_form", "ratdyn.dynamics"}),
    (["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "3"], {"ratdyn.analysis"}),
    (["analyze", "--branch", "minus", "--p", "3", "--q", "1", "--nu", "2"],
     {"ratdyn.analysis"}),
])
def test_a_subcommand_loads_only_its_layers(bare_modules, argv, layers):
    added = loaded_modules(f"from ratdyn.cli import run\nassert run({argv!r}) == 0") - bare_modules
    assert added & LAYERS == layers
    assert added.isdisjoint({"dataclasses", "json"})


@pytest.mark.parametrize("argv", [
    ["products", "--branch", "minus", "--p", "1", "--q", "2", "--x0", "-9", "--steps", "10",
     "--format", "json"],  # a meta object
    ["simulate", "--branch", "plus", "--p", "1", "--q", "1", "--x0", "-2", "--steps", "10",
     "--format", "json"],  # a status object, exit 3
    ["analyze", "--branch", "minus", "--p", "3", "--q", "1", "--nu", "3", "--format", "json"],
])
def test_a_json_document_loads_no_json(bare_modules, argv):
    added = loaded_modules(f"from ratdyn.cli import run\nrun({argv!r})") - bare_modules
    assert "ratdyn.cli" in added and "json" not in added


def test_every_binding_the_bench_tracer_wraps_exists(monkeypatch):
    # bench/trace_run.py replaces names such as `analysis.binet_roots` that the
    # package itself may no longer call; entering its patch set looks each up
    monkeypatch.syspath_prepend(str(BENCH))
    trace_run = importlib.import_module("trace_run")
    with trace_run.traced_bindings(trace_run.Tracer()):
        pass


@pytest.mark.parametrize("argv", [
    ["horadam", "--p", "1", "--q", "1", "--from", "0", "--to", "5"],
    ["simulate", "--branch", "plus", "--p", "2", "--q", "7", "--x0", "3", "--steps", "5"],
    ["closed-form", "--branch", "plus", "--p", "2", "--q", "7", "--x0", "3", "--n", "5"],
    ["forbidden", "--branch", "plus", "--p", "1", "--q", "1", "--depth", "5", "--format", "json"],
    ["products", "--branch", "minus", "--p", "1", "--q", "2", "--x0=-9", "--steps", "10"],
    ["analyze", "--branch", "minus", "--p", "3", "--q", "1", "--nu", "2"],
    ["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "3", "--tol", "1e-4"],
    ["identities", "--p", "3", "--q", "2", "--nmax", "5"],
])
def test_a_plain_command_line_loads_no_argparse(bare_modules, argv):
    added = loaded_modules(f"from ratdyn.cli import run\nassert run({argv!r}) == 0") - bare_modules
    assert "ratdyn.cli" in added and "argparse" not in added


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["period2", "--branch", "plus", "--p", "1", "--q", "2", "--nu", "0"],  # a flag error
    ["period2", "--bra", "plus", "--p", "1", "--q", "2", "--nu", "3"],  # a prefix
])
def test_help_a_flag_error_and_a_prefix_load_no_argparse(bare_modules, argv):
    statement = f"from ratdyn.cli import run\ntry:\n    run({argv!r})\nexcept SystemExit:\n    pass"
    added = loaded_modules(statement) - bare_modules
    assert "ratdyn.cli" in added and "argparse" not in added


def test_a_traced_run_reads_its_argv_through_the_parser_seam(monkeypatch):
    # bench/trace_run.py times cli.parse_s by wrapping `build_parser` and the
    # `parse_args` it returns, both as `cli.parse` spans: two per job, where
    # a run that bypassed the seam would record none
    monkeypatch.syspath_prepend(str(BENCH))
    trace_run, deck = importlib.import_module("trace_run"), importlib.import_module("jobs")
    jobs = [job for workload in deck.WORKLOADS for job in next(iter(deck.rounds(workload, 1)))]
    tracer = trace_run.Tracer()
    with trace_run.traced_bindings(tracer) as run:
        assert trace_run.run_pass(jobs, run, tracer).failed == 0
    runs = [span for span in tracer.spans if (span.layer, span.name) == ("cli", "run")]
    parses = [span for span in tracer.spans if (span.layer, span.name) == ("cli", "parse")]
    assert len(runs) == len(jobs) and len(parses) == 2 * len(jobs)
    assert all(span.parent in runs for span in parses)
