"""Metric catalogue: names, units, direction, and what each layer metric moves.

BENCHMARK.json lists the same names; this table adds, for every per-layer
metric, the end-to-end metrics it should move and the workload where it does
(`moves`, `workload`), so a change to one layer can be checked against the
end-to-end result it claims.

Layers are the package modules horadam, closed_form, dynamics, analysis and
cli (equation and errors hold no work).  A layer's self time is the time
inside spans around calls into it minus the time its child spans cover.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: Tuple[str, ...] = ()
    workload: str = ""
    doc: str = ""


# Times and rates are scaled to the reference host speed (run.HOST_REF_START_S).
END_TO_END = (
    Metric("job_s_p50", "s", "lower", doc="median job wall time, spawn to exit"),
    Metric("job_s_p90", "s", "lower",
           doc="90th-percentile job wall time; each run holds >= 10 jobs beyond it"),
    Metric("jobs_per_s", "1/s", "higher",
           doc="correct jobs per second of job wall time (closed loop, one client)"),
    Metric("peak_rss_mb", "MB", "lower", doc="largest child max-RSS from os.wait4"),
    Metric("ok_ratio", "ratio", "higher",
           doc="correct jobs / attempted jobs, i.e. 1 - fail_ratio (never 0, unlike it)"),
    Metric("setup_s", "s", "lower",
           doc="median wall time of `ratdyn --help`: interpreter, import and argparse floor"),
)

_P90_RATE = ("job_s_p90", "jobs_per_s")

PER_LAYER = (
    Metric("horadam.self_s", "s", "lower", _P90_RATE, "recurrence",
           "self time in horadam; also a regression guard on orbits"),
    Metric("horadam.calls", "count", "lower", _P90_RATE, "recurrence",
           "calls into horadam from other layers"),
    Metric("horadam.terms", "count", "lower", _P90_RATE, "recurrence",
           "W values returned, or named by the checked identities"),
    Metric("horadam.max_bits", "bits", "lower", _P90_RATE, "recurrence",
           "largest numerator or denominator bit length returned"),
    Metric("horadam.range_growth", "slope", "lower", _P90_RATE, "recurrence",
           "log-log slope of horadam_range time from n to 4n (largest stratum median)"),
    Metric("closed_form.self_s", "s", "lower", ("job_s_p90",), "recurrence"),
    Metric("closed_form.calls", "count", "lower", ("job_s_p90",), "recurrence"),
    Metric("closed_form.values", "count", "lower", ("job_s_p90",), "recurrence",
           "orbit values, forbidden points and partial products returned"),
    Metric("analysis.self_s", "s", "lower", _P90_RATE, "cycles"),
    Metric("analysis.period2_plus_s", "s", "lower", _P90_RATE, "cycles",
           "solve_period_two time, plus branch"),
    Metric("analysis.period2_minus_odd_s", "s", "lower", _P90_RATE, "cycles",
           "solve_period_two time, minus branch with odd nu"),
    Metric("analysis.period2_minus_even_s", "s", "lower", _P90_RATE, "cycles",
           "solve_period_two time, minus branch with even nu (mixed-sign region)"),
    Metric("analysis.cycles_found", "count", "higher", _P90_RATE, "cycles"),
    Metric("analysis.max_residual", "abs", "lower", _P90_RATE, "cycles",
           "largest reported two-cycle residual"),
    Metric("analysis.nu_growth", "slope", "lower", _P90_RATE, "cycles",
           "log-log slope of solve_period_two time from nu to about 4 nu (largest region median)"),
    Metric("dynamics.self_s", "s", "lower", ("jobs_per_s", "peak_rss_mb"), "orbits"),
    Metric("dynamics.steps", "count", "lower", ("jobs_per_s", "peak_rss_mb"), "orbits"),
    Metric("dynamics.max_bits", "bits", "lower", ("jobs_per_s", "peak_rss_mb"), "orbits",
           "largest exact iterate bit length"),
    Metric("dynamics.unfinished", "count", "lower", ("jobs_per_s", "peak_rss_mb"), "orbits",
           "orbits that raised or stopped before their last step"),
    Metric("cli.parse_s", "s", "lower", ("job_s_p50", "jobs_per_s", "ok_ratio"), "orbits",
           "build_parser plus parse_args"),
    Metric("cli.render_s", "s", "lower", ("job_s_p50", "jobs_per_s", "ok_ratio"), "orbits",
           "self time of cli.run: rendering and command glue"),
    Metric("cli.out_bytes", "bytes", "lower", ("job_s_p50", "jobs_per_s", "ok_ratio"), "orbits"),
    Metric("cli.errors", "count", "lower", ("job_s_p50", "jobs_per_s", "ok_ratio"), "orbits",
           "jobs whose cli.run raised or returned nonzero"),
    Metric("cli.import_s", "s", "lower", ("setup_s",), "all",
           "`import ratdyn.cli` cumulative time from python -X importtime"),
    Metric("trace.overhead_ratio", "ratio", "lower", (), "all",
           "traced in-process pass time / untraced pass time"),
)


def metric_block(table, values: Dict[str, float]) -> Dict[str, dict]:
    """The result's `metrics` object, in catalogue order; every name must be measured."""
    return {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in table}
