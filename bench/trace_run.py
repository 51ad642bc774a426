"""Traced in-process pass: per-layer spans and counters for one workload.

The job list is the first PASS_ROUNDS rounds of the workload's deck, run
through `ratdyn.cli.run(argv)` with stdout and stderr captured.  Untraced and
traced passes alternate; their time ratio is the tracing overhead.

Spans are recorded from here, around the public functions of each layer, by
replacing the binding the caller looks up (`ratdyn.cli.horadam_range`,
`ratdyn.closed_form.canonical_table`, `closed_form`'s view of
`dynamics.step`, ...).  Spans stay in memory; a pass's metrics are computed
when it ends.  Counter hooks run after a span closes and their time is
subtracted from the parent span, so bookkeeping never counts as layer time.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import defaultdict
from itertools import islice
from pathlib import Path

import jobs as jobdeck
import layers
import oracle

PASS_ROUNDS = 2
IMPORT_SAMPLES = 5
HARD_STOP_S = 150.0
LAYERS = ("horadam", "closed_form", "dynamics", "analysis", "cli")

# W values each identity names (see horadam.check_identity); work requested,
# independent of how the package evaluates them.
IDENTITY_TERMS = {"convolution": 5, "cassini": 3, "docagne": 5, "johnson": 8, "phi_power": 2}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "hook_s")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.hook_s = 0.0


def _bits(values) -> int:
    """Largest numerator/denominator bit length among exact values (0 for floats)."""
    best = 0
    for v in values:
        if not isinstance(v, float):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.count = defaultdict(float)
        self.timings = []  # (series, group, pair id, size, seconds)

    def wrap(self, layer, name, fn, on_return=None, on_raise=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                stack.pop()
                if on_raise is not None:
                    on_raise()
                raise
            span.end = time.perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(span, args, result)
                span.hook_s = time.perf_counter() - span.end
            return result

        return traced

    def peak(self, name, value):
        self.count[name] = max(self.count[name], value)

    def timed(self, series, group, span):
        job = self.job
        if job.pair:
            self.timings.append((series, group, job.pair, job.size, span.end - span.start))

    # ---- counter hooks, one per traced function

    def horadam_values(self, span, args, result):
        self.count["horadam.terms"] += len(result)
        self.peak("horadam.max_bits", _bits(result))

    def horadam_range(self, span, args, result):
        self.horadam_values(span, args, result)
        self.timed("range", self.job.stratum, span)

    def identity(self, span, args, result):
        self.count["horadam.terms"] += IDENTITY_TERMS[args[0].value]

    def dynamics_orbit(self, span, args, result):
        self.count["dynamics.steps"] += len(result.values) - 1
        self.peak("dynamics.max_bits", _bits(result.values))
        self.count["dynamics.unfinished"] += not result.status.ok

    def dynamics_step(self, span, args, result):
        self.count["dynamics.steps"] += 1
        self.peak("dynamics.max_bits", _bits((result,)))

    def dynamics_raised(self):
        self.count["dynamics.unfinished"] += 1

    def period_two(self, span, args, result):
        eq = args[0]
        region = "plus" if eq.sign > 0 else "minus_odd" if eq.nu % 2 else "minus_even"
        self.count[f"analysis.period2_{region}_s"] += span.end - span.start
        self.timed("nu", region, span)
        if result is not None:
            self.count["analysis.cycles_found"] += 1
            self.peak("analysis.max_residual", result.residual)

    def closed_form_values(self, size):
        def hook(span, args, result):
            self.count["closed_form.values"] += size(result)
        return hook


@contextlib.contextmanager
def traced_bindings(tracer: Tracer):
    """Swap traced wrappers into the bindings callers look up; restore on exit."""
    import ratdyn.analysis as analysis
    import ratdyn.cli as cli
    import ratdyn.closed_form as closed_form
    import ratdyn.dynamics as dynamics

    w = tracer.wrap
    dynamics_view = types.ModuleType(dynamics.__name__)
    dynamics_view.__dict__.update(vars(dynamics))
    dynamics_view.step = w("dynamics", "step", dynamics.step, tracer.dynamics_step)
    real_build_parser = cli.build_parser

    def build_parser():
        parser = real_build_parser()
        parser.parse_args = w("cli", "parse", parser.parse_args)
        return parser

    patches = [
        (cli, "horadam_range", w("horadam", "horadam_range", cli.horadam_range,
                                 tracer.horadam_range)),
        (cli, "check_identity", w("horadam", "check_identity", cli.check_identity,
                                  tracer.identity)),
        (closed_form, "canonical_table", w("horadam", "canonical_table",
                                           closed_form.canonical_table, tracer.horadam_values)),
        (closed_form, "binet_roots", w("horadam", "binet_roots", closed_form.binet_roots)),
        (analysis, "binet_roots", w("horadam", "binet_roots", analysis.binet_roots)),
        (closed_form, "solve_closed_form", w("closed_form", "solve_closed_form",
                                             closed_form.solve_closed_form,
                                             tracer.closed_form_values(lambda r: 1))),
        (closed_form, "forbidden_points", w("closed_form", "forbidden_points",
                                            closed_form.forbidden_points,
                                            tracer.closed_form_values(len))),
        (closed_form, "product_analysis", w("closed_form", "product_analysis",
                                            closed_form.product_analysis,
                                            tracer.closed_form_values(lambda r: len(r.partials)))),
        (closed_form, "dynamics", dynamics_view),
        (dynamics, "iterate", w("dynamics", "iterate", dynamics.iterate,
                                tracer.dynamics_orbit, tracer.dynamics_raised)),
        (analysis, "equilibria", w("analysis", "equilibria", analysis.equilibria)),
        (analysis, "classify_stability", w("analysis", "classify_stability",
                                           analysis.classify_stability)),
        (analysis, "solve_period_two", w("analysis", "solve_period_two",
                                         analysis.solve_period_two, tracer.period_two)),
        (cli, "build_parser", w("cli", "parse", build_parser)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield w("cli", "run", cli.run)
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def run_in_process(run, argv):
    """(rc, stdout bytes, stderr bytes, seconds) of one in-process CLI call;
    an exception escaping `run` becomes exit 1 with a traceback, as in a
    subprocess."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception as exc:  # the CLI boundary: record it as the interpreter would
            raised, rc = exc, 1
        seconds = time.perf_counter() - start
    if raised is not None:
        err.write("".join(traceback.format_exception(raised)))
    return rc, out.getvalue().encode(), err.getvalue().encode(), seconds


class PassResult:
    def __init__(self):
        self.seconds = 0.0
        self.attempted = self.failed = self.wrong = self.errors = self.out_bytes = 0


def run_pass(job_list, run, tracer=None) -> PassResult:
    result = PassResult()
    for job in job_list:
        if tracer is not None:
            tracer.job = job
        rc, out, err, seconds = run_in_process(run, job.argv)
        result.seconds += seconds
        result.out_bytes += len(out)
        result.errors += rc != 0
        verdict = oracle.check(job.argv, rc, out, err, clean_refusal_ok=job.defect)
        result.attempted += 1
        result.failed += not verdict.ok
        result.wrong += verdict.wrong
    return result


def _slope(timings, series) -> float:
    """Largest per-group median of log-log slopes over growth pairs; 0 if none."""
    pairs = defaultdict(dict)
    for s, group, pair, size, seconds in timings:
        if s == series:
            pairs[(group, pair)][size] = seconds
    slopes = defaultdict(list)
    for (group, _), by_size in pairs.items():
        if len(by_size) == 2:
            (n0, t0), (n1, t1) = sorted(by_size.items())
            slopes[group].append(math.log(t1 / t0) / math.log(n1 / n0))
    return max((statistics.median(v) for v in slopes.values()), default=0.0)


def layer_values(tracer: Tracer, passed: PassResult):
    """Per-layer metrics of one traced pass, plus each layer's share of the
    in-process time (self time / time inside cli.run)."""
    covered = defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.end - span.start + span.hook_s
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span in tracer.spans:
        own = span.end - span.start - covered[id(span)]
        key = "cli.parse_s" if span.name == "parse" else "cli.render_s" if span.name == "run" \
            else f"{span.layer}.self_s"
        self_s[key] += own
        if span.parent is None or span.parent.layer != span.layer:
            calls[f"{span.layer}.calls"] += 1
    values = dict(tracer.count)
    values.update(self_s)
    values.update(calls)
    values["cli.out_bytes"] = passed.out_bytes
    values["cli.errors"] = passed.errors
    values["horadam.range_growth"] = _slope(tracer.timings, "range")
    values["analysis.nu_growth"] = _slope(tracer.timings, "nu")
    total = sum(s.end - s.start for s in tracer.spans if s.name == "run")
    shares = {layer: self_s[f"{layer}.self_s"] / total for layer in LAYERS[:-1]}
    shares["cli"] = (self_s["cli.parse_s"] + self_s["cli.render_s"]) / total
    return values, shares


def import_seconds(src: Path) -> float:
    """Cumulative `import ratdyn.cli` time from -X importtime: the top-level
    ratdyn entries, which include every module they pull in."""
    out = subprocess.run(
        [sys.executable, "-E", "-s", "-X", "importtime", "-c", "import ratdyn.cli"],
        cwd=src, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60, check=True)
    total_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2][1:]
            if name == "ratdyn" or name.startswith("ratdyn."):
                total_us += int(parts[1])
    return total_us / 1e6


def traced(workload: str, seed: int, seconds: float, src: Path) -> dict:
    sys.path.insert(0, str(src))
    import ratdyn.cli

    if not Path(ratdyn.cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported ratdyn from {ratdyn.cli.__file__}, not from {src}")
    job_list = [job for rnd in islice(jobdeck.rounds(workload, seed), PASS_ROUNDS) for job in rnd]
    import_s = statistics.median(import_seconds(src) for _ in range(IMPORT_SAMPLES))

    totals = PassResult()
    untraced_s, traced_s, per_pass, shares = [], [], [], []

    def tally(passed):
        totals.attempted += passed.attempted
        totals.failed += passed.failed
        totals.wrong += passed.wrong

    tally(run_pass(job_list, ratdyn.cli.run))  # warm-up, untimed
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < min(seconds, HARD_STOP_S):
        plain = run_pass(job_list, ratdyn.cli.run)
        tracer = Tracer()
        with traced_bindings(tracer) as traced_run:
            passed = run_pass(job_list, traced_run, tracer)
        tally(plain)
        tally(passed)
        untraced_s.append(plain.seconds)
        traced_s.append(passed.seconds)
        values, share = layer_values(tracer, passed)
        per_pass.append(values)
        shares.append(share)

    values = {m.name: statistics.median(p.get(m.name, 0.0) for p in per_pass)
              for m in layers.PER_LAYER if m.name not in ("cli.import_s", "trace.overhead_ratio")}
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    print(f"# {workload} seed={seed}: {len(job_list)} jobs per pass, {len(traced_s)} traced "
          f"passes; median traced pass {statistics.median(traced_s):.3f} s")
    print("# self-time share of in-process time: " + ", ".join(
        f"{layer} {statistics.median(s[layer] for s in shares):.1%}" for layer in LAYERS))
    return {"correct": totals.wrong == 0, "attempted": totals.attempted,
            "failed": totals.failed, "metrics": layers.metric_block(layers.PER_LAYER, values)}
