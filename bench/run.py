"""ratdyn benchmark: closed-loop CLI jobs, or a traced in-process pass.

    python3 bench/run.py --workload recurrence|cycles|orbits --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from `src/`.

--trace 0 runs whole rounds of `python -m ratdyn ...` jobs, one at a time (a
closed loop with a single client), until S seconds have passed and at least
ten jobs lie beyond the 90th percentile.  Every job's stdout is checked by
bench/oracle.py.  It reports the end-to-end metrics.

On a shared host, speed can drift by 1.5x over tens of seconds, and wall and
CPU time move alike.  So every fifth job is preceded by a bare interpreter
start (`python -c pass`), which no change to ratdyn can affect, and times and
rates are reported scaled to a host on which that start takes
HOST_REF_START_S: reported time = measured * HOST_REF_START_S / median bare
start.  The measured values are printed on the `# measured:` summary line.

--trace 1 runs the same job list in process through `ratdyn.cli.run`,
alternating untraced and traced passes for S seconds, and reports the
per-layer metrics (see bench/layers.py).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import jobs as jobdeck
import layers
import oracle

HOST_REF_START_S = 0.05
JOB_TIMEOUT_S = 60.0
HARD_STOP_S = 150.0  # a run never starts a new round after this
MIN_BEYOND_P90 = 10
SETUP_SAMPLES_FIRST = 3  # set-up samples before the first round, then one per round
HOST_SAMPLE_EVERY = 5  # jobs between bare interpreter starts


@dataclass
class JobResult:
    wall_s: float
    rc: int
    out: bytes
    err: bytes
    max_rss_kb: int
    timed_out: bool


def source_dir() -> Path:
    src = Path.cwd() / "src"
    if not (src / "ratdyn" / "__init__.py").is_file():
        sys.exit(f"error: no ratdyn sources under {src}; run from the root of a ratdyn checkout")
    return src


def ratdyn_command(argv) -> List[str]:
    """Interpreter command for one job.  -E -s ignore PYTHON* variables and
    the user site directory; the job runs with cwd=src, which -m puts first
    on sys.path."""
    return [sys.executable, "-E", "-s", "-m", "ratdyn", *argv]


def run_job(command, src: Path, timeout: float = JOB_TIMEOUT_S) -> JobResult:
    """Spawn one process, drain stdout and stderr, and reap it with os.wait4
    for its max-RSS.  Wall time runs from just before spawn to reaping."""
    chunks = {"out": [], "err": []}
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=src, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, "out")
            sel.register(proc.stderr, selectors.EVENT_READ, "err")
            deadline = start + timeout
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    timed_out = True
                    proc.kill()
                for key, _ in sel.select(timeout=max(remaining, 0.1)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.data].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return JobResult(wall, proc.returncode, b"".join(chunks["out"]), b"".join(chunks["err"]),
                     usage.ru_maxrss, timed_out)


def timed_ok(command, src: Path) -> float:
    result = run_job(command, src)
    if result.rc != 0:
        sys.exit(f"error: {' '.join(command[1:])} exited {result.rc}: "
                 f"{result.err.decode()[-400:]}")
    return result.wall_s


def host_sample(src: Path) -> float:
    """Wall time of a bare interpreter start: the host speed index."""
    return timed_ok([sys.executable, "-E", "-s", "-c", "pass"], src)


def setup_sample(src: Path) -> float:
    """Wall time of a no-work `ratdyn --help`: interpreter, package import, argparse."""
    return timed_ok(ratdyn_command(["--help"]), src)


def beyond_p90(walls) -> int:
    if len(walls) < 10:
        return 0
    p90 = statistics.quantiles(walls, n=10)[8]
    return sum(w > p90 for w in walls)


def end_to_end(workload: str, seed: int, seconds: float, src: Path) -> dict:
    setup_sample(src)  # warm-up: byte-compiles the package on a fresh checkout
    setups = [setup_sample(src) for _ in range(SETUP_SAMPLES_FIRST)]
    hosts = [host_sample(src) for _ in range(SETUP_SAMPLES_FIRST)]
    walls: List[float] = []
    failures = {}
    attempted = ok = wrong = 0
    peak_kb = 0
    start = time.perf_counter()
    for round_jobs in jobdeck.rounds(workload, seed):
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and beyond_p90(walls) >= MIN_BEYOND_P90):
            break
        if walls:
            setups.append(setup_sample(src))
        for job in round_jobs:
            if attempted % HOST_SAMPLE_EVERY == 0:
                hosts.append(host_sample(src))
            result = run_job(ratdyn_command(job.argv), src)
            verdict = oracle.check(job.argv, result.rc, result.out, result.err,
                                   result.timed_out, clean_refusal_ok=job.defect)
            attempted += 1
            walls.append(result.wall_s)
            peak_kb = max(peak_kb, result.max_rss_kb)
            if verdict.ok:
                ok += 1
            else:
                wrong += verdict.wrong
                failures.setdefault((job.stratum, verdict.reason), " ".join(job.argv))
    for (stratum, reason), example in sorted(failures.items()):
        print(f"failed {stratum}: {reason} (e.g. ratdyn {example})", file=sys.stderr)
    if beyond_p90(walls) < MIN_BEYOND_P90:
        print("warning: fewer than ten jobs beyond the 90th percentile", file=sys.stderr)
    host_start = statistics.median(hosts)
    measured = {
        "job_s_p50": statistics.median(walls),
        "job_s_p90": statistics.quantiles(walls, n=10)[8],
        "jobs_per_s": ok / sum(walls),
        "setup_s": statistics.median(setups),
    }
    scale = HOST_REF_START_S / host_start
    values = {name: value / scale if name == "jobs_per_s" else value * scale
              for name, value in measured.items()}
    values["peak_rss_mb"] = peak_kb / 1024.0
    values["ok_ratio"] = ok / attempted
    print(f"# {workload} seed={seed}: {attempted} jobs in {sum(walls):.2f} s of job time, "
          f"{len(setups)} set-up and {len(hosts)} host samples; "
          f"fail_ratio={(attempted - ok) / attempted:.4f}")
    print(f"# measured: bare_start_s={host_start:.6g} "
          + " ".join(f"{name}={value:.6g}" for name, value in measured.items()))
    return {"correct": wrong == 0, "attempted": attempted, "failed": attempted - ok,
            "metrics": layers.metric_block(layers.END_TO_END, values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobdeck.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = source_dir()
    if args.trace:
        import trace_run

        result = trace_run.traced(args.workload, args.seed, args.seconds, src)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, src)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
