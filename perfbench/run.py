"""Time-to-verdict benchmark for the fhalg command line.

    python3 perfbench/run.py --workload catalog-check --seed 1 \
        --seconds 25 --trace 0

Set-up runs in fresh interpreters (start, import, generate and write the
inputs) and is timed from outside.  The measured passes then drive
``fhalg.cli.main(argv)`` in this process, one thread, no ``--parallel``,
and check every verdict against the table in ``workloads.py``.  Passes
repeat for about ``--seconds`` of measured time.  Every reported time is
scaled to the speed of an unloaded host by the calibration samples taken
during and around it (see ``hostspeed.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one traced pass (see ``tracer.py``) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS, check_inputs, check_verdict, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_SAMPLES = 8
CMD_SAMPLES = 3


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Set-up body, run in a fresh interpreter by ``setup()``."""
    import fhalg  # noqa: F401  (import time is part of set-up)
    manifest = make_inputs(workload, seed, workdir)
    with open(os.path.join(workdir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh)


def setup(workload: str, seed: int, workdir: str) -> tuple:
    """Set-up in a fresh interpreter; return its seconds and the same at
    reference speed, calibrated just before and after it (not during: the
    samples would compete with the child for the two vCPUs).  No timeout:
    waiting with one polls in 50 ms steps, which would quantise the
    measurement."""
    samples = [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--make-inputs", workdir, "--workload", workload,
                    "--seed", str(seed)], check=True)
    seconds = perf_counter() - t0
    samples += [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    return seconds, seconds * hostspeed.scale(samples)


def run_pass(cli, commands: list, sampler=None):
    """One pass over the command list: per-command seconds, the same at
    reference speed (None without a running ``sampler``), and the
    commands whose verdict differs from the table.  The time the
    sampler's samples took is left out.  A command is scaled by the
    samples taken while it ran, or by the whole pass's when it ran for
    fewer than CMD_SAMPLES of them."""
    gc.collect()
    times, taken, failures = [], [], []
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        if sampler:
            spent, first = sampler.spent, len(sampler.samples)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(cmd["argv"])
        except Exception as exc:  # a command that raises is a failure
            code = f"raised {exc!r}"
        elapsed = perf_counter() - t0
        if sampler:
            elapsed -= sampler.spent - spent
            taken.append(sampler.samples[first:])
        times.append(elapsed)
        problem = check_verdict(cmd["expect"], code, out.getvalue(),
                                err.getvalue())
        if problem:
            failures.append(f"{' '.join(cmd['argv'])}: {problem}")
    if not sampler:
        return times, None, failures
    whole = sampler.samples or [hostspeed.sample()]
    ref = [t * hostspeed.scale(s if len(s) >= CMD_SAMPLES else whole)
           for t, s in zip(times, taken)]
    return times, ref, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "fhalg")):
        print(f"error: no fhalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.make_inputs:
        write_inputs(args.workload, args.seed, args.make_inputs)
        return 0

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir) -> int:
    setup_times = [setup(args.workload, args.seed, workdir)]
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = check_inputs(manifest)
    if problems:
        print("error: generated inputs are wrong:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1
    from fhalg import cli
    commands = manifest["commands"]

    # Passes repeat while the next one would end nearer to --seconds than
    # this one did.  Later set-ups run between passes, so that the set-up
    # median and the pass median sample the same stretch of host load.
    # An untraced pass runs under a calibration sampler; refs[i] holds
    # pass i's command times at reference speed.  Set-ups repeat until
    # there are SETUP_REPEATS of them and SETUP_SECONDS in all, because a
    # single short one varies by a third from run to run.
    passes, refs, failures = [], [], []
    while True:
        if args.trace:
            times, _, failed = run_pass(cli, commands)
        else:
            with hostspeed.Sampler() as sampler:
                times, ref, failed = run_pass(cli, commands, sampler)
            refs.append(ref)
        passes.append(times)
        failures += failed
        measured = sum(sum(t) for t in passes)
        typical = statistics.median(sum(t) for t in passes)
        if args.trace or measured + typical / 2 > args.seconds:
            break
        setup_times.append(setup(args.workload, args.seed, workdir))
    while not args.trace and (
            len(setup_times) < SETUP_REPEATS
            or sum(t for t, _ in setup_times) < SETUP_SECONDS):
        setup_times.append(setup(args.workload, args.seed, workdir))

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            times, _, failed = run_pass(cli, commands)
        finally:
            tracer.uninstall()
        failures += failed
        missing = tracer.missing(args.workload)
        if missing:
            print("error: traced functions recorded no call: "
                  + ", ".join(missing), file=sys.stderr)
            return 1
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (sum(times) / sum(passes[0]),
                                           "ratio")
        attempted = (len(passes) + 1) * len(commands)
    else:
        metrics = {
            "wall_ref_s": (statistics.median(sum(r) for r in refs), "s"),
            "max_cmd_ref_s": (statistics.median(max(r) for r in refs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(ref for _, ref in setup_times),
                        "s"),
        }
        attempted = len(passes) * len(commands)

    for failure in failures:
        print(f"wrong verdict: {failure}", file=sys.stderr)
    print(f"{args.workload}: {len(commands)} commands; passes "
          + ", ".join(f"{sum(t):.2f}" for t in passes) + " s"
          + (", at reference speed "
             + ", ".join(f"{sum(r):.2f}" for r in refs) + " s" if refs else "")
          + "; set-ups "
          + ", ".join(f"{t:.3f}" for t, _ in setup_times) + " s, at "
          + "reference speed "
          + ", ".join(f"{ref:.3f}" for _, ref in setup_times) + " s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
