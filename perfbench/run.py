"""The repository benchmark: end-to-end host metrics and a per-layer trace.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload, each in a fresh process
(``repetition.py``), until ``--seconds`` have passed, and reports medians.
With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it adds one traced repetition and prints the per-layer
metrics.  Every repetition's outcome is checked, and its digest must equal
the first repetition's.  The last line of standard output is the result;
the line before it records the environment, the digest and every
repetition's figures.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPETITION = os.path.join(HERE, "repetition.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: Every workload runs in one host process, in-process, at ``jobs=1``.
JOBS = 1
#: Wall seconds after which a run stops waiting for its repetitions.
DEADLINE = 170


class RepetitionError(RuntimeError):
    """A repetition process failed or printed no result."""


def repetition(workload, seed, deadline, trace=False):
    """Run one repetition in a fresh process and return its result dict.

    The process is killed if it is still running at ``deadline``
    (a ``time.monotonic`` value).
    """
    command = [
        sys.executable, REPETITION, "--workload", workload,
        "--seed", str(seed),
    ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(
            f"repetition still running after {DEADLINE} s"
        ) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepetitionError(
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(reps):
    """End-to-end values: medians over the untraced repetitions."""
    return {
        key: statistics.median(rep[key] for rep in reps)
        for key in ("setup_s", "run_s", "peak_rss_mib")
    }


def per_layer(reps, traced):
    """Per-layer values of the traced repetition, plus two ratios."""
    layers = traced["layers"]
    values = dict(traced["counters"])
    values["cohort.placements"] = layers["placements"]
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = layers["run"].get(layer, 0.0)
        values[f"{layer}.setup_s"] = layers["setup"].get(layer, 0.0)
        values[f"{layer}.calls"] = layers["calls"].get(layer, 0)
    good = sum(arm["good"] for arm in traced["arms"])
    failed = sum(arm["failed"] for arm in traced["arms"])
    values["failed_share"] = failed / max(1, good + failed)
    run_s = statistics.median(rep["run_s"] for rep in reps)
    values["sim.events_per_s"] = values["sim.events"] / run_s
    values["trace.overhead"] = traced["run_s"] / run_s
    return values


def verify(reps):
    """(attempted arm runs, failed arm runs, problem descriptions)."""
    expected = [arm["digest"] for arm in reps[0]["arms"]]
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        broken = {p.split(":", 1)[0] for p in rep["problems"]}
        problems += [f"repetition {index}: {p}" for p in rep["problems"]]
        for arm, digest in zip(rep["arms"], expected):
            attempted += 1
            mismatch = arm["digest"] != digest
            if mismatch:
                problems.append(
                    f"repetition {index}: {arm['arm']}: outcome digest "
                    f"{arm['digest']} != {digest}"
                )
            if mismatch or arm["arm"] in broken:
                failed += 1
    return attempted, failed, problems


def environment():
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "jobs": JOBS,
    }


def main(argv=None):
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE
    try:
        reps = []
        while not reps or time.monotonic() - started < args.seconds:
            reps.append(repetition(args.workload, args.seed, deadline))
        traced = (
            repetition(args.workload, args.seed, deadline, trace=True)
            if args.trace else None
        )
    except RepetitionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = verify(reps + ([traced] if traced else []))
    if traced:
        values, wanted = per_layer(reps, traced), spec["per_layer"]
    else:
        values, wanted = end_to_end(reps), spec["end_to_end"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "digest": reps[0]["digest"],
        "arm_digests": {a["arm"]: a["digest"] for a in reps[0]["arms"]},
        "process_deaths": reps[0]["deaths"],
        "problems": problems,
        "repetitions": [
            {key: rep[key] for key in
             ("setup_s", "run_s", "run_wall_s", "peak_rss_mib")}
            for rep in reps
        ],
    }
    if traced:
        detail["traced_run_s"] = traced["run_s"]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
