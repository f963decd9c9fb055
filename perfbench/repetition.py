"""One repetition of a workload, in a fresh process.

Usage: ``python3 perfbench/repetition.py --workload NAME --seed N
[--trace]``.  Builds and runs every arm of the workload once, checks each
arm's outcome, and prints one JSON object: host times per phase, peak
resident memory, the outcome digest, the program's own counters and, with
``--trace``, per-layer self times and boundary calls.  Exits non-zero when
the program under test cannot be imported from this checkout.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {SRC}: {exc}") from exc
    found = os.path.realpath(repro.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro imported from {found}, not from {SRC}")


def canonical(value):
    """JSON-ready copy of an outcome with string keys, for digesting."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def digest(value):
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _first_failure(kernel):
    """``Type: message at file:line`` of the kernel's first unhandled death."""
    if not kernel.unhandled_failures:
        return None
    exc = kernel.unhandled_failures[0].value
    where = ""
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        frame = frames[-1]
        path = os.path.relpath(frame.filename, os.path.join(SRC, "repro"))
        where = f" at {path}:{frame.lineno}"
    return f"{type(exc).__name__}: {exc}{where}"


def counters(arm):
    """The program's own counters for one finished arm."""
    rig = arm.rig
    kernel = rig.kernel
    metrics = rig.metrics
    balancer = rig.cluster.load_balancer
    rms = list(getattr(rig, "rms", ()))
    servers = {id(n.system.server): n.system.server for n in rig.cluster.nodes}
    servers.update((id(rm.server), rm.server) for rm in rms)
    containers = [
        c for server in servers.values() for c in server.containers.values()
    ]
    cohort = arm.cohort()
    actions = [a for rm in rms for a in rm.actions]
    return {
        "sim.events": kernel.events_processed,
        "process_deaths": kernel.unhandled_failure_count,
        "workload.requests": metrics.total_requests,
        "workload.retries": sum(
            op.retries for action in metrics.actions
            for op in action.operations
        ),
        "cohort.ticks": cohort.ticks_run if cohort else 0,
        "cohort.sessions_migrated": cohort.sessions_migrated if cohort else 0,
        "cluster.routed": balancer.requests_routed,
        "cluster.failed_over": balancer.requests_failed_over,
        "cluster.shed": balancer.requests_shed,
        "appserver.invocations": sum(c.invocation_count for c in containers),
        "appserver.failed_invocations": sum(
            c.failed_invocation_count for c in containers
        ),
        "core.reports": sum(
            int(rm.metrics.counter("rm.reports.received").value) for rm in rms
        ),
        "core.actions": len(actions),
        "core.errored_actions": sum(1 for a in actions if not a.ok),
        "faults.injected": arm.injected(),
        "telemetry.published": kernel.trace.published,
        "telemetry.dropped": kernel.trace.dropped,
    }


def repetition(workload, seed, trace):
    import_program()
    import workloads
    import tracer as tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    clock = time.process_time
    arms = workloads.WORKLOADS[workload]()
    result = {
        "arms": [], "setup_s": 0.0, "run_s": 0.0, "run_wall_s": 0.0,
        "counters": {}, "problems": [], "deaths": [],
    }
    for arm in arms:
        # Collect until a pass frees nothing: suspended generators of the
        # previous arm run their ``finally`` blocks when collected, which
        # leaves more garbage for a later pass.  Leftovers would make the
        # peak RSS depend on which arm's garbage happened to survive.
        while gc.collect():
            pass
        start = tracer.begin("setup") if tracer else clock()
        arm.build(seed)
        end = tracer.end() if tracer else clock()
        result["setup_s"] += end - start

        wall = time.perf_counter()
        start = tracer.begin("run") if tracer else clock()
        outcome = arm.run()
        end = tracer.end() if tracer else clock()
        result["run_s"] += end - start
        result["run_wall_s"] += time.perf_counter() - wall

        result["arms"].append({
            "arm": arm.name,
            "digest": digest(outcome),
            "good": outcome["good_requests"],
            "failed": outcome["failed_requests"],
        })
        result["problems"] += [f"{arm.name}: {p}" for p in arm.check(outcome)]
        death = _first_failure(arm.rig.kernel)
        if death:
            result["deaths"].append(f"{arm.name}: {death}")
        for name, value in counters(arm).items():
            result["counters"][name] = result["counters"].get(name, 0) + value
        arm.rig = None
    if tracer:
        uninstall()
        result["layers"] = {
            "run": tracer.layer_times("run"),
            "setup": tracer.layer_times("setup"),
            "calls": tracer.calls,
            "placements": tracer.edges.get(("cohort", "sharding"), 0),
        }
    result["digest"] = digest([a["digest"] for a in result["arms"]])
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = repetition(args.workload, args.seed, args.trace)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
