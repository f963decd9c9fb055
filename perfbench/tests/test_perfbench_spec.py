"""BENCHMARK.json is well formed and every metric it names is produced."""

import json
import os
import re

import run
import tracer as tracing

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def test_names_use_only_letters_digits_and_separators():
    spec = load_spec()
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in spec[section]
    ]
    bad = [name for name in names if not NAME.match(name)]
    assert not bad
    assert len(names) == len(set(names))


def test_workloads_match_the_spec():
    import workloads

    names = [w["name"] for w in load_spec()["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)


def test_every_layer_has_self_time_and_calls():
    names = {m["name"] for m in load_spec()["per_layer"]}
    for layer in tracing.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= names


def _repetition(run_s):
    counters = dict.fromkeys(
        ["sim.events", "process_deaths", "workload.requests",
         "workload.retries", "cohort.ticks", "cohort.sessions_migrated",
         "cluster.routed", "cluster.failed_over", "cluster.shed",
         "appserver.invocations", "appserver.failed_invocations",
         "core.reports", "core.actions", "core.errored_actions",
         "faults.injected", "telemetry.published", "telemetry.dropped"],
        1,
    )
    return {
        "setup_s": 0.5, "run_s": run_s, "peak_rss_mib": 60.0,
        "arms": [{"arm": "a", "digest": "d", "good": 9, "failed": 1}],
        "counters": counters,
        "problems": [],
        "layers": {"run": {}, "setup": {}, "calls": {}, "placements": 0},
    }


def test_every_metric_in_the_spec_is_computed():
    spec = load_spec()
    reps = [_repetition(2.0), _repetition(4.0), _repetition(3.0)]
    untraced = run.end_to_end(reps)
    assert {m["name"] for m in spec["end_to_end"]} <= set(untraced)
    assert untraced["run_s"] == 3.0
    traced = run.per_layer(reps, _repetition(4.5))
    assert {m["name"] for m in spec["per_layer"]} <= set(traced)
    assert traced["trace.overhead"] == 1.5
    assert traced["failed_share"] == 0.1


def test_a_digest_mismatch_fails_the_arm_by_name():
    reps = [_repetition(1.0), _repetition(1.0)]
    reps[1]["arms"][0]["digest"] = "other"
    attempted, failed, problems = run.verify(reps)
    assert (attempted, failed) == (2, 1)
    assert problems == ["repetition 1: a: outcome digest other != d"]
