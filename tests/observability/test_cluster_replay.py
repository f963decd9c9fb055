"""Replay-vs-live equivalence over a second storm timeline (seed 11).

:mod:`tests.observability.test_live_replay` covers every consumer at
seed 0; this pins the predictive chain and the storm correlation on an
independent storm draw: same stitched incidents and MTTR phases, the
same health score for every component the replay can see, and the same
meta-incident — elastic replacements included.
"""

import pytest

from repro.experiments.megascale import URL_PATH_MAP
from repro.experiments.storm import StormRig
from repro.faults.chaos import StormSpec
from repro.observability import (
    ClusterIncidentCorrelator,
    ShardView,
    predictive_chain,
    replay,
)
from repro.telemetry import capture_to_jsonl, read_timeline


@pytest.fixture(scope="module")
def storm_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "storm.jsonl"
    with capture_to_jsonl(path):
        rig = StormRig(
            seed=11, n_sessions=2000, n_shards=4, duration=90.0,
            storm=True, elastic=True, storm_spec=StormSpec.smoke(),
        )
        outcome = rig.run()
    [(_bus, consumers, end)] = replay(
        read_timeline(path),
        lambda: predictive_chain(URL_PATH_MAP) + [ShardView()],
    )
    consumers[0].finalize()
    return rig, outcome, consumers, end


def test_replayed_incidents_match_live(storm_run):
    rig, outcome, (tracker, _hub, _registry, view), _end = storm_run
    assert [i.to_dict() for i in tracker.incidents] == [
        i.to_dict() for i in rig.incident_tracker.incidents
    ]
    assert tracker.incidents
    metas = ClusterIncidentCorrelator().correlate(
        tracker.incidents,
        replacements=view.replacements,
        migrations=view.migrations,
        storm=view.storm,
    )
    assert [m.to_dict() for m in metas] == outcome["cluster"]["meta_incidents"]
    assert metas[0].replacements


def test_replayed_health_scores_match_live(storm_run):
    rig, _outcome, (_tracker, _hub, registry, _view), end = storm_run
    # Scores decay with time: score the live registry at the replay's end.
    live = {
        (row["server"], row["component"]): row
        for row in rig.health_registry.snapshot(end)
    }
    rows = registry.snapshot(end)
    assert rows, "replay produced no health rows"
    for row in rows:  # live also lists every pre-registered component
        assert row == live[(row["server"], row["component"])]
    # The storm left a mark: at least one struck-shard component is
    # scored below perfect in both views.
    degraded = [row for row in rows if row["score"] < 100.0]
    assert degraded
    assert all(str(row["server"]).startswith("shard") for row in degraded)
