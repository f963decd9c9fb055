"""End-to-end fault localization: spans → ``request.end`` →
PathAnalyzer → RecoveryManager.

The acceptance scenario for path-analysis diagnosis: a transient exception
seeded into one EJB, with the RM's static URL map *stale* (it predates the
commit paths' dependency on the faulty bean).  Path analysis must pick the
faulty component as its top-ranked µRB target and recover with fewer
mis-targeted actions than static-map mode.
"""

import pytest

from repro.experiments.path_diagnosis import FAULTY, run_one_mode
from repro.experiments.common import SingleNodeRig


@pytest.fixture(scope="module")
def outcomes():
    return {
        mode: run_one_mode(
            mode, seed=0, n_clients=100, inject_at=40.0, duration=240.0
        )
        for mode in ("static-map", "path-analysis")
    }


def test_path_analysis_top_ranks_the_faulty_component(outcomes):
    assert outcomes["path-analysis"]["top_ranked"] == FAULTY


def test_path_analysis_first_urb_cures(outcomes):
    o = outcomes["path-analysis"]
    assert o["cure_action"] == 1
    assert o["mis_targeted"] == 0
    assert o["diagnosis_modes"][0] == "path-analysis"
    assert o["actions"][0][1] == "ejb"
    assert FAULTY in o["actions"][0][2]


def test_static_map_mis_targets_under_a_stale_map(outcomes):
    static = outcomes["static-map"]
    path = outcomes["path-analysis"]
    assert static["mis_targeted"] > path["mis_targeted"]
    assert static["failed_requests"] > path["failed_requests"]
    # The stale map never names the faulty bean, so any EJB candidate the
    # static mode does find is by definition a wrong target.
    for _t, level, target in static["actions"]:
        if level == "ejb":
            assert FAULTY not in target


def test_static_default_keeps_span_layer_disabled():
    """Table 1-4 rigs must not pay span overhead: default diagnosis keeps
    the collector disabled and wires no analyzer into the RM."""
    rig = SingleNodeRig(n_clients=1)
    assert rig.recovery_manager.diagnosis == "static-map"
    assert rig.recovery_manager.path_analyzer is None
    assert not rig.span_collector.enabled


def test_path_analysis_rig_subscribes_its_analyzer_to_its_bus():
    """Path-analysis diagnosis turns the span layer and the bus on, and the
    analyzer the RM ranks with reads ``request.end`` off that bus."""
    rig = SingleNodeRig(n_clients=1, diagnosis="path-analysis")
    assert rig.span_collector.enabled and rig.kernel.trace.enabled
    assert rig.path_analyzer is not None
    assert rig.recovery_manager.path_analyzer is rig.path_analyzer
    rig.kernel.trace.publish("request.end", ok=False,
                             calls=((None, "EbidWAR"),), failed_in=())
    assert rig.path_analyzer.recorded == 1


def test_rm_falls_back_to_static_before_enough_paths():
    """With no observed paths the analyzer is not ready; the diagnosis
    audit must show the static fallback, not a path-analysis pick."""
    rig = SingleNodeRig(n_clients=30, diagnosis="path-analysis")
    # Starve the analyzer: untraced requests end without calls, which it
    # skips.
    rig.span_collector.enabled = False
    rig.injector.inject_transient_exception("BrowseCategories")
    rig.start()
    rig.run_for(60.0)
    assert rig.recovery_manager.actions, "RM never acted"
    assert rig.recovery_manager.diagnosis_log
    assert rig.path_analyzer.recorded == 0
    assert rig.recovery_manager.diagnosis_log[0]["mode"] == "static-fallback"
