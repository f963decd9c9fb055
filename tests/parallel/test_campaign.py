"""Tests for the parallel campaign runner (repro.parallel)."""

import pytest

from repro.parallel import (
    CampaignError,
    TrialResult,
    TrialSpec,
    available_jobs,
    campaign_summary,
    derive_trial_seed,
    normalize_jobs,
    run_arms,
    run_campaign,
)
from repro.parallel.demo import simulate_trial
from repro.parallel.worker import TaskResolutionError, resolve_task, run_trial

DEMO = "repro.parallel.demo:simulate_trial"
SPECS = [
    TrialSpec(task=DEMO, kwargs={"clients": 3, "requests": 5},
              tag=f"trial-{i}", seed=i)
    for i in range(6)
]


# --- task resolution ---------------------------------------------------------

def test_resolve_task_returns_the_callable():
    assert resolve_task(DEMO) is simulate_trial


def test_resolve_task_supports_dotted_attributes():
    fn = resolve_task("repro.parallel.campaign:TrialSpec.__init__")
    assert callable(fn)


@pytest.mark.parametrize("bad", [
    "no-colon", ":fn", "module:", "repro.parallel.demo:nope",
    "no.such.module:fn", "repro.parallel.demo:__doc__",
])
def test_resolve_task_rejects_bad_addresses(bad):
    with pytest.raises(TaskResolutionError):
        resolve_task(bad)


# --- envelopes ---------------------------------------------------------------

def test_run_trial_injects_seed_and_times_the_trial():
    result = run_trial((3, SPECS[3]))
    assert result.ok
    assert result.index == 3 and result.tag == "trial-3" and result.seed == 3
    assert result.value["seed"] == 3
    assert result.elapsed_s > 0 and result.pid > 0


def test_run_trial_captures_exceptions_in_the_envelope():
    spec = TrialSpec(task=DEMO, kwargs={"clients": "not-a-number"}, tag="boom")
    result = run_trial((0, spec))
    assert not result.ok
    assert result.value is None
    assert "TypeError" in result.error
    assert "Traceback" in result.traceback


def test_campaign_check_raises_with_worker_traceback():
    bad = TrialSpec(task="repro.parallel.demo:missing", tag="gone")
    with pytest.raises(CampaignError) as excinfo:
        run_campaign([SPECS[0], bad], jobs=1)
    message = str(excinfo.value)
    assert "trial 1" in message and "gone" in message
    assert "TaskResolutionError" in message


def test_campaign_check_false_returns_failed_envelopes():
    bad = TrialSpec(task="repro.parallel.demo:missing", tag="gone")
    results = run_campaign([bad, SPECS[0]], jobs=1, check=False)
    assert [r.ok for r in results] == [False, True]
    assert campaign_summary(results)["errors"] == 1


# --- ordering and determinism ------------------------------------------------

def test_results_come_back_in_spec_order():
    for jobs in (1, 2):
        results = run_campaign(SPECS, jobs=jobs)
        assert [r.index for r in results] == list(range(len(SPECS)))
        assert [r.tag for r in results] == [s.tag for s in SPECS]


def test_parallel_values_identical_to_sequential():
    # The tentpole contract: jobs=N output is byte-identical to jobs=1.
    sequential = [r.value for r in run_campaign(SPECS, jobs=1)]
    parallel = [r.value for r in run_campaign(SPECS, jobs=2)]
    assert parallel == sequential


def test_run_arms_runs_one_tagged_seeded_trial_per_arm():
    arms = (3, 1, 2)
    for jobs in (1, 2):
        outcomes = run_arms(DEMO, arms, {"requests": 4}, seed=5, jobs=jobs,
                            key="clients")
        assert list(outcomes) == list(arms)
        for clients, value in outcomes.items():
            assert value == simulate_trial(seed=5, clients=clients,
                                           requests=4)


def test_run_arms_specs_match_a_hand_built_campaign(monkeypatch):
    import repro.parallel.campaign as campaign

    seen = []

    def fake_run_campaign(specs, jobs=1):
        seen.append((list(specs), jobs))
        return [TrialResult(i, s.tag, s.seed, s.tag.upper(), 0.0, 0)
                for i, s in enumerate(specs)]

    monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)
    outcomes = campaign.run_arms("m:f", ("a", "b"), {"x": 1}, 9, jobs=3)
    assert outcomes == {"a": "A", "b": "B"}
    assert seen == [([
        TrialSpec(task="m:f", kwargs={"arm": "a", "x": 1}, tag="a", seed=9),
        TrialSpec(task="m:f", kwargs={"arm": "b", "x": 1}, tag="b", seed=9),
    ], 3)]


def test_identical_seed_identical_digest():
    a = simulate_trial(seed=7, clients=4, requests=6)
    b = simulate_trial(seed=7, clients=4, requests=6)
    c = simulate_trial(seed=8, clients=4, requests=6)
    assert a == b
    assert c["log_digest"] != a["log_digest"]


def test_single_spec_campaign_stays_in_process():
    import os

    results = run_campaign([SPECS[0]], jobs=8)
    assert results[0].pid == os.getpid()


# --- seeds and job counts ----------------------------------------------------

def test_derive_trial_seed_is_stable_and_tag_sensitive():
    assert derive_trial_seed(0, "a") == derive_trial_seed(0, "a")
    assert derive_trial_seed(0, "a") != derive_trial_seed(0, "b")
    assert derive_trial_seed(0, "a") != derive_trial_seed(1, "a")
    assert 0 <= derive_trial_seed(0, "a") < 2**64


def test_normalize_jobs_contract():
    assert normalize_jobs(4) == 4
    assert normalize_jobs(1) == 1
    cores = available_jobs()
    assert normalize_jobs(0) == cores
    assert normalize_jobs(None) == cores
    assert normalize_jobs(-3) == cores
    assert cores >= 1


def test_campaign_summary_shape():
    summary = campaign_summary(run_campaign(SPECS[:3], jobs=1))
    assert summary["trials"] == 3
    assert summary["errors"] == 0
    assert summary["workers"] == 1
    assert summary["total_trial_s"] >= summary["max_trial_s"] > 0


def test_empty_campaign():
    assert run_campaign([], jobs=4) == []
    summary = campaign_summary([])
    assert summary == {"trials": 0, "errors": 0, "workers": 0,
                       "total_trial_s": 0.0, "max_trial_s": 0.0}
