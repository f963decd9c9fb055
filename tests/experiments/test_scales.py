"""Every experiment's sizes live in one ``SCALES`` table.

``repro run`` and the benchmarks pick a row by name, so each module has
the same three rows and the same ``run(seed, scale, jobs)`` signature,
and sizes reach campaign workers through the trial kwargs.
"""

import inspect
from types import SimpleNamespace

from repro.cli import EXPERIMENTS
from repro.experiments import (
    availability,
    cluster_common,
    figure3,
    figure4,
    table4,
)


def test_every_experiment_has_one_scale_table():
    for name, (module, _description) in EXPERIMENTS.items():
        if module is availability:
            assert not hasattr(module, "SCALES")
            continue
        assert set(module.SCALES) == {"quick", "bench", "full"}, name
    assert table4.SCALES is figure4.SCALES


def test_every_run_takes_seed_scale_and_jobs():
    for name, (module, _description) in EXPERIMENTS.items():
        expected = {"seed": 0, "scale": "bench", "jobs": 1}
        if module is availability:
            expected["measured_failed_per_recovery"] = None
        parameters = inspect.signature(module.run).parameters
        assert {
            key: parameter.default for key, parameter in parameters.items()
        } == expected, name


def test_availability_renders_one_table_at_every_scale():
    renders = {
        availability.run(scale=scale)[0].render()
        for scale in ("quick", "bench", "full")
    }
    assert len(renders) == 1


def test_figure3_sweep_renders_the_same_at_jobs_2(monkeypatch):
    """The sweep is a campaign: a spawned worker gets its sizes from the
    trial kwargs, so a patched scale reaches it and jobs=2 ≡ jobs=1."""
    monkeypatch.setitem(
        figure3.SCALES, "quick",
        {"cluster_sizes": (2,), "clients_per_node": 5, "duration": 60.0},
    )
    sequential, outcomes = figure3.run(seed=0, scale="quick", jobs=1)
    parallel, _outcomes = figure3.run(seed=0, scale="quick", jobs=2)
    assert parallel.render() == sequential.render()
    assert [(o["n_nodes"], o["recovery"]) for o in outcomes] == [
        (2, "process-restart"), (2, "microreboot"),
    ]


def test_table4_reads_the_figure4_sweep_this_process_ran(monkeypatch):
    """Table 4 is a column of the Figure 4 sweep: a sweep already run with
    the same task, row contents, seed and jobs is not run again."""
    campaigns = []

    def campaign(specs, jobs):
        campaigns.append(jobs)
        return [
            SimpleNamespace(value={
                "n_nodes": spec.kwargs["n_nodes"],
                "recovery": spec.kwargs["recovery"],
                "series": {0: 0.1}, "peak_response_time": 0.1,
                "over_8s": len(campaigns),
            })
            for spec in specs
        ]

    monkeypatch.setattr(cluster_common, "run_campaign", campaign)
    monkeypatch.setattr(cluster_common, "_SWEEPS", {})
    row = {"cluster_sizes": (2,), "clients_per_node": 5,
           "stabilize": 10.0, "observe": 20.0}
    monkeypatch.setitem(figure4.SCALES, "quick", row)
    _figure, outcomes = figure4.run(seed=0, scale="quick")
    result, reused = table4.run(seed=0, scale="quick")
    assert reused == outcomes
    assert campaigns == [1]
    assert [measured for *_, measured in result.rows] == [1, 1]

    table4.run(seed=1, scale="quick")
    table4.run(seed=0, scale="quick", jobs=2)
    monkeypatch.setitem(figure4.SCALES, "quick", {**row, "observe": 30.0})
    table4.run(seed=0, scale="quick")
    assert campaigns == [1, 1, 2, 1]
