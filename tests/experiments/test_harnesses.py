"""Smoke tests for the experiment harnesses (scaled-down parameters).

The full qualitative assertions live in benchmarks/; these tests verify the
harness plumbing — result structure, rendering, and the core directional
claims — at sizes that keep the unit-test suite fast.
"""

import pytest

from repro.experiments import availability, figure5, table1
from repro.experiments.common import ExperimentResult, SingleNodeRig


class TestExperimentResult:
    def test_render_contains_rows_and_notes(self):
        result = ExperimentResult(
            name="X", paper_reference="Table 9",
            headers=("a", "b"), rows=[(1, 2), (3, 4)],
            notes=["hello"],
        )
        text = result.render()
        assert "Table 9" in text
        assert "hello" in text
        assert "3" in text

    def test_render_mentions_series(self):
        result = ExperimentResult(name="X", paper_reference="F",
                                  series={"s": {1: 2}})
        assert "series s" in result.render()


class TestSingleNodeRig:
    def test_rig_serves_load_without_failures(self):
        rig = SingleNodeRig(n_clients=30, with_recovery_manager=False)
        rig.start()
        rig.run_for(120.0)
        assert rig.metrics.failed_requests == 0
        assert rig.metrics.good_requests > 100

    def test_failures_in_last_window(self):
        rig = SingleNodeRig(n_clients=30, with_recovery_manager=False)
        rig.start()
        rig.run_for(60.0)
        rig.injector.inject_transient_exception("BrowseCategories")
        rig.run_for(60.0)
        assert rig.failures_in_last(60.0) > 0

    def test_shadow_tracks_main(self):
        rig = SingleNodeRig(
            n_clients=20, with_recovery_manager=False,
            with_comparison_detector=True,
        )
        rig.start()
        rig.run_for(90.0)
        # No faults: the comparison detector never fires.
        assert rig.metrics.failed_requests == 0

    def test_resync_shadow_copies_tables(self):
        rig = SingleNodeRig(
            n_clients=5, with_recovery_manager=False,
            with_comparison_detector=True,
        )
        rig.system.database.insert("items", {
            "id": 99_999, "name": "only-on-main", "seller_id": 1,
            "category_id": 1, "region_id": 1, "initial_price": 1,
            "max_bid": 1, "nb_of_bids": 0, "quantity": 1,
            "buy_now_price": 2,
        })
        rig.resync_shadow()
        assert rig.shadow.database.read("items", 99_999) is not None


class TestTable1Harness:
    def test_mix_lands_near_paper(self):
        result, _measured = table1.run(scale="quick")
        measured = {row[0]: row[2] for row in result.rows}
        for category, paper_pct in (
            ("read-only DB access", 32),
            ("session state init/delete", 23),
        ):
            assert abs(measured[category] - paper_pct) < 4.0


class TestAvailabilityHarness:
    def test_paper_arithmetic(self):
        result, details = availability.run()
        allowed = {row[0]: row[2] for row in result.rows}
        assert allowed["JVM restart + failover"] == 23
        assert allowed["microreboot, no failover"] == 683

    def test_measured_inputs_flow_through(self):
        result, details = availability.run(
            measured_failed_per_recovery={"custom scheme": 533}
        )
        assert result.rows[0][0] == "custom scheme"
        budget = details["custom scheme"]["failure_budget"]
        assert result.rows[0][2] == int(budget / 533)


class TestFigure5Analytics:
    def test_false_positive_series_shapes(self):
        restart, urb, tolerable = figure5.false_positive_series(3917, 78)
        assert restart[0] == 3917
        assert urb[0] == 78
        assert urb[10] == 11 * 78
        # The paper's 98%: 49 useless µRBs still beat one restart.
        assert tolerable == pytest.approx(0.98, abs=0.005)

    def test_detection_crossover(self):
        restart = {0.0: 1000, 10.0: 1200}
        urb = {0.0: 10, 10.0: 300, 20.0: 900, 40.0: 1500}
        crossover, budget = figure5.detection_crossover(restart, urb)
        assert budget == 1000
        assert crossover == 20.0
