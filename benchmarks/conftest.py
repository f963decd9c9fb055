"""Benchmark harness support.

Each benchmark regenerates one of the paper's tables or figures.  They are
macro-benchmarks — whole fault-injection campaigns, not microseconds — so
every one runs exactly once (``benchmark.pedantic(rounds=1)``); the
measured value is the wall-clock cost of reproducing that experiment.

Rendered tables are written to ``benchmarks/results/`` so the regenerated
rows can be diffed against the paper side by side, and key measured numbers
are attached to the benchmark's ``extra_info``.

Run with::

    pytest benchmarks/ --benchmark-only

Each paper benchmark runs its experiment's ``bench`` scale, which is also
what ``python -m repro run <exp>`` runs with no size flag, so the CLI
prints what ``benchmarks/results/`` holds.  Set ``REPRO_FULL=1`` to run
the ``full`` (paper) scale instead.  The sizes live only in each
experiment module's ``SCALES`` table.
"""

import os
import resource
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale():
    """The experiment scale to run: ``"full"`` under ``REPRO_FULL=1``,
    else ``"bench"``."""
    full = os.environ.get("REPRO_FULL", "") not in ("", "0")
    return "full" if full else "bench"


def campaign_jobs():
    """Worker-process count for campaign-shaped benchmarks.

    ``REPRO_JOBS=N`` fans each experiment's independent trials across N
    processes (``0`` = all cores), same contract as ``repro run --jobs``.
    Defaults to 1: sequential is the reference measurement.
    """
    value = os.environ.get("REPRO_JOBS", "").strip()
    return int(value) if value else 1


def peak_rss_mib():
    """This process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def total_requests(outcomes):
    """Good plus failed requests over every arm of a scenario's outcomes."""
    return sum(
        o["good_requests"] + o["failed_requests"] for o in outcomes.values()
    )


@pytest.fixture
def record_result():
    """Write a rendered experiment result for later inspection."""

    def _record(name, result):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")
        return path

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run a macro-benchmark exactly once and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
