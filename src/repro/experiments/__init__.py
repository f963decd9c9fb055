"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``run(seed=0, scale="bench", jobs=1)``, returning
``(ExperimentResult, outcomes)``, and one ``SCALES`` table holding the
only sizes it runs at: ``quick`` (a fast smoke run), ``bench`` (what its
benchmark records in ``benchmarks/results/``) and ``full`` (paper scale).
``jobs`` fans its independent trials across worker processes with output
identical to ``jobs=1``.  The availability arithmetic has no sizes and
renders the same table at every scale.  The result's ``render()`` prints
rows/series mirroring the paper's presentation.  ``EXPERIMENTS.md``
records paper-versus-measured values.

| Experiment | Module |
|---|---|
| Table 1 (workload mix)                | :mod:`repro.experiments.table1` |
| Table 2 (fault → reboot level)        | :mod:`repro.experiments.table2` |
| Table 3 (recovery times)              | :mod:`repro.experiments.table3` |
| Table 4 (>8 s requests at 2× load)    | :mod:`repro.experiments.table4` |
| Table 5 (fault-free performance)      | :mod:`repro.experiments.table5` |
| Table 6 (Retry-After masking)         | :mod:`repro.experiments.table6` |
| Figure 1 (Taw: restart vs µRB)        | :mod:`repro.experiments.figure1` |
| Figure 2 (functional disruption)      | :mod:`repro.experiments.figure2` |
| Figure 3 (failover, normal load)      | :mod:`repro.experiments.figure3` |
| Figure 4 (response time, 2× load)     | :mod:`repro.experiments.figure4` |
| Figure 5 (lax detection)              | :mod:`repro.experiments.figure5` |
| Figure 6 (microrejuvenation)          | :mod:`repro.experiments.figure6` |
| §5.3/§6.1 six-nines arithmetic        | :mod:`repro.experiments.availability` |
| Chaos: seed vs hardened pipeline      | :mod:`repro.experiments.chaos` |
| Prediction: reactive vs proactive µRB | :mod:`repro.experiments.health_prediction` |
| Pathdiag: stale map vs path analysis  | :mod:`repro.experiments.path_diagnosis` |
| Megascale: 1M sessions, 128 shards    | :mod:`repro.experiments.megascale` |
| Storm: K-shard storm, elastic reshard | :mod:`repro.experiments.storm` |
"""

from repro.experiments.common import ExperimentResult, SingleNodeRig

__all__ = ["ExperimentResult", "SingleNodeRig"]
