"""The benchmark suite's one gate path.

Every benchmark that gates a number or records one in a ``BENCH_*.json``
file at the repository root goes through this module.  It owns:

* the two switches: ``REPRO_BENCH_GATE`` (gates on unless set to ``""``
  or ``"0"``) and ``REPRO_BENCH_REBASELINE`` (off unless set to something
  other than ``""`` or ``"0"``);
* the recorded baseline a regression is judged against (:func:`baseline`,
  which reads nothing while rebaselining);
* writing a section into a BENCH file (:func:`record`), in one layout and
  without touching the file's other sections;
* the one regression bound, :data:`MAX_REGRESSION`, applied in either
  direction by :func:`at_most` and :func:`at_least`.

A benchmark judges first and records last, so a run that fails a check
leaves the committed baseline as it was.  ``benchmarks/README.md``
("Gates") lists every gate and section.
"""

import json
import os
from pathlib import Path

#: How far a gated metric may move past its recorded baseline.
MAX_REGRESSION = 0.10

#: BENCH files live at the repository root; names resolve against it.
ROOT = Path(__file__).resolve().parent.parent


def _switch(name, default):
    return os.environ.get(name, default) not in ("", "0")


def enabled():
    """Whether gates bind (``REPRO_BENCH_GATE``, on by default)."""
    return _switch("REPRO_BENCH_GATE", "1")


def rebaselining():
    """Whether this run re-records (``REPRO_BENCH_REBASELINE``)."""
    return _switch("REPRO_BENCH_REBASELINE", "")


def _read(path):
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def baseline(bench, *keys):
    """The recorded value at ``keys`` in ``bench``, or None.

    None when rebaselining, or when the file, a section or the metric is
    absent: there is nothing to compare against then.
    """
    path = ROOT / bench
    if rebaselining() or not path.exists():
        return None
    value = _read(path)
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def record(bench, payload, *section):
    """Write ``payload`` at ``section`` of ``bench`` (the whole file if none).

    Reads the file as it is, whatever the switches say, so sibling
    sections survive a rebaseline.
    """
    path = ROOT / bench
    report = payload
    if section:
        report = _read(path)
        node = report
        for key in section[:-1]:
            node = node.setdefault(key, {})
        node[section[-1]] = payload
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _fail(metric, value, recorded, relation, bound):
    raise AssertionError(
        f"{metric} regressed: {value} vs recorded {recorded} (bound "
        f"{relation} {bound:.10g}, {MAX_REGRESSION:.0%} allowed); "
        "re-record with REPRO_BENCH_REBASELINE=1 if intentional"
    )


def at_most(metric, value, recorded):
    """Fail when a count or phase exceeds ``recorded`` × 1.1."""
    if recorded is None:
        return
    bound = recorded * (1 + MAX_REGRESSION)
    if not value <= bound:
        _fail(metric, value, recorded, "<=", bound)


def at_least(metric, value, recorded):
    """Fail when a throughput falls below ``recorded`` × 0.9."""
    if recorded is None:
        return
    bound = recorded * (1 - MAX_REGRESSION)
    if not value >= bound:
        _fail(metric, value, recorded, ">=", bound)
