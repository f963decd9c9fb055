"""Statistical fault localization from observed request paths.

The paper's recovery manager diagnoses from a *static* URL-prefix →
call-path map and admits the result is "simplistic ... often yields false
positives" (§4).  This package upgrades diagnosis from assumed topology to
measured topology: the span layer (:mod:`repro.telemetry.spans`) records
which components each request actually entered, its ``request.end``
record carries them, and the :class:`PathAnalyzer` — a bus consumer of
that record, live, and the ranking behind ``repro paths`` offline —
localizes faults Pinpoint-style, by statistically contrasting the
component membership of failed vs. successful paths.
"""

from repro.diagnosis.path_analysis import PathAnalyzer, chi_square_2x2
from repro.diagnosis.report import PathSummary

__all__ = ["PathAnalyzer", "PathSummary", "chi_square_2x2"]
