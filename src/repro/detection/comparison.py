"""The comparison-based failure detector (§4).

"The second fault detector submits in parallel each request to the
application instance we are injecting faults into, as well as to a
separate, known-good instance on another machine.  It then compares the
result of the former to the 'truth' provided by the latter, flagging any
differences as failures. ... Certain tweaks were required to account for
timing-related nondeterminism."

Our tweaks: comparisons are restricted to a per-operation whitelist of
stable payload fields (freshly-generated entity ids, ratings, and counts
drift between the instances once any write diverges), and the detector
maintains a cookie translation table because the shadow instance issues its
own session cookies.
"""

from repro.appserver.http import HttpRequest
from repro.core.recovery_manager import FailureKind

#: Operation → payload fields that must match the known-good instance.
COMPARABLE_FIELDS = {
    "HomePage": ("static",),
    "Browse": ("static",),
    "Help": ("static",),
    "LoginForm": ("static",),
    "RegisterUserForm": ("static",),
    "SellItemForm": ("static",),
    "Authenticate": ("user_id",),
    # Logout and AboutMe are compared on structure/status only for freshly
    # registered accounts: the two instances legitimately assign different
    # user ids once any write has diverged.
    "Logout": (),
    "RegisterNewUser": (),
    "BrowseCategories": ("categories",),
    "BrowseRegions": ("regions",),
    "ViewItem": ("item_id", "price"),
    "ViewPastAuctions": ("old_item_ids",),
    "ViewUserInfo": ("user_id", "nickname"),
    "ViewBidHistory": ("item_id",),
    "AboutMe": (),  # self-referential identity fields drift for fresh users
    "MakeBid": ("item_id",),
    "CommitBid": ("accepted",),
    "DoBuyNow": ("item_id",),
    "CommitBuyNow": ("item_id",),
    "RegisterNewItem": ("name",),
    "SearchItemsByCategory": (),
    "SearchItemsByRegion": (),
    "LeaveUserFeedback": ("to_user_id",),
    "CommitUserFeedback": ("to_user_id",),
}


class ComparisonDetector:
    """Replays requests against a known-good shadow system."""

    def __init__(self, shadow_system):
        self.shadow = shadow_system
        self._cookie_map = {}
        self.mismatches = 0
        self.checks = 0

    def check(self, request, response):
        """Generator: compare ``response`` against the shadow's answer.

        Returns a FailureKind (COMPARISON_MISMATCH) or None.  Must be
        driven from a simulated process (it issues the shadow request).
        """
        self.checks += 1
        shadow_request = HttpRequest(
            url=request.url,
            operation=request.operation,
            params=dict(request.params),
            cookie=self._cookie_map.get(request.cookie),
            idempotent=request.idempotent,
            client_id=request.client_id,
        )
        shadow_response = yield self.shadow.server.handle_request(shadow_request)

        # Learn the shadow's cookie for this client's session.
        main_cookie = (response.payload or {}).get("cookie")
        shadow_cookie = (shadow_response.payload or {}).get("cookie")
        if main_cookie and shadow_cookie:
            self._cookie_map[main_cookie] = shadow_cookie

        if self._differs(request.operation, response, shadow_response):
            self.mismatches += 1
            self.shadow.kernel.trace.publish(
                "detector.mismatch",
                operation=request.operation,
                url=request.url,
            )
            return FailureKind.COMPARISON_MISMATCH
        return None

    def _differs(self, operation, response, truth):
        if getattr(response, "network_error", False) != getattr(
            truth, "network_error", False
        ):
            return True
        if int(response.status) != int(truth.status):
            return True
        fields = COMPARABLE_FIELDS.get(operation, ())
        payload = response.payload or {}
        truth_payload = truth.payload or {}
        return any(payload.get(f) != truth_payload.get(f) for f in fields)
