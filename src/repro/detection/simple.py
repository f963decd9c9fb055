"""The simple, fast client-side failure detector (§4).

"If a client encounters a network-level error ... or an HTTP 4xx or 5xx
error, then it flags the response as faulty.  If no such errors occur, the
received HTML is searched for keywords indicative of failure.  Finally, the
detection of an application-specific problem can also mark the response as
faulty (such problems include being prompted to log in when already logged
in, encountering negative item IDs in the reply HTML, etc.)"
"""

from repro.core.recovery_manager import FailureKind

#: Keywords whose presence in a 200 page indicates incorrectly-handled
#: failures (§4).
FAILURE_KEYWORDS = ("exception", "failed", "error")

#: Body signatures of memory exhaustion; routed to the RM's
#: memory-attribution diagnosis rather than call-path scoring.
MEMORY_SIGNATURES = ("heap exhausted", "allocation of", "outofmemory")

#: Payload keys whose values are entity ids (negative values are the
#: paper's canonical application-specific red flag).
ID_KEYS = ("item_id", "bid_id", "buy_id", "user_id", "feedback_id", "to_user_id")

#: Payload keys whose values are lists of entity ids.
ID_LIST_KEYS = ("item_ids", "bid_ids", "old_item_ids")


class SimpleDetector:
    """Stateless response classifier; returns a FailureKind or None."""

    def evaluate(self, request, response, believes_logged_in=False):
        """Classify one response.  None means "looks healthy"."""
        if response is None:
            return FailureKind.TIMEOUT
        if getattr(response, "network_error", False):
            return FailureKind.NETWORK
        body = (response.body or "").lower()
        # Plain loops rather than any() over a generator: this runs once
        # per request.
        if response.is_error_status:
            for signature in MEMORY_SIGNATURES:
                if signature in body:
                    return FailureKind.RESOURCE_EXHAUSTION
            return FailureKind.HTTP_ERROR
        for keyword in FAILURE_KEYWORDS:
            if keyword in body:
                return FailureKind.KEYWORD
        return self._application_specific(response, believes_logged_in)

    def _application_specific(self, response, believes_logged_in):
        payload = response.payload
        if not payload:
            return None
        if payload.get("login_required") and believes_logged_in:
            return FailureKind.APP_SPECIFIC
        for key in ID_KEYS:
            value = payload.get(key)
            if isinstance(value, int) and value < 0:
                return FailureKind.APP_SPECIFIC
        for key in ID_LIST_KEYS:
            for value in payload.get(key) or ():
                if isinstance(value, int) and value < 0:
                    return FailureKind.APP_SPECIFIC
        return None
