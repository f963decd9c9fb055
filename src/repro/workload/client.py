"""The emulated client population (§4).

Each client is a simulated process looping through user sessions: log in
(or register), perform a few actions with exponential think times between
URL clicks, log out (or abandon).  Clients run the simple failure detector
on every response — mimicking the "client-like end-to-end monitors" WAN
services deploy — optionally mirror requests through the comparison
detector, and report failures to the recovery manager.
"""

from repro.core.recovery_manager import FailureReport
from repro.detection.simple import SimpleDetector
from repro.ebid.descriptors import OPERATIONS, operation_url
from repro.workload.markov import ACTION_TEMPLATES, WorkloadProfile
from repro.workload.metrics import ActionRecord, OperationRecord, TawAccounting
from repro.appserver.http import (
    HttpRequest,
    HttpResponse,
    HttpStatus,
    status_key,
)

#: Retry-After retries a client makes per idempotent request (§6.2).
MAX_RETRIES = 3


class ParamSampler:
    """Plausible operation parameters for a generated dataset."""

    def __init__(self, dataset, rng):
        self.dataset = dataset
        self.rng = rng

    def item_id(self):
        return self.rng.randint(1, self.dataset.items)

    def category_id(self):
        return self.rng.randint(1, self.dataset.categories)

    def region_id(self):
        return self.rng.randint(1, self.dataset.regions)

    def other_user_id(self, not_this):
        candidate = self.rng.randint(1, self.dataset.users)
        if candidate == not_this:
            candidate = candidate % self.dataset.users + 1
        return candidate


class EmulatedClient:
    """One simulated human user."""

    def __init__(
        self,
        client_id,
        kernel,
        rng,
        frontend,
        dataset,
        metrics=None,
        profile=None,
        reporter=None,
        comparison=None,
    ):
        self.client_id = client_id
        self.kernel = kernel
        self.rng = rng
        self.frontend = frontend
        self.dataset = dataset
        self.metrics = metrics if metrics is not None else TawAccounting()
        self.profile = profile or WorkloadProfile()
        self.user_id = (client_id % dataset.users) + 1
        self.reporter = reporter
        self.detector = SimpleDetector()
        self.comparison = comparison
        self.sampler = ParamSampler(dataset, rng)

        self.cookie = None
        self.believes_logged_in = False
        self._session_lost = False
        self._registration_serial = 0

    # ------------------------------------------------------------------
    # The client process
    # ------------------------------------------------------------------
    def run(self):
        """Generator: live forever, session after session."""
        # Stagger start-up so the population does not click in lockstep.
        yield self.kernel.timeout(
            self.rng.uniform(0, 2 * self.profile.think_time_mean)
        )
        while True:
            # Sessions chain with ordinary think times (the per-operation
            # think before each click covers the inter-session gap), which
            # keeps the offered load at clients/(think+RT) — the Little's-
            # law calibration behind Table 5's ~72 req/s at 500 clients.
            yield from self.run_session()

    def run_session(self):
        """Generator: one user session (login → actions → logout)."""
        self.cookie = None
        self.believes_logged_in = False
        self._session_lost = False
        for action_name in self.profile.session_actions(self.rng):
            action = ActionRecord(
                name=action_name,
                client_id=self.client_id,
                started_at=self.kernel.now,
            )
            context = {}
            failed = False
            for op_name in ACTION_TEMPLATES[action_name]:
                yield self.kernel.timeout(self.profile.think_time(self.rng))
                record = yield from self._do_operation(op_name, context)
                action.operations.append(record)
                if not record.ok:
                    failed = True
                    break
            self.metrics.record_action(action)
            if failed and (action_name in ("Login", "Register") or self._session_lost):
                return  # cannot meaningfully continue this session

    # ------------------------------------------------------------------
    # One operation
    # ------------------------------------------------------------------
    def _do_operation(self, op_name, context):
        request = self._build_request(op_name, context)
        _category, _idempotent, group = OPERATIONS[op_name]
        record = OperationRecord(
            operation=op_name,
            url=request.url,
            issued_at=self.kernel.now,
            functional_group=group,
        )
        response = yield from self._issue(request, record)
        record.completed_at = self.kernel.now
        record.response_time = record.completed_at - record.issued_at

        failure = self.detector.evaluate(
            request, response, believes_logged_in=self.believes_logged_in
        )
        if failure is None and self.comparison is not None:
            failure = yield from self.comparison.check(request, response)

        # The client knows the end-to-end verdict, so it closes the span
        # trace (if admission attached one): the completed path carries the
        # gold failure label the path analyzer correlates against, and the
        # request's record carries the calls it observed.
        observed = {}
        if request.trace is not None:
            path = request.trace.finish(
                ok=failure is None,
                failure=failure.value if failure is not None else None,
            )
            observed = {"calls": path.calls, "failed_in": path.failed_in}
            if path.truncated:
                observed["truncated"] = True

        # ``enabled`` is checked here rather than inside publish() so the
        # disabled (default) case does not even build the kwargs dict —
        # this path runs once per request.  This is the request's one
        # record: the client's verdict, where the last attempt was
        # admitted, what the client judged and, when traced, its calls.
        trace = self.kernel.trace
        if trace.enabled:
            trace.publish(
                "request.end",
                client=self.client_id,
                operation=op_name,
                ok=failure is None,
                duration=record.response_time,
                failure=failure.value if failure is not None else None,
                retries=record.retries,
                server=request.server,
                status=status_key(response),
                **observed,
            )
        if failure is None:
            record.ok = True
            self._absorb_success(op_name, response, context)
        else:
            record.failure_kind = failure.value
            self._absorb_failure(response)
            if trace.enabled:
                trace.publish(
                    "detector.report",
                    client=self.client_id,
                    failure=failure.value,
                    url=request.url,
                    reported=self.reporter is not None,
                )
            if self.reporter is not None:
                self.reporter(
                    FailureReport(
                        time=self.kernel.now,
                        url=request.url,
                        operation=op_name,
                        kind=failure,
                        detail=(response.body[:80] if response else "no response"),
                        client_id=self.client_id,
                        cookie=self.cookie,
                    )
                )
        return record

    def _issue(self, request, record):
        """Generator: send the request, honouring 503 Retry-After (§6.2)."""
        attempts = 0
        while True:
            request.server = None
            event = self.frontend.handle_request(request)
            patience = self.kernel.timeout(self.profile.request_timeout)
            try:
                yield self.kernel.any_of([event, patience])
            except Exception as exc:  # noqa: BLE001 - a failed frontend
                # event (e.g. the load balancer's forwarding process died)
                # must surface as an observable failure, not kill the
                # client process.
                return HttpResponse(
                    status=HttpStatus.INTERNAL_SERVER_ERROR,
                    body=f"network error: {type(exc).__name__}: {exc}",
                    network_error=True,
                )
            if not event.triggered:
                return None  # client gave up waiting
            patience.cancel()
            response = event.value
            if (
                response.status == HttpStatus.SERVICE_UNAVAILABLE
                and response.retry_after
                and request.idempotent
                and attempts < MAX_RETRIES
            ):
                attempts += 1
                record.retries = attempts
                yield self.kernel.timeout(response.retry_after)
                continue
            return response

    # ------------------------------------------------------------------
    # State transitions driven by responses
    # ------------------------------------------------------------------
    def _absorb_success(self, op_name, response, context):
        payload = response.payload or {}
        if op_name in ("Authenticate", "RegisterNewUser"):
            self.cookie = payload.get("cookie")
            self.believes_logged_in = True
        elif op_name == "Logout":
            self.cookie = None
            self.believes_logged_in = False
        if "current_bid" in payload:
            context["current_bid"] = payload["current_bid"]
        if payload.get("login_required"):
            # Healthy response, but we were silently logged out (session
            # expired on the server side without us noticing).
            self.believes_logged_in = False

    def _absorb_failure(self, response):
        payload = (response.payload or {}) if response is not None else {}
        if payload.get("login_required"):
            # Our session evaporated (lost or corrupted server-side).
            self.cookie = None
            self.believes_logged_in = False
            self._session_lost = True

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def _build_request(self, op_name, context):
        params = {}
        if op_name == "Authenticate":
            params = {"user_id": self.user_id, "password": f"pw{self.user_id}"}
        elif op_name == "RegisterNewUser":
            self._registration_serial += 1
            params = {
                "nickname": f"nick-{self.client_id}-{self._registration_serial}",
                "password": "fresh-pw",
                "region_id": self.sampler.region_id(),
            }
        elif op_name in ("ViewItem", "MakeBid", "DoBuyNow", "ViewBidHistory"):
            params = {"item_id": context.setdefault("item_id", self.sampler.item_id())}
        elif op_name == "CommitBid":
            # Increment 0 is a lowball bid at exactly the current maximum:
            # a healthy CommitBid politely rejects it (its min_increment
            # check), so a small share of rejections is normal traffic —
            # and a corrupted min_increment silently accepting them is how
            # that fault becomes visible (Table 2).
            amount = context.get("current_bid", 0) + self.rng.randint(0, 10)
            params = {"amount": amount}
        elif op_name == "SearchItemsByCategory":
            params = {"category_id": self.sampler.category_id()}
        elif op_name == "SearchItemsByRegion":
            params = {"region_id": self.sampler.region_id()}
        elif op_name == "ViewUserInfo":
            params = {"user_id": self.sampler.other_user_id(self.user_id)}
        elif op_name == "LeaveUserFeedback":
            params = {"to_user_id": self.sampler.other_user_id(self.user_id)}
        elif op_name == "CommitUserFeedback":
            params = {"rating": self.rng.choice((-1, 0, 1)), "comment": "thanks"}
        elif op_name == "RegisterNewItem":
            params = {
                "name": f"ware-{self.client_id}-{self.kernel.now:.0f}",
                "category_id": self.sampler.category_id(),
                "region_id": self.sampler.region_id(),
                "initial_price": self.rng.randint(1, 200),
            }
        _category, idempotent, _group = OPERATIONS[op_name]
        return HttpRequest(
            url=operation_url(op_name),
            operation=op_name,
            params=params,
            cookie=self.cookie,
            idempotent=idempotent,
            client_id=self.client_id,
        )


class ClientPopulation:
    """A fleet of emulated clients sharing one metrics sink."""

    def __init__(
        self,
        kernel,
        frontend,
        dataset,
        n_clients,
        rng_registry,
        profile=None,
        reporter=None,
        comparison=None,
    ):
        self.kernel = kernel
        self.metrics = TawAccounting()
        self.clients = [
            EmulatedClient(
                client_id=i,
                kernel=kernel,
                rng=rng_registry.stream(f"client-{i}"),
                frontend=frontend,
                dataset=dataset,
                metrics=self.metrics,
                profile=profile,
                reporter=reporter,
                comparison=comparison,
            )
            for i in range(n_clients)
        ]
        self._processes = []

    def start(self):
        """Spawn every client's process."""
        self._processes = [
            self.kernel.process(client.run(), name=f"client-{client.client_id}")
            for client in self.clients
        ]
        return self._processes
