"""The Markov workload model: actions, operations, and Table 1's mix.

"Human clients are modeled using a Markov chain with 25 states
corresponding to the various end user operations possible in eBid" (§4).
We express the chain at the *action* level: a user session begins with a
login (or registration), performs a geometrically-distributed number of
mid-session actions drawn from a fixed distribution, and ends with a logout
(or abandonment).  Each action is a short script of operations culminating
in its commit point; the union of all scripts covers the 25 operation
states, and the stationary operation mix reproduces Table 1.

Derivation of the default weights (per average session):

* session-lifecycle ops per session: 1 login/registration + 0.75 logout
  = 1.75; for these to be 23% of all requests (Table 1), a session must
  average 1.75/0.23 ≈ 7.61 operations;
* subtracting the session-start ops (1.1, since 10% of sessions register
  via a static form page first) and 0.75 logouts leaves 5.76 mid ops;
* Table 1's remaining percentages then fix the per-session action counts
  encoded in ``mid_action_weights`` (e.g. 0.28 completed bids, 0.204
  sells, 1.128 BrowseCategories views — making BrowseCategories the
  most-frequently invoked component, as §5.2's Figure 1 notes).
"""

from dataclasses import dataclass, field

#: Action name → the operation script it issues.  The last operation is the
#: action's commit point (for single-op actions, the op is its own commit).
ACTION_TEMPLATES = {
    "Login": ("Authenticate",),
    "Register": ("RegisterUserForm", "RegisterNewUser"),
    "Logout": ("Logout",),
    "PlaceBid": ("ViewItem", "MakeBid", "CommitBid"),
    "AbandonBid": ("ViewItem", "MakeBid"),
    "BuyNow": ("ViewItem", "DoBuyNow", "CommitBuyNow"),
    "Sell": ("SellItemForm", "RegisterNewItem"),
    "Feedback": ("LeaveUserFeedback", "CommitUserFeedback"),
    "BrowseCategories": ("BrowseCategories",),
    "BrowseRegions": ("BrowseRegions",),
    "ViewItem": ("ViewItem",),
    "ViewUserInfo": ("ViewUserInfo",),
    "ViewBidHistory": ("ViewBidHistory",),
    "ViewPastAuctions": ("ViewPastAuctions",),
    "AboutMe": ("AboutMe",),
    "SearchByCategory": ("SearchItemsByCategory",),
    "SearchByRegion": ("SearchItemsByRegion",),
    "HomePage": ("HomePage",),
    "Browse": ("Browse",),
    "Help": ("Help",),
    "LoginFormVisit": ("LoginForm",),
}

#: Expected count of each mid-session action per session (see derivation
#: above).  Normalized at use; the geometric session length has this total
#: as its mean.
DEFAULT_MID_ACTION_WEIGHTS = {
    "PlaceBid": 0.280,
    "AbandonBid": 0.280,
    "BuyNow": 0.140,
    "Sell": 0.204,
    "Feedback": 0.137,
    "BrowseCategories": 1.128,
    "ViewItem": 0.174,
    "BrowseRegions": 0.087,
    "ViewUserInfo": 0.104,
    "ViewBidHistory": 0.087,
    "ViewPastAuctions": 0.069,
    "AboutMe": 0.087,
    "SearchByCategory": 0.685,
    "SearchByRegion": 0.228,
    "HomePage": 0.280,
    "Browse": 0.170,
    "Help": 0.100,
    "LoginFormVisit": 0.063,
}


@dataclass
class WorkloadProfile:
    """Everything a client needs to behave like a Table 1 auction user."""

    #: Think time between URL clicks: exponential, mean 7 s, max 70 s
    #: ("as in the TPC-W benchmark", §4).
    think_time_mean: float = 7.0
    think_time_max: float = 70.0

    #: Probability a session starts by registering a new account rather
    #: than logging into an existing one.
    register_probability: float = 0.10

    #: Probability the session ends with an explicit logout (the rest
    #: abandon the site, §4).
    logout_probability: float = 0.75

    mid_action_weights: dict = field(
        default_factory=lambda: dict(DEFAULT_MID_ACTION_WEIGHTS)
    )

    #: Client patience: a request with no response after this long is a
    #: timeout failure.
    request_timeout: float = 30.0

    def __post_init__(self):
        unknown = set(self.mid_action_weights) - set(ACTION_TEMPLATES)
        if unknown:
            raise ValueError(f"unknown actions in weights: {sorted(unknown)}")
        self._actions = sorted(self.mid_action_weights)
        total = sum(self.mid_action_weights.values())
        self._cumulative = []
        acc = 0.0
        for name in self._actions:
            acc += self.mid_action_weights[name] / total
            self._cumulative.append(acc)
        self._continue_probability = total / (total + 1.0)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def think_time(self, rng):
        return min(rng.expovariate(1.0 / self.think_time_mean), self.think_time_max)

    def first_action(self, rng):
        if rng.random() < self.register_probability:
            return "Register"
        return "Login"

    def next_mid_action(self, rng):
        """One mid-session action, or None when the session ends."""
        if rng.random() >= self._continue_probability:
            return None
        draw = rng.random()
        for name, boundary in zip(self._actions, self._cumulative):
            if draw <= boundary:
                return name
        return self._actions[-1]

    def wants_logout(self, rng):
        return rng.random() < self.logout_probability

    def session_actions(self, rng):
        """Generate one session's action names, start to finish."""
        yield self.first_action(rng)
        while True:
            action = self.next_mid_action(rng)
            if action is None:
                break
            yield action
        if self.wants_logout(rng):
            yield "Logout"
