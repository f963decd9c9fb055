"""eBid's web component (the WAR): servlets, session handling, caching.

The servlets drive the session beans and render responses.  All session
state handling happens here, against the pluggable session store (FastS or
SSM) — extricated from the application logic, as §8 prescribes.  Users are
identified by HTTP cookies; they log in once per session (§5.4).

A small rendered-fragment cache holds item detail pages.  It is WAR-local
state: discarded by a WAR microreboot, which is why a wrong value computed
by a faulty bean can outlive that bean's own µRB (Table 2).
"""

from collections import OrderedDict

from repro.appserver.component import WebComponent
from repro.appserver.http import HttpResponse, HttpStatus, error_response

#: Static presentation files and the operations they serve.
STATIC_PAGES = {
    "HomePage": "/static/home.html",
    "Browse": "/static/browse.html",
    "Help": "/static/help.html",
    "LoginForm": "/static/login-form.html",
    "RegisterUserForm": "/static/register-form.html",
    "SellItemForm": "/static/sell-form.html",
}

FRAGMENT_CACHE_CAPACITY = 256


class EbidWar(WebComponent):
    """Servlet container content for eBid."""

    def on_start(self):
        self.fragment_cache = OrderedDict()
        for operation in (
            "HomePage", "Browse", "Help", "LoginForm", "RegisterUserForm",
            "SellItemForm",
            "Authenticate", "Logout", "RegisterNewUser",
            "BrowseCategories", "BrowseRegions",
            "SearchItemsByCategory", "SearchItemsByRegion",
            "ViewItem", "ViewPastAuctions", "ViewUserInfo", "ViewBidHistory",
            "AboutMe", "MakeBid", "CommitBid", "DoBuyNow", "CommitBuyNow",
            "RegisterNewItem", "LeaveUserFeedback", "CommitUserFeedback",
        ):
            handler = getattr(self, f"op_{operation}".lower(), None) or getattr(
                self, f"op_{operation}"
            )
            self.register_servlet(f"/ebid/{operation}", handler)

    # ------------------------------------------------------------------
    # Session helpers (the only place session state is touched)
    # ------------------------------------------------------------------
    def _store(self):
        return self.server.session_store

    def _store_delay(self, ctx):
        """The session store's access latency, as an event to yield."""
        return ctx.io_delay(getattr(self._store(), "access_time", 0.0005))

    def _load_session(self, ctx, request):
        """Generator: the caller's session, or None if not logged in."""
        if request.cookie is None:
            return None
        yield self._store_delay(ctx)
        data = self._store().read(request.cookie)
        if data is None:
            return None
        data.validate()  # corrupted session objects fail here
        return data

    def _save_session(self, ctx, data):
        yield self._store_delay(ctx)
        self._store().write(data.session_id, data)

    def _login_required(self):
        """A 200 page asking the user to log in.

        When the user *believes* they are logged in (their session was lost
        or corrupted), the client-side detector flags this as an
        application-specific failure (§4).
        """
        return HttpResponse(
            status=HttpStatus.OK,
            body="<html>Please log in to continue</html>",
            payload={"login_required": True},
        )

    # ------------------------------------------------------------------
    # Cache and static helpers
    # ------------------------------------------------------------------
    def cache_put(self, key, value):
        self.fragment_cache[key] = value
        if len(self.fragment_cache) > FRAGMENT_CACHE_CAPACITY:
            self.fragment_cache.popitem(last=False)

    def _static(self, ctx, operation):
        yield ctx.io_delay(self.server.timing.static_content_time)
        content = self.server.static_store.read(STATIC_PAGES[operation])
        return HttpResponse(HttpStatus.OK, body=content, payload={"static": operation})

    # ------------------------------------------------------------------
    # Static operations
    # ------------------------------------------------------------------
    def op_homepage(self, ctx, request):
        response = yield from self._static(ctx, "HomePage")
        return response

    def op_browse(self, ctx, request):
        response = yield from self._static(ctx, "Browse")
        return response

    def op_help(self, ctx, request):
        response = yield from self._static(ctx, "Help")
        return response

    def op_loginform(self, ctx, request):
        response = yield from self._static(ctx, "LoginForm")
        return response

    def op_registeruserform(self, ctx, request):
        response = yield from self._static(ctx, "RegisterUserForm")
        return response

    def op_sellitemform(self, ctx, request):
        response = yield from self._static(ctx, "SellItemForm")
        return response

    # ------------------------------------------------------------------
    # Session lifecycle operations
    # ------------------------------------------------------------------
    def op_authenticate(self, ctx, request):
        yield from ctx.consume(0.0015)
        user_id = request.params["user_id"]
        password = request.params["password"]
        ok = yield from ctx.call("Authenticate", "login", user_id, password)
        if not ok:
            return error_response(
                HttpStatus.INTERNAL_SERVER_ERROR, "login failed for valid account"
            )
        from repro.stores.sessions import SessionData

        self.server.session_serial += 1
        cookie = f"sess-{user_id}-{self.server.name}-{self.server.session_serial}"
        session = SessionData(cookie, user_id)
        session.attributes = {"user_id": user_id}
        session.created_at = self.server.kernel.now
        yield from self._save_session(ctx, session)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>welcome user {user_id}</html>",
            payload={"cookie": cookie, "user_id": user_id},
        )

    def op_logout(self, ctx, request):
        yield from ctx.consume(0.0008)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        yield self._store_delay(ctx)
        self._store().delete(session.session_id)
        return HttpResponse(
            HttpStatus.OK,
            body="<html>goodbye</html>",
            payload={"logged_out": session.user_id},
        )

    def op_registernewuser(self, ctx, request):
        yield from ctx.consume(0.0015)
        result = yield from ctx.call(
            "RegisterNewUser", "register",
            request.params["nickname"], request.params["password"],
            request.params["region_id"],
        )
        from repro.stores.sessions import SessionData

        self.server.session_serial += 1
        cookie = (
            f"sess-{result['user_id']}-{self.server.name}"
            f"-{self.server.session_serial}"
        )
        session = SessionData(cookie, result["user_id"])
        session.attributes = {"user_id": result["user_id"]}
        yield from self._save_session(ctx, session)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>registered {result['nickname']}</html>",
            payload={"cookie": cookie, "user_id": result["user_id"]},
        )

    # ------------------------------------------------------------------
    # Browse / view operations (read-only database access)
    # ------------------------------------------------------------------
    def op_browsecategories(self, ctx, request):
        yield from ctx.consume(0.001)
        rows = yield from ctx.call("BrowseCategories", "categories")
        names = [row["name"] for row in rows]
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>categories: {', '.join(names)}</html>",
            payload={"categories": names},
        )

    def op_browseregions(self, ctx, request):
        yield from ctx.consume(0.001)
        rows = yield from ctx.call("BrowseRegions", "regions")
        names = [row["name"] for row in rows]
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>regions: {', '.join(names)}</html>",
            payload={"regions": names},
        )

    def op_viewitem(self, ctx, request):
        yield from ctx.consume(0.001)
        item_id = request.params["item_id"]
        cached = self.cache_get(("item", item_id))
        if cached is not None:
            return HttpResponse(HttpStatus.OK, body=cached["body"],
                                payload=dict(cached["payload"]))
        detail = yield from ctx.call("ViewItem", "view", item_id)
        body = (
            f"<html>item {detail['item_id']}: {detail['name']} "
            f"at ${detail['price']}</html>"
        )
        payload = {"item_id": detail["item_id"], "price": detail["price"]}
        self.cache_put(("item", item_id), {"body": body, "payload": payload})
        return HttpResponse(HttpStatus.OK, body=body, payload=dict(payload))

    def op_viewpastauctions(self, ctx, request):
        yield from ctx.consume(0.001)
        rows = yield from ctx.call("ViewItem", "list_past_auctions")
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>{len(rows)} past auctions</html>",
            payload={"old_item_ids": [row["id"] for row in rows]},
        )

    def op_viewuserinfo(self, ctx, request):
        yield from ctx.consume(0.001)
        info = yield from ctx.call("ViewUserInfo", "info", request.params["user_id"])
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>{info['nickname']} rating {info['rating']}</html>",
            payload=info,
        )

    def op_viewbidhistory(self, ctx, request):
        yield from ctx.consume(0.001)
        history = yield from ctx.call(
            "ViewBidHistory", "history", request.params["item_id"]
        )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>{len(history['bids'])} bids</html>",
            payload={
                "item_id": history["item_id"],
                "bid_ids": [bid["id"] for bid in history["bids"]],
                "top_bidders": history["top_bidders"],
            },
        )

    def op_aboutme(self, ctx, request):
        yield from ctx.consume(0.0015)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        summary = yield from ctx.call("AboutMe", "summary", session.user_id)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>about {summary['nickname']}</html>",
            payload=summary,
        )

    # ------------------------------------------------------------------
    # Search operations
    # ------------------------------------------------------------------
    def op_searchitemsbycategory(self, ctx, request):
        yield from ctx.consume(0.001)
        rows = yield from ctx.call(
            "SearchItemsByCategory", "search", request.params["category_id"]
        )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>{len(rows)} items found</html>",
            payload={"item_ids": [row["id"] for row in rows]},
        )

    def op_searchitemsbyregion(self, ctx, request):
        yield from ctx.consume(0.001)
        rows = yield from ctx.call(
            "SearchItemsByRegion", "search", request.params["region_id"]
        )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>{len(rows)} items found</html>",
            payload={"item_ids": [row["id"] for row in rows]},
        )

    # ------------------------------------------------------------------
    # Bid / buy / sell / feedback operations
    # ------------------------------------------------------------------
    def op_makebid(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        detail = yield from ctx.call("MakeBid", "prepare", request.params["item_id"])
        session.attributes["bid_item"] = detail["item_id"]
        yield from self._save_session(ctx, session)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>bid page for item {detail['item_id']}</html>",
            payload=detail,
        )

    def op_commitbid(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        item_id = session.attributes.get("bid_item")
        if item_id is None:
            return error_response(
                HttpStatus.INTERNAL_SERVER_ERROR,
                "no item selected for bid (session state missing)",
            )
        result = yield from ctx.call(
            "CommitBid", "commit", session.user_id, item_id,
            request.params["amount"],
        )
        if not result["accepted"]:
            return HttpResponse(
                HttpStatus.OK,
                body="<html>bid rejected: amount below minimum</html>",
                payload=result,
            )
        # Cache coherence: the item's detail page shows its price, which
        # this commit just changed.
        self.fragment_cache.pop(("item", item_id), None)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>bid {result['bid_id']} placed at ${result['amount']}</html>",
            payload=result,
        )

    def op_dobuynow(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        detail = yield from ctx.call("DoBuyNow", "prepare", request.params["item_id"])
        session.attributes["buy_item"] = detail["item_id"]
        yield from self._save_session(ctx, session)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>buy-now page for item {detail['item_id']}</html>",
            payload=detail,
        )

    def op_commitbuynow(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        item_id = session.attributes.get("buy_item")
        if item_id is None:
            return error_response(
                HttpStatus.INTERNAL_SERVER_ERROR,
                "no item selected for buy-now (session state missing)",
            )
        result = yield from ctx.call(
            "CommitBuyNow", "commit", session.user_id, item_id
        )
        if result.get("sold_out"):
            return HttpResponse(
                HttpStatus.OK,
                body="<html>sorry, this item is sold out</html>",
                payload=result,
            )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>purchase {result['buy_id']} complete</html>",
            payload=result,
        )

    def op_registernewitem(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        result = yield from ctx.call(
            "RegisterNewItem", "register", session.user_id,
            request.params["name"], request.params["category_id"],
            request.params["region_id"], request.params["initial_price"],
        )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>item {result['item_id']} listed</html>",
            payload=result,
        )

    def op_leaveuserfeedback(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        detail = yield from ctx.call(
            "LeaveUserFeedback", "prepare", request.params["to_user_id"]
        )
        session.attributes["feedback_target"] = detail["to_user_id"]
        yield from self._save_session(ctx, session)
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>feedback page for {detail['nickname']}</html>",
            payload=detail,
        )

    def op_commituserfeedback(self, ctx, request):
        yield from ctx.consume(0.001)
        session = yield from self._load_session(ctx, request)
        if session is None:
            return self._login_required()
        to_user_id = session.attributes.get("feedback_target")
        if to_user_id is None:
            return error_response(
                HttpStatus.INTERNAL_SERVER_ERROR,
                "no feedback target selected (session state missing)",
            )
        result = yield from ctx.call(
            "CommitUserFeedback", "commit", session.user_id, to_user_id,
            request.params["rating"], request.params["comment"],
        )
        return HttpResponse(
            HttpStatus.OK,
            body=f"<html>feedback {result['feedback_id']} recorded</html>",
            payload=result,
        )
