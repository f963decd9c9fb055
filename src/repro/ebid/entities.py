"""eBid's nine entity beans (§3.3).

"Persistent state in eBid ... is maintained in a MySQL database through 9
entity EJBs: IDManager, User, Item, Bid, Buy, Category, OldItem, Region, and
UserFeedback."  (Table 3 names the Buy entity ``BuyNow`` and IDManager
``IdentityManager``; we follow Table 3.)  Each bean uses container-managed
persistence via the :class:`~repro.appserver.component.EntityBean` helpers.
"""

from repro.appserver.component import EntityBean
from repro.ebid.schema import KEYED_TABLES


class IdentityManagerBean(EntityBean):
    """Generates application-specific primary keys (§5.1).

    Keys are allocated high-low style: the bean claims a block from the
    shared ``id_sequences`` table and hands out values from memory, so
    multiple cluster nodes never collide.  The in-memory block cursors are
    *volatile metadata*: discarded and re-claimed on every (re)start —
    which is exactly why a microreboot cures corrupted key-generation
    state.  Deployed with ``pool_size=1`` so each node has one counter
    authority.
    """

    #: Keys claimed per round trip to the sequence table.
    BLOCK_SIZE = 500

    def on_start(self):
        #: table -> [next value, end of claimed block); blocks are claimed
        #: lazily so reinitialization stays cheap.
        self._next = {table: None for table in KEYED_TABLES}

    def next_id(self, ctx, table):
        """Generator: allocate the next primary key for ``table``."""
        yield from ctx.consume(0.0002)
        block = self._next[table]  # raises if corrupted to None/garbage
        if block is None or block[0] >= block[1]:
            block = yield from self._claim_block(ctx, table)
        value = block[0]
        block[0] = value + 1
        return value

    def _claim_block(self, ctx, table):
        """Generator: reserve the next key block from the shared table.

        The sequence update deliberately auto-commits outside any caller
        transaction (sequence allocations must never roll back, or two
        transactions could be handed the same block).
        """
        yield ctx.io_delay(self.server.timing.db_access_time)
        database = self._db()
        rows = database.select("id_sequences", relation=table)
        if not rows:
            raise self.app_error(f"no sequence row for table {table!r}")
        row = rows[0]
        start = row["next_value"]
        database.update(
            "id_sequences", row["id"], {"next_value": start + self.BLOCK_SIZE}
        )
        block = [start, start + self.BLOCK_SIZE]
        self._next[table] = block
        return block


class UserBean(EntityBean):
    def get_user(self, ctx, user_id):
        row = yield from self.ejb_load(ctx, user_id)
        if row is None:
            raise self.app_error(f"no such user {user_id}")
        return row

    def check_credentials(self, ctx, user_id, password):
        row = yield from self.ejb_load(ctx, user_id)
        return row is not None and row["password"] == password

    def create_user(self, ctx, user_id, nickname, password, region_id):
        row = yield from self.ejb_create(
            ctx,
            {
                "id": user_id,
                "nickname": nickname,
                "password": password,
                "rating": 0,
                "balance": 0,
                "region_id": region_id,
            },
        )
        return row

    def apply_rating(self, ctx, user_id, delta):
        row = yield from self.ejb_load(ctx, user_id)
        if row is None:
            raise self.app_error(f"no such user {user_id}")
        yield from self.ejb_store(ctx, user_id, rating=row["rating"] + delta)


class ItemBean(EntityBean):
    def get_item(self, ctx, item_id):
        row = yield from self.ejb_load(ctx, item_id)
        return row

    def items_by_category(self, ctx, category_id, limit=20):
        rows = yield from self.ejb_find(ctx, limit=limit, category_id=category_id)
        return rows

    def items_by_region(self, ctx, region_id, limit=20):
        rows = yield from self.ejb_find(ctx, limit=limit, region_id=region_id)
        return rows

    def items_by_seller(self, ctx, seller_id, limit=20):
        rows = yield from self.ejb_find(ctx, limit=limit, seller_id=seller_id)
        return rows

    def create_item(self, ctx, item_id, name, seller_id, category_id,
                    region_id, initial_price):
        row = yield from self.ejb_create(
            ctx,
            {
                "id": item_id,
                "name": name,
                "seller_id": seller_id,
                "category_id": category_id,
                "region_id": region_id,
                "initial_price": initial_price,
                "max_bid": initial_price,
                "nb_of_bids": 0,
                "quantity": 1,
                "buy_now_price": initial_price * 2,
            },
        )
        return row

    def record_bid(self, ctx, item_id, amount):
        row = yield from self.ejb_load(ctx, item_id)
        if row is None:
            raise self.app_error(f"no such item {item_id}")
        yield from self.ejb_store(
            ctx,
            item_id,
            max_bid=max(row["max_bid"], amount),
            nb_of_bids=row["nb_of_bids"] + 1,
        )

    def consume_quantity(self, ctx, item_id, quantity=1):
        row = yield from self.ejb_load(ctx, item_id)
        if row is None:
            raise self.app_error(f"no such item {item_id}")
        if row["quantity"] < quantity:
            raise self.app_error(f"item {item_id} is sold out")
        yield from self.ejb_store(ctx, item_id, quantity=row["quantity"] - quantity)


class BidBean(EntityBean):
    def create_bid(self, ctx, bid_id, user_id, item_id, amount):
        row = yield from self.ejb_create(
            ctx,
            {
                "id": bid_id,
                "user_id": user_id,
                "item_id": item_id,
                "amount": amount,
                "quantity": 1,
            },
        )
        return row

    def bids_for_item(self, ctx, item_id, limit=25):
        rows = yield from self.ejb_find(
            ctx, limit=limit, key=lambda r: -r["amount"], item_id=item_id
        )
        return rows

    def bids_by_user(self, ctx, user_id, limit=25):
        rows = yield from self.ejb_find(ctx, limit=limit, user_id=user_id)
        return rows


class BuyNowBean(EntityBean):
    """The Buy entity (Table 3's ``BuyNow*``)."""

    def create_buy(self, ctx, buy_id, buyer_id, item_id, quantity=1):
        row = yield from self.ejb_create(
            ctx,
            {"id": buy_id, "buyer_id": buyer_id, "item_id": item_id,
             "quantity": quantity},
        )
        return row

    def buys_by_user(self, ctx, user_id, limit=25):
        rows = yield from self.ejb_find(ctx, limit=limit, buyer_id=user_id)
        return rows


class CategoryBean(EntityBean):
    def all_categories(self, ctx):
        rows = yield from self.ejb_find(ctx, key=lambda r: r["id"])
        return rows


class RegionBean(EntityBean):
    def all_regions(self, ctx):
        rows = yield from self.ejb_find(ctx, key=lambda r: r["id"])
        return rows


class OldItemBean(EntityBean):
    def recent_old_items(self, ctx, limit=20):
        rows = yield from self.ejb_find(ctx, limit=limit, key=lambda r: -r["id"])
        return rows

    def get_old_item(self, ctx, item_id):
        row = yield from self.ejb_load(ctx, item_id)
        return row


class UserFeedbackBean(EntityBean):
    def create_feedback(self, ctx, feedback_id, from_user_id, to_user_id,
                        rating, comment):
        row = yield from self.ejb_create(
            ctx,
            {
                "id": feedback_id,
                "from_user_id": from_user_id,
                "to_user_id": to_user_id,
                "rating": rating,
                "comment": comment,
            },
        )
        return row

    def feedback_for_user(self, ctx, user_id, limit=25):
        rows = yield from self.ejb_find(ctx, limit=limit, to_user_id=user_id)
        return rows
