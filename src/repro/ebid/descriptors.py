"""eBid deployment descriptors, URL call paths, and operation metadata.

Per-component crash/reinit times are the paper's Table 3 values (msec there,
seconds here).  The EntityGroup — Category, Region, User, Item, Bid — is
expressed through ``group_references`` chains; its members' times sum to the
paper's group figures (crash 36 ms, reinit 789 ms).
"""

import enum

from repro.appserver.descriptors import ComponentKind, DeploymentDescriptor, TxAttribute
from repro.ebid import entities, operations
from repro.ebid.web import EbidWar

#: The recovery group of §5.2: "eBid has one such recovery group,
#: EntityGroup, containing 5 entity EJBs".
ENTITY_GROUP = frozenset({"Category", "Region", "User", "Item", "Bid"})


def ebid_descriptors():
    """All 23 deployable components (22 of Table 3 plus the WAR is the
    23rd row; EntityGroup members are deployed individually)."""
    entity = ComponentKind.ENTITY
    session = ComponentKind.STATELESS_SESSION

    return [
        # --- EntityGroup members (group crash 36 ms, group reinit 789 ms)
        DeploymentDescriptor(
            name="Category", kind=entity, factory=entities.CategoryBean,
            table="categories", group_references=("Region",),
            crash_time=0.007, reinit_time=0.120,
        ),
        DeploymentDescriptor(
            name="Region", kind=entity, factory=entities.RegionBean,
            table="regions", group_references=("User",),
            crash_time=0.007, reinit_time=0.120,
        ),
        DeploymentDescriptor(
            name="User", kind=entity, factory=entities.UserBean,
            table="users", group_references=("Item",),
            crash_time=0.008, reinit_time=0.180,
            tx_methods={"create_user": TxAttribute.SUPPORTS,
                        "apply_rating": TxAttribute.SUPPORTS},
        ),
        DeploymentDescriptor(
            name="Item", kind=entity, factory=entities.ItemBean,
            table="items", group_references=("Bid",),
            crash_time=0.008, reinit_time=0.200,
            tx_methods={"create_item": TxAttribute.SUPPORTS,
                        # record_bid mutates the bid aggregates and must run
                        # inside the caller's transaction; Required joins it
                        # (and is the fault-injection target whose *wrong*
                        # corruption yields Table 2's partial-commit ≈).
                        "record_bid": TxAttribute.REQUIRED,
                        "consume_quantity": TxAttribute.SUPPORTS},
        ),
        DeploymentDescriptor(
            name="Bid", kind=entity, factory=entities.BidBean,
            table="bids",
            crash_time=0.006, reinit_time=0.169,
            tx_methods={"create_bid": TxAttribute.SUPPORTS},
        ),
        # --- Entity beans outside the group (Table 3 ``*`` rows)
        DeploymentDescriptor(
            name="BuyNow", kind=entity, factory=entities.BuyNowBean,
            table="buys", crash_time=0.009, reinit_time=0.462,
            tx_methods={"create_buy": TxAttribute.SUPPORTS},
        ),
        DeploymentDescriptor(
            name="IdentityManager", kind=entity,
            factory=entities.IdentityManagerBean,
            table="id_sequences", pool_size=1,
            crash_time=0.010, reinit_time=0.451,
        ),
        DeploymentDescriptor(
            name="OldItem", kind=entity, factory=entities.OldItemBean,
            table="old_items", crash_time=0.010, reinit_time=0.519,
        ),
        DeploymentDescriptor(
            name="UserFeedback", kind=entity, factory=entities.UserFeedbackBean,
            table="feedback", crash_time=0.011, reinit_time=0.472,
            tx_methods={"create_feedback": TxAttribute.SUPPORTS},
        ),
        # --- Stateless session beans (Table 3)
        DeploymentDescriptor(
            name="AboutMe", kind=session, factory=operations.AboutMeBean,
            references=("User", "Bid", "BuyNow", "Item", "UserFeedback"),
            crash_time=0.009, reinit_time=0.542,
        ),
        DeploymentDescriptor(
            name="Authenticate", kind=session, factory=operations.AuthenticateBean,
            references=("User",), crash_time=0.012, reinit_time=0.479,
        ),
        DeploymentDescriptor(
            name="BrowseCategories", kind=session,
            factory=operations.BrowseCategoriesBean,
            references=("Category",), crash_time=0.011, reinit_time=0.400,
        ),
        DeploymentDescriptor(
            name="BrowseRegions", kind=session,
            factory=operations.BrowseRegionsBean,
            references=("Region",), crash_time=0.015, reinit_time=0.401,
        ),
        DeploymentDescriptor(
            name="CommitBid", kind=session, factory=operations.CommitBidBean,
            references=("IdentityManager", "Item", "Bid"),
            crash_time=0.008, reinit_time=0.525,
            tx_methods={"commit": TxAttribute.REQUIRED},
        ),
        DeploymentDescriptor(
            name="CommitBuyNow", kind=session, factory=operations.CommitBuyNowBean,
            references=("IdentityManager", "BuyNow", "Item"),
            crash_time=0.009, reinit_time=0.462,
            tx_methods={"commit": TxAttribute.REQUIRED},
        ),
        DeploymentDescriptor(
            name="CommitUserFeedback", kind=session,
            factory=operations.CommitUserFeedbackBean,
            references=("IdentityManager", "UserFeedback", "User"),
            crash_time=0.009, reinit_time=0.522,
            tx_methods={"commit": TxAttribute.REQUIRED},
        ),
        DeploymentDescriptor(
            name="DoBuyNow", kind=session, factory=operations.DoBuyNowBean,
            references=("Item",), crash_time=0.010, reinit_time=0.417,
        ),
        DeploymentDescriptor(
            name="LeaveUserFeedback", kind=session,
            factory=operations.LeaveUserFeedbackBean,
            references=("User",), crash_time=0.010, reinit_time=0.474,
        ),
        DeploymentDescriptor(
            name="MakeBid", kind=session, factory=operations.MakeBidBean,
            references=("Item",), crash_time=0.009, reinit_time=0.505,
        ),
        DeploymentDescriptor(
            name="RegisterNewItem", kind=session,
            factory=operations.RegisterNewItemBean,
            references=("IdentityManager", "Item"),
            crash_time=0.013, reinit_time=0.434,
            tx_methods={"register": TxAttribute.REQUIRED},
        ),
        DeploymentDescriptor(
            name="RegisterNewUser", kind=session,
            factory=operations.RegisterNewUserBean,
            references=("IdentityManager", "User"),
            crash_time=0.013, reinit_time=0.588,
            tx_methods={"register": TxAttribute.REQUIRED},
        ),
        DeploymentDescriptor(
            name="SearchItemsByCategory", kind=session,
            factory=operations.SearchItemsByCategoryBean,
            references=("Item",), crash_time=0.014, reinit_time=0.428,
        ),
        DeploymentDescriptor(
            name="SearchItemsByRegion", kind=session,
            factory=operations.SearchItemsByRegionBean,
            references=("Item",), crash_time=0.008, reinit_time=0.564,
        ),
        DeploymentDescriptor(
            name="ViewBidHistory", kind=session,
            factory=operations.ViewBidHistoryBean,
            references=("Bid", "User"), crash_time=0.011, reinit_time=0.496,
        ),
        DeploymentDescriptor(
            name="ViewUserInfo", kind=session, factory=operations.ViewUserInfoBean,
            references=("User", "UserFeedback"),
            crash_time=0.010, reinit_time=0.405,
        ),
        DeploymentDescriptor(
            name="ViewItem", kind=session, factory=operations.ViewItemBean,
            references=("Item", "OldItem"),
            crash_time=0.010, reinit_time=0.436,
        ),
        # --- The web component
        DeploymentDescriptor(
            name="EbidWAR", kind=ComponentKind.WEB, factory=EbidWar,
            pool_size=1, crash_time=0.071, reinit_time=0.957,
        ),
    ]


#: URL prefix → servlet/EJB call path, "derived using static analysis" (§4).
#: The recovery manager scores these components when the URL fails.
URL_PATH_MAP = {
    "/ebid/HomePage": ("EbidWAR",),
    "/ebid/Browse": ("EbidWAR",),
    "/ebid/Help": ("EbidWAR",),
    "/ebid/LoginForm": ("EbidWAR",),
    "/ebid/RegisterUserForm": ("EbidWAR",),
    "/ebid/SellItemForm": ("EbidWAR",),
    "/ebid/Authenticate": ("EbidWAR", "Authenticate", "User"),
    "/ebid/Logout": ("EbidWAR",),
    "/ebid/RegisterNewUser": ("EbidWAR", "RegisterNewUser", "IdentityManager", "User"),
    "/ebid/BrowseCategories": ("EbidWAR", "BrowseCategories", "Category"),
    "/ebid/BrowseRegions": ("EbidWAR", "BrowseRegions", "Region"),
    "/ebid/SearchItemsByCategory": ("EbidWAR", "SearchItemsByCategory", "Item"),
    "/ebid/SearchItemsByRegion": ("EbidWAR", "SearchItemsByRegion", "Item"),
    "/ebid/ViewItem": ("EbidWAR", "ViewItem", "Item", "OldItem"),
    "/ebid/ViewPastAuctions": ("EbidWAR", "ViewItem", "OldItem"),
    "/ebid/ViewUserInfo": ("EbidWAR", "ViewUserInfo", "User", "UserFeedback"),
    "/ebid/ViewBidHistory": ("EbidWAR", "ViewBidHistory", "Bid", "User"),
    "/ebid/AboutMe": (
        "EbidWAR", "AboutMe", "User", "Bid", "BuyNow", "Item", "UserFeedback",
    ),
    "/ebid/MakeBid": ("EbidWAR", "MakeBid", "Item"),
    "/ebid/CommitBid": ("EbidWAR", "CommitBid", "IdentityManager", "Item", "Bid"),
    "/ebid/DoBuyNow": ("EbidWAR", "DoBuyNow", "Item"),
    "/ebid/CommitBuyNow": (
        "EbidWAR", "CommitBuyNow", "IdentityManager", "BuyNow", "Item",
    ),
    "/ebid/RegisterNewItem": ("EbidWAR", "RegisterNewItem", "IdentityManager", "Item"),
    "/ebid/LeaveUserFeedback": ("EbidWAR", "LeaveUserFeedback", "User"),
    "/ebid/CommitUserFeedback": (
        "EbidWAR", "CommitUserFeedback", "IdentityManager", "UserFeedback", "User",
    ),
}


class OperationCategory(enum.Enum):
    """Table 1's workload categories."""

    READ_ONLY_DB = "read-only DB access"
    SESSION_LIFECYCLE = "session state init/delete"
    STATIC = "static HTML content"
    SEARCH = "search"
    SESSION_UPDATE = "session state update"
    DB_UPDATE = "database update"


#: The 25 end-user operations (the states of the §4 Markov chain):
#: name -> (category, idempotent, functional group for Figure 2).
OPERATIONS = {
    "HomePage": (OperationCategory.STATIC, True, "Browse/View"),
    "Browse": (OperationCategory.STATIC, True, "Browse/View"),
    "Help": (OperationCategory.STATIC, True, "Browse/View"),
    "LoginForm": (OperationCategory.STATIC, True, "User Account"),
    "RegisterUserForm": (OperationCategory.STATIC, True, "User Account"),
    "Authenticate": (OperationCategory.SESSION_LIFECYCLE, True, "User Account"),
    "Logout": (OperationCategory.SESSION_LIFECYCLE, True, "User Account"),
    "RegisterNewUser": (OperationCategory.SESSION_LIFECYCLE, False, "User Account"),
    "BrowseCategories": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "BrowseRegions": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "ViewItem": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "ViewPastAuctions": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "ViewUserInfo": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "ViewBidHistory": (OperationCategory.READ_ONLY_DB, True, "Browse/View"),
    "AboutMe": (OperationCategory.READ_ONLY_DB, True, "User Account"),
    "SearchItemsByCategory": (OperationCategory.SEARCH, True, "Search"),
    "SearchItemsByRegion": (OperationCategory.SEARCH, True, "Search"),
    "MakeBid": (OperationCategory.SESSION_UPDATE, True, "Bid/Buy/Sell"),
    "DoBuyNow": (OperationCategory.SESSION_UPDATE, True, "Bid/Buy/Sell"),
    "LeaveUserFeedback": (OperationCategory.SESSION_UPDATE, True, "User Account"),
    "CommitBid": (OperationCategory.DB_UPDATE, False, "Bid/Buy/Sell"),
    "CommitBuyNow": (OperationCategory.DB_UPDATE, False, "Bid/Buy/Sell"),
    "RegisterNewItem": (OperationCategory.DB_UPDATE, False, "Bid/Buy/Sell"),
    "CommitUserFeedback": (OperationCategory.DB_UPDATE, False, "User Account"),
    "SellItemForm": (OperationCategory.STATIC, True, "Bid/Buy/Sell"),
}

#: Figure 2's four functional groups.
FUNCTIONAL_GROUPS = ("Bid/Buy/Sell", "Browse/View", "Search", "User Account")


def operation_info(name):
    """(category, idempotent, functional_group) for an operation name."""
    return OPERATIONS[name]


#: One URL string per operation, shared by every request and record of it.
_OPERATION_URLS = {name: f"/ebid/{name}" for name in OPERATIONS}


def operation_url(name):
    return _OPERATION_URLS[name]
