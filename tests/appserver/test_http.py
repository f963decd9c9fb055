"""Unit tests for the HTTP types."""

from repro.appserver.http import (
    HttpRequest,
    HttpResponse,
    HttpStatus,
    error_response,
    exception_page,
    longest_prefix,
)


def test_request_ids_are_unique():
    first = HttpRequest(url="/a", operation="a")
    second = HttpRequest(url="/a", operation="a")
    assert first.request_id != second.request_id


def test_response_defaults():
    response = HttpResponse(HttpStatus.OK)
    assert not response.is_error_status
    assert not response.network_error
    assert response.retry_after is None


def test_error_status_detection():
    assert HttpResponse(HttpStatus.NOT_FOUND).is_error_status
    assert HttpResponse(HttpStatus.INTERNAL_SERVER_ERROR).is_error_status
    assert HttpResponse(HttpStatus.SERVICE_UNAVAILABLE).is_error_status
    assert not HttpResponse(HttpStatus.OK).is_error_status


def test_error_response_carries_keywords():
    response = error_response(HttpStatus.INTERNAL_SERVER_ERROR, "boom")
    assert response.is_error_status
    assert "error" in response.body
    assert "boom" in response.body


def test_exception_page_is_200_with_telltale_text():
    """Incorrectly-handled exceptions render polite 200 pages (§5.1) —
    only the keyword scan catches them."""
    response = exception_page("NullPointerException")
    assert response.status == HttpStatus.OK
    assert "exception" in response.body.lower()


def test_comparable_payload_strips_volatile_keys():
    response = HttpResponse(
        HttpStatus.OK,
        payload={"item_id": 3, "elapsed": 0.012, "served_by": "node1",
                 "price": 10},
    )
    assert response.comparable_payload() == {"item_id": 3, "price": 10}


def test_longest_prefix_prefers_the_longest_then_the_first():
    prefixes = ["/ebid", "/ebid/View", "/ebid/ViewItem", "/static"]
    assert longest_prefix("/ebid/ViewItem?id=3", prefixes) == "/ebid/ViewItem"
    assert longest_prefix("/ebid/ViewUserInfo", prefixes) == "/ebid/View"
    assert longest_prefix("/nowhere", prefixes) is None
    first, second = "/a/b", "".join(["/a", "/b"])
    assert longest_prefix("/a/bc", [first, second]) is first
