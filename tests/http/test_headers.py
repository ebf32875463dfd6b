"""Tests for repro.http.headers."""

from __future__ import annotations

import pickle

import pytest

from repro.http.headers import Headers


class TestBasics:
    def test_get_case_insensitive(self):
        h = Headers([("User-Agent", "x")])
        assert h.get("user-agent") == "x"
        assert h.get("USER-AGENT") == "x"

    def test_get_default(self):
        assert Headers().get("X", "d") == "d"

    def test_add_preserves_multiple(self):
        h = Headers()
        h.add("Via", "a")
        h.add("Via", "b")
        assert h.get_all("via") == ["a", "b"]
        assert h.get("Via") == "a"

    def test_set_replaces(self):
        h = Headers([("X", "1"), ("X", "2")])
        h.set("x", "3")
        assert h.get_all("X") == ["3"]

    def test_remove_absent_ok(self):
        h = Headers()
        h.remove("nothing")
        assert len(h) == 0

    def test_contains(self):
        h = Headers([("A", "1")])
        assert "a" in h
        assert "b" not in h

    def test_iteration_order(self):
        h = Headers([("A", "1"), ("B", "2")])
        assert list(h) == [("A", "1"), ("B", "2")]

    def test_copy_independent(self):
        h = Headers([("A", "1")])
        c = h.copy()
        c.set("A", "2")
        assert h.get("A") == "1"

    def test_equality_case_insensitive(self):
        assert Headers([("a", "1")]) == Headers([("A", "1")])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Headers().add("", "x")


class TestFoldedNames:
    """Names are folded once, when added; every path must agree."""

    def test_lookups_fold_after_mixed_case_edits(self):
        h = Headers([("X-Mixed", "1"), ("x-mixed", "2"), ("Other", "o")])
        h.add("X-MIXED", "3")
        assert h.get("x-MiXeD") == "1"
        assert h.get_all("X-mixed") == ["1", "2", "3"]
        h.set("x-MIXED", "4")
        assert h.get_all("X-Mixed") == ["4"]
        assert "X-MIXED" in h and "x-mixed" in h
        h.remove("X-mIxEd")
        assert "x-mixed" not in h
        assert h.get_all("X-Mixed") == []
        assert list(h) == [("Other", "o")]

    def test_iteration_keeps_case_and_order(self):
        h = Headers([("B-Two", "2"), ("a-one", "1")])
        h.add("C-THREE", "3")
        h.set("b-two", "22")
        assert list(h) == [("a-one", "1"), ("C-THREE", "3"), ("b-two", "22")]

    def test_copy_edits_stay_apart(self):
        h = Headers([("A", "1"), ("B", "2")])
        c = h.copy()
        c.remove("a")
        c.add("C", "3")
        h.set("b", "x")
        assert list(h) == [("A", "1"), ("b", "x")]
        assert list(c) == [("B", "2"), ("C", "3")]
        assert c.get("A") is None and h.get("C") is None

    def test_pickle_round_trip(self):
        h = Headers([("User-Agent", "UA"), ("X-A", "1"), ("x-a", "2")])
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert list(clone) == list(h)
        assert clone.get_all("X-A") == ["1", "2"]
        clone.remove("x-a")
        assert list(clone) == [("User-Agent", "UA")]

    def test_from_folded_equals_added(self):
        entries = [("User-Agent", "UA"), ("X-A", "1")]
        adopted = Headers.from_folded(list(entries), ["user-agent", "x-a"])
        assert adopted == Headers(entries)
        assert list(adopted) == entries
        assert adopted.get_folded("user-agent") == "UA"

    def test_equality_sees_values_and_order(self):
        assert Headers([("A", "1")]) != Headers([("A", "2")])
        assert Headers([("A", "1"), ("B", "2")]) != Headers(
            [("B", "2"), ("A", "1")]
        )


class TestConvenience:
    # The detectors' fields are read by folded name, with no lower() of
    # a constant per call.
    def test_user_agent(self):
        assert Headers([("User-Agent", "UA")]).get_folded("user-agent") == "UA"
        assert Headers().get_folded("user-agent") is None
        assert Headers().get_folded("user-agent", "") == ""

    def test_referer(self):
        assert Headers([("REFERER", "r")]).get_folded("referer") == "r"

    def test_content_type(self):
        headers = Headers([("Content-Type", "text/html")])
        assert headers.get_folded("content-type") == headers.get("CONTENT-TYPE")

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("no-cache, no-store", True),
            ("no-store", True),
            ("NO-CACHE", True),
            ("max-age=60", False),
            (None, False),
        ],
    )
    def test_is_uncacheable(self, value, expected):
        h = Headers()
        if value is not None:
            h.set("Cache-Control", value)
        assert h.is_uncacheable() is expected
