"""The per-request records built in one step: ``Request``, ``Response``
and ``Verdict``.

Each one's constructor adopts its field dict whole instead of running the
dataclass-generated ``__init__``.  Every test here holds a record to what
the generated constructor gave: the twins below are those classes as
``@dataclass(frozen=True)`` writes them, with the checks their
``__post_init__`` made, and a record must compare, print, copy, pickle
and refuse exactly as its twin does.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import FrozenInstanceError, dataclass, field

import pytest

from repro.detection.verdict import Label, Verdict
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.status import status_class
from repro.http.uri import Url

URL = Url.parse("http://h.example/a.html?q=1")


@dataclass(frozen=True)
class RequestTwin:
    method: Method
    url: Url
    client_ip: str
    headers: Headers = field(default_factory=Headers)
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.client_ip:
            raise ValueError("client_ip must be non-empty")


@dataclass(frozen=True)
class ResponseTwin:
    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes | memoryview = b""
    served_from_cache: bool = False

    def __post_init__(self) -> None:
        status_class(self.status)


@dataclass(frozen=True)
class VerdictTwin:
    label: Label
    reason: str
    definitive: bool = False
    at_request: int = 0


def _headers() -> Headers:
    return Headers([("User-Agent", "UA/1.0"), ("Referer", "http://h.example/")])


#: (record class, its twin, positional arguments) for each record.
CASES = {
    "request": (
        Request, RequestTwin, (Method.GET, URL, "10.0.0.1", _headers(), 1.5),
    ),
    "response": (
        Response, ResponseTwin, (302, _headers(), b"<html></html>", True),
    ),
    "verdict": (
        Verdict, VerdictTwin, (Label.ROBOT, "outside S_H", True, 7),
    ),
}
_PARAMS = pytest.mark.parametrize(
    "cls, twin, args", CASES.values(), ids=CASES.keys()
)


def _names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _state(record) -> tuple:
    return tuple(getattr(record, name) for name in _names(type(record)))


class TestLikeTheGeneratedConstructor:
    @_PARAMS
    def test_fields_in_order(self, cls, twin, args):
        assert _names(cls) == _names(twin)
        fields, twin_fields = dataclasses.fields(cls), dataclasses.fields(twin)
        for mine, theirs in zip(fields, twin_fields):
            assert (mine.default, mine.default_factory) == (
                theirs.default, theirs.default_factory
            )

    @_PARAMS
    def test_positional_and_keyword_calls(self, cls, twin, args):
        keywords = dict(zip(_names(cls), args))
        expected = _state(twin(*args))
        assert _state(cls(*args)) == expected
        assert _state(cls(**keywords)) == expected
        assert _state(cls(*args[:2], **dict(list(keywords.items())[2:]))) == expected

    @_PARAMS
    def test_defaults(self, cls, twin, args):
        required = [
            f for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        made = cls(*args[: len(required)])
        assert _state(made) == _state(twin(*args[: len(required)]))

    @_PARAMS
    def test_equality_and_repr(self, cls, twin, args):
        record = cls(*args)
        assert record == cls(*args)
        assert record != twin(*args)  # another class, as dataclasses say
        assert repr(record) == repr(twin(*args)).replace(
            twin.__name__, cls.__name__, 1
        )
        changed = dataclasses.replace(record, **{_names(cls)[1]: args[0]})
        assert changed != record

    @_PARAMS
    def test_hash(self, cls, twin, args):
        if cls is Verdict:
            assert hash(cls(*args)) == hash(cls(*args))
            assert len({cls(*args), cls(*args)}) == 1
        else:
            # ``Headers`` is mutable, so neither twin hashes: nor does the record.
            with pytest.raises(TypeError):
                hash(twin(*args))
            with pytest.raises(TypeError):
                hash(cls(*args))

    @_PARAMS
    def test_frozen(self, cls, twin, args):
        record = cls(*args)
        for name in _names(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, args[0])
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert _state(record) == _state(cls(*args))

    @_PARAMS
    def test_replace(self, cls, twin, args):
        record = cls(*args)
        for name, value in zip(_names(cls), args):
            copy = dataclasses.replace(record, **{name: value})
            assert type(copy) is cls and copy == record
        last = _names(cls)[-1]
        moved = dataclasses.replace(record, **{last: 0})
        assert getattr(moved, last) == 0
        assert _state(moved)[:-1] == _state(record)[:-1]

    @_PARAMS
    def test_pickle(self, cls, twin, args):
        record = cls(*args)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls
            assert copy == record
            assert repr(copy) == repr(record)


class TestRefusals:
    def test_an_empty_client_ip(self):
        for ip in ("", None):
            with pytest.raises(ValueError, match="^client_ip must be non-empty$"):
                Request(Method.GET, URL, ip)
            with pytest.raises(ValueError, match="^client_ip must be non-empty$"):
                RequestTwin(Method.GET, URL, ip)

    @pytest.mark.parametrize(
        "status", [99, 600, 0, -200, True, 199.5, 1000], ids=repr
    )
    def test_a_status_outside_100_599(self, status):
        with pytest.raises(ValueError) as twin_refusal:
            ResponseTwin(status)
        with pytest.raises(ValueError) as refusal:
            Response(status)
        assert str(refusal.value) == str(twin_refusal.value)
        assert str(refusal.value) == f"invalid HTTP status code: {status}"

    @pytest.mark.parametrize("status", ["200", None, b"200"], ids=repr)
    def test_a_status_that_is_no_number(self, status):
        with pytest.raises(TypeError):
            ResponseTwin(status)
        with pytest.raises(TypeError):
            Response(status)

    @pytest.mark.parametrize("status", [100, 200, 302, 599, 250.0], ids=repr)
    def test_every_status_the_twin_takes(self, status):
        assert Response(status) == Response(status)
        assert Response(status).status == ResponseTwin(status).status


class TestOwnHeaders:
    def test_default_headers_are_not_shared(self):
        for make in (
            lambda: Request(Method.GET, URL, "10.0.0.1"),
            lambda: Response(200),
        ):
            first, second = make(), make()
            assert first.headers is not second.headers
            first.headers.add("X-A", "1")
            assert len(second.headers) == 0
            assert len(make().headers) == 0

    def test_none_is_a_fresh_empty_headers(self):
        request = Request(Method.GET, URL, "10.0.0.1", None)
        assert isinstance(request.headers, Headers) and len(request.headers) == 0
        assert Response(200, None).headers == Headers()

    def test_a_passed_headers_object_is_adopted(self):
        headers = _headers()
        assert Request(Method.GET, URL, "10.0.0.1", headers).headers is headers
        assert Response(200, headers).headers is headers


class TestMemoryviewBody:
    def test_a_view_body_pickles_as_its_bytes(self):
        buffer = bytes(range(256)) * 4
        view = memoryview(buffer)[16:80].toreadonly()
        response = Response(200, _headers(), view)
        assert response.body is view
        copy = pickle.loads(pickle.dumps(response))
        assert type(copy.body) is bytes
        assert copy.body == bytes(view)
        assert copy == response
        assert copy.size == response.size == 64
        assert response.body is view  # pickling leaves the original as is

    def test_replace_keeps_the_view(self):
        view = memoryview(b"abcdef").toreadonly()
        response = dataclasses.replace(Response(200, body=view), status=404)
        assert response.body is view and response.status == 404
