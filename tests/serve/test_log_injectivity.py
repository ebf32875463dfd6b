"""The access log is injective: a live client cannot write a request
that the offline replay then fails to read.

Each request below made its own line vanish from (or split in) the
log before PR 19 — a header value with a bare CR, a tab inside the
request target, whitespace in ``Host``, a forged two-token
``X-Forwarded-For`` hop, a literal ``-`` for a User-Agent.  The
contract: the front door answers 400 and logs nothing, or the line it
writes reads back as exactly the record it logged.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.http.message import Request, Response
from repro.serve.http11 import HttpParseError, parse_request, read_response
from repro.serve.server import DetectorServer, ServeConfig
from repro.trace.clf import (
    ParseStats,
    TraceRecord,
    format_clf_line,
    read_trace,
)
from repro.util.rng import RngStream
from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

HOST = "127.0.0.1"

EVASIONS = {
    "bare CR in a header value": (
        b"GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n"
        b"User-Agent: a\rb\r\nReferer: http://www.example.com/\x0bx\r\n\r\n"
    ),
    "tab in the request target": (
        b"GET /a\tb HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: UA\r\n\r\n"
    ),
    "whitespace in Host": (
        b"GET /index.html HTTP/1.1\r\nHost: www.example.com evil\r\n"
        b"User-Agent: UA\r\n\r\n"
    ),
    "control character in the target": (
        b"GET /a\x00b?q=\x7f HTTP/1.1\r\nHost: www.example.com\r\n\r\n"
    ),
    "NEL in the query": (
        b"GET /a?q=\x85 HTTP/1.1\r\nHost: www.example.com\r\n\r\n"
    ),
    "literal dash for a User-Agent": (
        b"GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n"
        b"User-Agent: -\r\nReferer: -\r\n\r\n"
    ),
    "quotes and backslashes": (
        b'GET /a"b\\c HTTP/1.1\r\nHost: www.example.com\r\n'
        b'User-Agent: "\\x0d\\\r\n\r\n'
    ),
}


@pytest.mark.parametrize("raw", EVASIONS.values(), ids=EVASIONS.keys())
def test_refused_or_logged_as_one_line_that_reads_back(raw, tmp_path):
    try:
        parsed, _ = parse_request(bytearray(raw))
    except HttpParseError as error:
        assert error.status == 400
        return
    request = Request(
        parsed.method, parsed.url, "10.9.8.7", parsed.headers, timestamp=1.5
    )
    record = TraceRecord.from_exchange(request, Response(200, body=b"ok"))
    path = tmp_path / "access.log"
    # Written as the server writes it: no newline translation.
    path.write_bytes((format_clf_line(record) + "\n").encode("utf-8"))
    stats = ParseStats()
    assert list(read_trace(str(path), stats=stats)) == [record]
    assert (stats.lines, stats.parsed, stats.malformed) == (1, 1, 0)


def test_a_live_log_replays_line_for_line(tmp_path):
    """The same requests through a listening server, plus the forged
    ``X-Forwarded-For`` hops only ``_dispatch`` sees."""
    trace_path = str(tmp_path / "live.log")
    forged = {
        b"10.1.1.1 evil": None,  # two tokens: the peer address stands
        b"10.1.1.1\tx, 10.2.2.2": None,
        b"  10.3.3.3  , 10.2.2.2": "10.3.3.3",
        b"": None,
    }

    async def exchange(port: int, raw: bytes) -> int:
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(raw.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"))
        status, _, _, _ = await asyncio.wait_for(read_response(reader), 10)
        writer.close()
        await writer.wait_closed()
        return status

    async def go():
        experiment = CodeenWeekExperiment(
            CodeenWeekConfig(n_sessions=2, n_nodes=1, seed=7)
        )
        network, _ = experiment.build_network(RngStream(7, "record"))
        server = DetectorServer(
            network, default_host="www.example.com",
            config=ServeConfig(trace_path=trace_path),
        )
        await server.start()
        try:
            statuses = [
                await exchange(server.port, raw) for raw in EVASIONS.values()
            ]
            for hop in forged:
                raw = (
                    b"GET / HTTP/1.1\r\nHost: www.example.com\r\n"
                    b"X-Forwarded-For: " + hop + b"\r\n\r\n"
                )
                statuses.append(await exchange(server.port, raw))
        finally:
            await server.close()
        return server, statuses

    server, statuses = asyncio.run(go())
    answered = [status for status in statuses if status != 400]
    assert len(server.records) == len(answered) >= len(forged) + 2
    stats = ParseStats()
    assert list(read_trace(trace_path, stats=stats)) == server.records
    assert stats.malformed == 0 and stats.parsed == stats.lines
    assert [r.client_ip for r in server.records[-len(forged):]] == [
        hop or "127.0.0.1" for hop in forged.values()
    ]
