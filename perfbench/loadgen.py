"""Open-loop load: requests fall due on a fixed schedule, whatever the
server does.

Request ``i`` is due at ``start + i / rate``.  A fixed pool of sender
threads takes requests in order; a sender that is free before a request is
due sleeps until then, and one that is busy sends it late.  Each request's
latency runs from when it was *due*, so a stalled request also charges its
wait to every request queued behind it, and ``late`` records how far behind
schedule each request was actually sent.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable
from urllib.parse import urlencode, urlsplit


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and whether it
    succeeded."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class OpenLoop:
    """Send ``plan[i % len(plan)]`` at ``rate`` per second until
    ``duration`` seconds have passed, through ``senders`` threads.

    ``make_send()`` is called once per thread and returns that thread's
    ``send(request) -> bool``; a raised exception counts as a failure.
    """

    def __init__(
        self,
        plan: list,
        rate: float,
        duration: float,
        make_send: Callable[[], Callable[[object], bool]],
        senders: int = 2,
    ) -> None:
        self.plan = plan
        self.rate = rate
        self.duration = duration
        self.make_send = make_send
        self.senders = senders
        self.samples: list[Sample] = []
        self._next = 0
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self.start_time = 0.0

    def start(self) -> None:
        self.start_time = time.perf_counter()
        self._threads = [
            threading.Thread(target=self._sender, daemon=True) for _ in range(self.senders)
        ]
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in self._threads):
            raise TimeoutError("load generator threads did not finish")

    def run(self) -> list[Sample]:
        self.start()
        self.join(self.duration + 60.0)
        return self.samples

    def _sender(self) -> None:
        send = self.make_send()
        local: list[Sample] = []
        total = int(self.duration * self.rate)
        while True:
            with self._lock:
                index = self._next
                self._next += 1
            if index >= total:
                break
            due = self.start_time + index / self.rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                ok = bool(send(self.plan[index % len(self.plan)]))
            except Exception:  # a failed request is a sample, not a crash
                ok = False
            local.append(Sample(due, sent, time.perf_counter(), ok))
        with self._lock:
            self.samples.extend(local)


class Client:
    """GET requests to the daemon, one connection per request (the daemon
    answers keep-alive requests with the headers and the body in separate
    writes, which Nagle's algorithm and delayed ACKs hold up by ~40 ms)."""

    def __init__(self, url: str, timeout: float = 5.0) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.timeout = timeout

    def get(self, endpoint: str, params: dict | None = None) -> tuple[int, dict]:
        path = f"/{endpoint}" + (f"?{urlencode(params)}" if params else "")
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request("GET", path, headers={"Connection": "close"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()


def http_sender(url: str) -> Callable[[], Callable[[object], bool]]:
    """``make_send`` for :class:`OpenLoop`: a request succeeds when the
    daemon answers 200 without an ``error``."""
    client = Client(url)

    def make_send():
        def send(request) -> bool:
            endpoint, params = request
            status, body = client.get(endpoint, params)
            return status == 200 and "error" not in body

        return send

    return make_send
