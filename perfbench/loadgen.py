"""Closed- and open-loop HTTP load over at most two kept-alive connections.

A closed loop models callers that each wait for their reply: a client
sends its next request only after the previous one returned, so a slow
server receives less load.  An open loop models independent users:
request ``i`` is due at ``start + i / rate`` whatever the server is
doing, and its latency is measured from that due time, so a stall is
charged to every request queued behind it.  How late the generator
itself sent each request is recorded too.
"""

from __future__ import annotations

import hashlib
import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from workloads import Request

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request as the client saw it (monotonic-clock seconds)."""

    op: str
    due: float
    sent: float
    done: float
    status: int  # 0 on transport error or timeout
    ok: bool
    response_bytes: int
    body_digest: str
    payload: Optional[bytes] = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def body_digest(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()


class Client:
    """One kept-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        return self._connection

    def post(self, path: str, body: bytes):
        """``(status, payload bytes)``; status 0 on a transport error."""
        connection = self._connect()
        try:
            connection.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def get(self, path: str):
        connection = self._connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def send(client: Client, request: Request, due: float, keep: bool,
         check: Callable[[Request, bytes], bool]) -> Sample:
    sent = time.monotonic()
    status, payload = client.post(request.path, request.data)
    done = time.monotonic()
    ok = status == 200 and check(request, payload)
    return Sample(
        op=request.op, due=min(due, sent), sent=sent, done=done,
        status=status, ok=ok, response_bytes=len(payload),
        body_digest=body_digest(request.data),
        payload=payload if keep else None,
    )


def closed_loop(
    port: int,
    requests: Sequence[Request],
    seconds: float,
    *,
    clients: int,
    check: Callable[[Request, bytes], bool],
    keep_payloads: bool = False,
) -> List[Sample]:
    """``clients`` callers walk one shared request sequence in order.

    Requests are taken until the run's ``seconds`` have elapsed; a
    request taken before then completes and counts.
    """
    lock = threading.Lock()
    cursor = iter(requests)
    samples: List[Sample] = []
    deadline = time.monotonic() + seconds

    def worker() -> None:
        client = Client(port)
        try:
            while time.monotonic() < deadline:
                with lock:
                    request = next(cursor, None)
                if request is None:
                    return
                sample = send(client, request, time.monotonic(),
                              keep_payloads, check)
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    _run_workers(worker, clients)
    if len(samples) >= len(requests):
        raise RuntimeError("closed loop ran out of generated requests")
    return samples


def open_loop(
    port: int,
    pick: Callable[[int], Request],
    seconds: float,
    *,
    rate: float,
    connections: int,
    check: Callable[[Request, bytes], bool],
) -> List[Sample]:
    """Request ``i`` is due at ``start + i / rate``; ``connections``
    senders take due requests in order."""
    lock = threading.Lock()
    total = int(seconds * rate)
    next_index = [0]
    samples: List[Sample] = []
    start = time.monotonic() + 0.05

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    index = next_index[0]
                    if index >= total:
                        return
                    next_index[0] += 1
                due = start + index / rate
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sample = send(client, pick(index), due, False, check)
                with lock:
                    samples.append(sample)
        finally:
            client.close()

    _run_workers(worker, connections)
    return samples


def _run_workers(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * 4)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")

