"""One ``repro serve`` process per phase, owned from spawn to reap.

The benchmark never attaches to a server it did not start: each server
binds port 0, the port is read from the line the server prints, and the
socket listening on it must belong to the spawned pid.  The server runs
in its own session, so its whole tree (router, replicas, shard workers,
the multiprocessing resource tracker) shares one process group that is
drained with SIGTERM and then killed on every exit path.  A process of
that group or a ``/dev/shm`` segment still present after the drain fails
the run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

_PORT_LINE = re.compile(r"on http://[^:\s]+:(\d+)")
_SHM = Path("/dev/shm")


class ServerError(RuntimeError):
    """The server failed to start, answered wrongly, or left debris."""


def _shm_entries() -> set:
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


def _group_pids(pgid: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


def _tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants, via ``/proc/*/task/*/children``."""
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return pids


def _peak_rss_bytes(pid: int) -> int:
    """The process's own resident high-water mark (``VmHWM``).

    The kernel keeps it, so a peak between two samples is not missed and
    memory freed again (a garbage-collected view, a retired shard pool)
    does not make the figure depend on when the sample fell.
    """
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    return 0


def _listening_inode(port: int) -> Optional[str]:
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    local, state, inode = fields[1], fields[3], fields[9]
                    if state == "0A" and int(local.rsplit(":", 1)[1], 16) == port:
                        return inode
        except OSError:
            continue
    return None


def _owns_socket(pid: int, inode: str) -> bool:
    target = f"socket:[{inode}]"
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return False
    for fd in fds:
        try:
            if os.readlink(f"/proc/{pid}/fd/{fd}") == target:
                return True
        except OSError:
            continue
    return False


class ServerProcess:
    """A spawned server: start, query, sample memory, drain, verify gone."""

    def __init__(
        self,
        args: Sequence[str],
        *,
        workdir: Path,
        src: Path,
        launcher: Optional[Path] = None,
        trace_out: Optional[Path] = None,
        start_timeout: float = 120.0,
        cpus: Optional[set] = None,
    ) -> None:
        self.args = list(args)
        self.workdir = workdir
        self.src = src
        self.launcher = launcher
        self.trace_out = trace_out
        self.start_timeout = start_timeout
        self.cpus = cpus
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.peak_rss = 0  # max over samples of the live tree's summed VmHWM
        self._lines: List[str] = []
        self._shm_before: set = set()
        self._sampling = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        self._reader: Optional[threading.Thread] = None
        self._stderr = None

    # ------------------------------------------------------------------
    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.workdir)
        if self.launcher is not None:
            command = [sys.executable, str(self.launcher)]
            if self.trace_out is not None:
                command += ["--trace-out", str(self.trace_out)]
            command += ["--", "serve", *self.args, "--port", "0"]
        else:
            command = [sys.executable, "-m", "repro", "serve", *self.args,
                       "--port", "0"]
        self._shm_before = _shm_entries()
        self._stderr = open(self.workdir / "server.stderr", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            cwd=str(self.workdir),
            env=env,
            start_new_session=True,
            preexec_fn=(
                None if self.cpus is None
                else lambda: os.sched_setaffinity(0, self.cpus)
            ),
        )
        try:
            self.port = self._read_port(started + self.start_timeout)
            self._verify_owner()
            self._wait_healthy(started + self.start_timeout)
        except BaseException:
            self.stop(check=False)
            raise
        self.setup_s = time.perf_counter() - started
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        return self

    def _read_port(self, deadline: float) -> int:
        assert self.process is not None and self.process.stdout is not None
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            raw = stdout.readline()
            if not raw:
                raise ServerError(
                    f"server exited before announcing its port "
                    f"(code {self.process.wait()}); see server.stderr"
                )
            line = raw.decode("utf-8", "replace").rstrip()
            self._lines.append(line)
            match = _PORT_LINE.search(line)
            if match:
                self._reader = threading.Thread(
                    target=self._drain_stdout, daemon=True
                )
                self._reader.start()
                return int(match.group(1))
        raise ServerError("server did not announce a port in time")

    def _drain_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for raw in self.process.stdout:
            self._lines.append(raw.decode("utf-8", "replace").rstrip())

    def _verify_owner(self) -> None:
        inode = _listening_inode(self.port)
        if inode is None or not _owns_socket(self.process.pid, inode):
            raise ServerError(
                f"port {self.port} is not held by the spawned server "
                f"(pid {self.process.pid})"
            )

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ServerError("server exited during start-up")
            try:
                status, payload = self.get("/healthz", timeout=5.0)
            except (OSError, http.client.HTTPException):
                time.sleep(0.02)
                continue
            if status == 200 and payload.get("status") == "ok":
                return
            time.sleep(0.02)
        raise ServerError("server never reported healthy")

    # ------------------------------------------------------------------
    def get(self, path: str, timeout: float = 30.0):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stats(self) -> dict:
        status, payload = self.get("/stats")
        if status != 200:
            raise ServerError(f"/stats answered {status}")
        return payload

    def _sample(self) -> None:
        root = self.process.pid
        while not self._sampling.wait(0.5):
            total = sum(_peak_rss_bytes(pid) for pid in _tree_pids(root))
            self.peak_rss = max(self.peak_rss, total)

    @property
    def output(self) -> List[str]:
        return list(self._lines)

    # ------------------------------------------------------------------
    def stop(self, *, check: bool = True, drain_timeout: float = 60.0) -> None:
        """SIGTERM-drain, then kill whatever is left of the tree.

        With ``check`` the run fails if any process of the group or any
        new ``/dev/shm`` segment outlived the drain.
        """
        self._sampling.set()
        if self._sampler is not None:
            self._sampler.join(5.0)
        process = self.process
        if process is None:
            return
        pgid = process.pid
        leftovers: List[str] = []
        if process.poll() is None:
            try:
                os.killpg(pgid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                process.wait(drain_timeout)
            except subprocess.TimeoutExpired:
                leftovers.append(f"server pid {pgid} ignored SIGTERM")
        # Children may need a moment to notice their parent is gone.
        deadline = time.monotonic() + 10.0
        while _group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = _group_pids(pgid)
        if survivors:
            leftovers.append(f"processes {survivors} outlived the drain")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if process.poll() is None:
            process.wait(10.0)
        if self._reader is not None:
            self._reader.join(5.0)
        if process.stdout is not None:
            process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        stale = sorted(_shm_entries() - self._shm_before)
        for name in stale:
            try:
                os.unlink(_SHM / name)
            except OSError:
                pass
        if stale:
            leftovers.append(f"/dev/shm segments {stale} outlived the drain")
        self.process = None
        if check and leftovers:
            raise ServerError("; ".join(leftovers))

