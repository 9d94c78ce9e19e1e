"""A ``python -m repro serve`` subprocess and the raw-bytes HTTP client the
serve workloads drive it with.

The server runs with its default options on an ephemeral port, in its own
session so that a sharded server's workers can be waited for as a group.
Stopping sends SIGTERM, then waits until every process of the group has
ended.  The sharded front end shuts its workers down on SIGTERM; the
single-process one just exits.  (SIGINT would not do: a process started in
the background may inherit it ignored.)
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def clean_env(root: str) -> dict:
    """The environment for a server: no ``REPRO_*`` knobs, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Server:
    """One serving front end, untraced (``python -m repro serve``) or traced
    (the same CLI entry point started by ``perfbench/launch.py``)."""

    def __init__(self, root: str, out_dir: str, processes=None, spans_dir=None):
        serve_args = ["serve", "--port", "0"]
        if processes is not None:
            serve_args += ["--processes", str(processes)]
        if spans_dir is None:
            argv = [sys.executable, "-u", "-m", "repro"] + serve_args
        else:
            launcher = os.path.join(root, "perfbench", "launch.py")
            argv = [sys.executable, "-u", launcher, "--spans", spans_dir] + serve_args
        os.makedirs(out_dir, exist_ok=True)
        self.log_path = os.path.join(out_dir, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "w+b")
        self._cpu_pids = None
        self.process = subprocess.Popen(
            argv,
            cwd=root,
            env=clean_env(root),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:  # includes the SystemExit of a SIGTERM mid-boot
            self.stop(keep_log=True)
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as fh:
                match = _LISTENING.search(fh.read().decode("utf-8", "replace"))
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def request(self, method: str, path: str, body: bytes) -> "tuple[int, bytes]":
        """One request on a fresh connection: ``(status, response bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def request_json(self, method: str, path: str, body: bytes) -> "tuple[int, dict]":
        status, data = self.request(method, path, body)
        return status, json.loads(data)

    def cpu_seconds(self) -> float:
        """CPU time used so far by the server's process tree, read from each
        process's CPU-time clock (nanosecond resolution; time the host stole
        from the virtual machine is not counted).  The tree is listed on the
        first call, once the server is up."""
        if self._cpu_pids is None:
            self._cpu_pids = _tree(self.process.pid)
        return sum(_cpu_clock_s(pid) for pid in self._cpu_pids)

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the server's process tree."""
        total_kb = 0
        for pid in _tree(self.process.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass  # exited between listing and reading
        return total_kb / 1024.0

    def stop(self, keep_log: bool = False) -> None:
        """Shut down cleanly and wait for the whole process group to end.

        The server's log is removed unless *keep_log* (a failed boot) or the
        server exited with an error.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_alive(self.process.pid):
            if time.monotonic() > deadline:
                _killpg(self.process.pid, signal.SIGKILL)
                deadline = time.monotonic() + STOP_TIMEOUT_S
            time.sleep(0.02)
        self._log.close()
        if not keep_log and self.process.returncode in (0, -signal.SIGTERM):
            os.remove(self.log_path)


def _tree(pid: int) -> "list[int]":
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        try:
            with open(f"/proc/{current}/task/{current}/children", encoding="ascii") as fh:
                todo.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return out


def _cpu_clock_s(pid: int) -> float:
    """*pid*'s process CPU time, from the clock ``clock_getcpuclockid(3)``
    gives on Linux; 0 once the process has gone."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return 0.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # killpg(0) also succeeds for zombies; a group whose members are all
    # zombies of other parents is gone for our purposes.
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _killpg(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass
