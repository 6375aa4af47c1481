"""Process, HTTP and statistics helpers for the benchmark workloads.

Everything here talks to the program through its real entry points:
``python -m repro ...`` subprocesses, the ``repro serve`` daemon over
keep-alive HTTP, and the files those commands write.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Longest any single program run may take before it is killed.
COMMAND_TIMEOUT_S = 150.0

_seq = itertools.count()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CACHE_DIR", None)
    return env


def repro(*args) -> list[str]:
    """argv for ``python -m repro ARGS``."""
    return [PYTHON, "-m", "repro", *map(str, args)]


def launched(out: Path, *args, spans: bool = True) -> list[str]:
    """argv for the traced launcher around ``repro ARGS``."""
    return [PYTHON, str(LAUNCHER), "--out", str(out),
            *([] if spans else ["--no-spans"]), "--", *map(str, args)]


@dataclass
class Measured:
    """One finished program run, measured from outside."""

    returncode: int
    wall_s: float
    cpu_s: float          # user + sys, including reaped descendants
    peak_rss_mb: float    # largest RSS of the process or a descendant
    stdout: bytes
    stderr_path: Path

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_measured(argv, workdir: Path,
                 timeout: float = COMMAND_TIMEOUT_S) -> Measured:
    """Run ``argv`` to completion; resource use comes from ``wait4``."""
    n = next(_seq)
    out_path = workdir / f"cmd-{n}.out"
    err_path = workdir / f"cmd-{n}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(returncode=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    stdout=out_path.read_bytes(), stderr_path=err_path)


def tail(path: Path, lines: int = 15) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


class Daemon:
    """One ``repro serve --port 0`` process on a fresh cache."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, workdir: Path, spans_out: Path | None = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        args = ("serve", "--port", 0, "--cache-dir", workdir / "cache",
                "--sweep-dir", workdir / "sweeps")
        argv = launched(spans_out, *args) if spans_out else repro(*args)
        self.err_path = workdir / "daemon.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                         stderr=err, cwd=ROOT,
                                         env=child_env())
        try:
            self.port = self._read_port()
        except Exception:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self.BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        # "repro-serve listening on http://127.0.0.1:PORT (...)"
        if "listening on http://" not in line:
            raise RuntimeError("daemon did not start:\n"
                               + tail(self.err_path))
        return int(line.split("listening on http://", 1)[1]
                   .split()[0].rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        """User + sys CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int | None:
        """SIGINT (the daemon's clean shutdown), then kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def post(self, path: str, body: dict, request_id: str | None = None):
        """``(status, payload)``; status 0 when the transport failed."""
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        try:
            self.conn.request("POST", path, body=json.dumps(body).encode(),
                              headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.conn.close()
            return 0, {"error": repr(exc)}

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def source_identity() -> str:
    """The git commit, or a digest of ``src/`` where there is no repo."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        commit = None
    if commit is not None and commit.returncode == 0:
        return commit.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment() -> dict:
    """Where the run happened; results from different CPU counts must
    never be compared silently."""
    import numpy
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source": source_identity(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def finish_environment(env: dict, ticks_at_start: tuple[int, int]) -> None:
    """Add the end-of-run load and the CPU time the hypervisor stole
    (a share of all CPU time; high values explain slow, noisy runs)."""
    steal0, total0 = ticks_at_start
    steal1, total1 = cpu_ticks()
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
