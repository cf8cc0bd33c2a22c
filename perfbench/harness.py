"""Measurement plumbing: Ray session lifetime, per-operation timeouts, spans,
process memory and the result hash used by every oracle check."""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# Ray puts AF_UNIX sockets (at most 107 bytes) at
# <temp>/session_YYYY-MM-DD_HH-MM-SS_<6-digit usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304"
                         "/sockets/plasma_store")
_UNIX_PATH_MAX = 107


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn()`` in a helper thread; raise :class:`OpTimeout` if it has not
    returned after ``timeout_s``.  A hung call keeps its thread, so the caller
    must stop measuring after a timeout."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 — re-raised in the caller
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(timeout_s, 0.0))
    if t.is_alive():
        raise OpTimeout(f"no result after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# --- Ray session -----------------------------------------------------------


def start_ray(root: Path, num_cpus: int) -> None:
    import ray
    from ray.data import DataContext

    kwargs = dict(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
        # workers import the package from the checkout, whatever the cwd
        runtime_env={"env_vars": {"PYTHONPATH": str(root)}},
    )
    temp = ray_temp_dir(root)
    if temp is not None:
        kwargs["_temp_dir"] = str(temp)
    ray.init(**kwargs)
    DataContext.get_current().enable_progress_bars = False


def ray_temp_dir(root: Path) -> Path | None:
    """Session directory inside the checkout, or None (Ray's default) when the
    checkout path is too long for Ray's socket paths."""
    temp = root / ".bench_build" / "ray"
    if len(str(temp)) + _RAY_SOCKET_SUFFIX > _UNIX_PATH_MAX:
        return None
    return temp


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants() -> list[int]:
    """All live descendants of this process."""
    kids = _children_map()
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            m = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
    except OSError:
        return 0
    return int(m.group(1)) if m else 0


def peak_rss_mb() -> float:
    """Sum of peak resident set sizes of this process and every process of its
    Ray session, read once."""
    pids = [os.getpid(), *descendants()]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":
        try:  # reap it if it is ours; otherwise its parent will
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


def stop_ray(grace_s: float = 20.0) -> None:
    """Shut the session down and wait until every process it started has
    ended, killing any that outlive ``grace_s``."""
    import ray

    pids = descendants()
    try:
        call_with_timeout(ray.shutdown, grace_s)
    except OpTimeout:
        pass
    deadline = time.monotonic() + grace_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)


def kill_session_and_exit(signum, _frame) -> None:
    """Signal handler: kill every process of the session, then exit."""
    pids = descendants()
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(128 + signum)


# --- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans ``{name, start, end, parent}`` (``parent`` indexes the
    enclosing span in :attr:`spans`) plus named counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def seconds_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)


_CPU_RE = re.compile(r"Remote cpu time: .*?([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def stats_cpu_s(ds) -> float:
    """Task CPU seconds summed over every operator ``ds.stats()`` lists
    (the materialized dataset's whole lineage)."""
    return sum(float(v) * _UNIT[u] for v, u in _CPU_RE.findall(ds.stats()))


# --- result hashing ----------------------------------------------------------


def frame_hash(df) -> str:
    """Order-insensitive content hash of a result frame (``bench.py``'s
    canonical form: sorted columns, stringified values, sorted rows)."""
    from bench import _canon_for_hash, _frame_hash

    return _frame_hash(_canon_for_hash(df))
