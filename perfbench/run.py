"""KG-engine benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One invocation is one fresh process with one fresh Ray session on
``max(2, nproc)`` logical CPUs (``docs_near_dup_pairs`` stalls at
``num_cpus=1``: a backpressured read task holds the only slot while the
union's other branch waits).  It generates the workload's inputs from the
seed, sets up, then repeats passes of the workload's operations until S
seconds of passes are measured, checks every output against its oracle off
the clock, and prints one JSON line last on stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list; with ``--trace 1`` they are
its ``per_layer`` list, from traced passes (layers a workload does not call
read 0), and the spans go to ``.bench_build/perfbench/``.  The line before
it records the run's context: CPUs, source revision, pass and operation
walls, failures.  Inputs, outputs and the Ray session directory live under
``.bench_build/`` of the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "nlp_series_relation_extraction_ray"

RUN_DEADLINE_S = 170.0  # the process must end within 180 s
OP_TIMEOUT_S = 60.0
CLOSE_RESERVE_S = 25.0  # oracle checks and session shutdown after the last pass


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs this
    process may run on."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10, check=True).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _source_revision() -> dict:
    rev: dict = {"git_sha": None}
    if (ROOT / ".git").exists():
        try:
            rev["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted([ROOT / "__ray_entry__.py", *(ROOT / PACKAGE).rglob("*.py")]):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    rev["source_sha256"] = h.hexdigest()
    return rev


class Runner:
    """Runs passes of one workload and counts operations and failures.

    An operation is one pipeline or query call; it fails on an exception, a
    timeout or an oracle mismatch."""

    def __init__(self, workload, harness):
        self.wl, self.harness = workload, harness
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.op_walls: dict[str, list[float]] = {}
        self.hung = False  # a timed-out call still holds its thread

    def error(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg[-2000:])
        print(f"perfbench: {msg}", file=sys.stderr)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - T0)

    def call(self, fn):
        budget = min(OP_TIMEOUT_S, self.remaining() - CLOSE_RESERVE_S)
        try:
            return self.harness.call_with_timeout(fn, budget)
        except self.harness.OpTimeout:
            self.hung = True
            raise

    def measured_pass(self) -> float | None:
        """One untraced pass; its wall, or None if an operation failed."""
        self.wl.before_pass()
        outs = []
        t0 = time.perf_counter()
        for name, fn in self.wl.ops():
            self.attempted += 1
            t = time.perf_counter()
            try:
                outs.append((name, self.call(fn)))
            except Exception as e:  # noqa: BLE001 — counted as a failure
                self.error(f"{name}: {type(e).__name__}: {e}")
                return None
            self.op_walls.setdefault(name, []).append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        self._check(outs)
        return wall

    def traced_pass(self, tracer) -> float | None:
        """One layer-by-layer pass recording spans into ``tracer``."""
        self.wl.before_pass()
        t0 = time.perf_counter()
        try:
            outs = self.call(lambda: self.wl.traced_pass(tracer))
        except Exception as e:  # noqa: BLE001 — counted as a failure
            self.attempted += 1
            self.error(f"traced pass: {type(e).__name__}: {e}")
            return None
        wall = time.perf_counter() - t0
        self.attempted += len(outs)
        self._check(outs)
        return wall

    def _check(self, outs) -> None:
        for name, out in outs:
            try:
                err = self.wl.check(name, out)
            except Exception:  # noqa: BLE001 — counted as a failure
                err = f"{name}: oracle check raised\n{traceback.format_exc()}"
            if err:
                self.error(err)


def _layer_values(tracer, wall: float, base_wall: float) -> dict[str, float]:
    vals = {f"{name}_s": s for name, s in tracer.seconds_by_name().items()}
    vals.update(tracer.counts)
    vals["trace.wall_s"] = wall
    vals["trace.overhead_s"] = wall - base_wall
    vals["trace.coverage"] = tracer.top_level_seconds() / wall
    return vals


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        _fail("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} not found")
    if not (ROOT / PACKAGE).is_dir() or not (ROOT / "__ray_entry__.py").is_file():
        _fail(f"the package sources are not in {ROOT}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT))

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    nproc = _nproc()
    num_cpus = max(2, nproc)
    bench_dir = ROOT / ".bench_build" / "perfbench"
    work = bench_dir / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    run = Runner(wl, harness)

    walls: list[float] = []
    traces: list[tuple] = []
    base_wall = setup_s = rss = None
    session_up = False
    try:
        t = time.perf_counter()
        wl.prepare()  # input generation and oracle: not set-up
        gen_s = time.perf_counter() - t
        harness.start_ray(ROOT, num_cpus)
        session_up = True
        # replaces Ray's own handler, which exits without stopping the session
        signal.signal(signal.SIGTERM, harness.kill_session_and_exit)
        run.call(wl.setup)
        setup_s = time.perf_counter() - T0 - gen_s

        if args.trace:
            base_wall = run.measured_pass()
        while base_wall is not None or not args.trace:
            tracer = harness.Tracer() if args.trace else None
            wall = run.traced_pass(tracer) if tracer else run.measured_pass()
            if wall is None:
                break
            walls.append(wall)
            if tracer is not None:
                traces.append((tracer, wall))
            if (sum(walls) >= args.seconds
                    or run.remaining() - CLOSE_RESERVE_S < 1.5 * max(walls)):
                break
        rss = harness.peak_rss_mb()
    except Exception as e:  # noqa: BLE001 — the run reports it and stops
        run.attempted = max(run.attempted, 1)
        run.error(f"{type(e).__name__}: {e}\n{traceback.format_exc()}")
    finally:
        if session_up:
            harness.stop_ray()
        temp = harness.ray_temp_dir(ROOT)
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)

    wall_s = statistics.median(walls) if walls else None
    if args.trace:
        metrics = spec["per_layer"]
        per_pass = [_layer_values(tr, w, base_wall) for tr, w in traces]
        values = {m["name"]: statistics.median(p.get(m["name"], 0.0) for p in per_pass)
                  if per_pass else None for m in metrics}
        with open(bench_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump([{"pass": i, "wall_s": w, "spans": tr.spans, "counts": tr.counts}
                       for i, (tr, w) in enumerate(traces)], f)
    else:
        metrics = spec["end_to_end"]
        e2e = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss}
        values = {m["name"]: e2e[m["name"]] for m in metrics}

    turns = getattr(wl, "turns_per_pass", 0)
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
        "num_cpus": num_cpus, **_source_revision(),
        "pass_walls_s": walls, "op_walls_s": run.op_walls,
        "untraced_pass_s": base_wall,
        "turns_per_s": turns / wall_s if turns and wall_s else None,
        "errors": run.errors,
    }}))
    print(json.dumps({
        "correct": run.failed == 0 and bool(walls),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }), flush=True)
    if run.hung:
        os._exit(0)  # do not wait for the thread of the call that timed out


if __name__ == "__main__":
    main()
