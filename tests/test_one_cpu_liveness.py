"""Every extraction path finishes on a one-CPU cluster.

The extraction stage runs as tasks that fuse with the read, so no stage
holds the only CPU while its upstream read waits for it.  The paths run in
a child process with its own ``ray.init(num_cpus=1)`` under a hard
timeout, and the child's Ray processes must be gone after it shuts down.
"""

import json
import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300

CHILD = r"""
import json

import numpy as np
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)

from nlp_series_relation_extraction_ray.pipelines.extract import (
    extract_triples,
)
from nlp_series_relation_extraction_ray.sources.transcripts import (
    transcripts_dataset,
)
from nlp_series_relation_extraction_ray.stages import trained_scorer as tsc

N_CONVS = 30
R, D = tsc.R_SLOTS, tsc.BIAFFINE_D


def linear(n_out):
    # fixed weights, no training: every label scores sigmoid(-10)
    return (np.zeros((tsc.F_DIM, n_out), np.float32),
            np.full(n_out, -10.0, np.float32))


baseline = linear(112)
weights = {
    "extract_triples_trained": baseline,
    "extract_triples_batched_tensor": baseline,
    "extract_triples_trained_mpn": (*linear(2), *linear(2 * R)),
    "extract_triples_trained_mhs": (*linear(2 * tsc._E1), *linear(R)),
    "extract_triples_trained_biaffine": (
        *linear(2 * tsc._E1), np.zeros((tsc.F_DIM, D), np.float32),
        np.zeros((R, D, D), np.float32), np.zeros((R, 2 * D), np.float32),
        np.full(R, -10.0, np.float32)),
}
rows = {}
for head in ("baseline", "mpn", "mhs", "biaffine"):
    rows[head] = extract_triples(transcripts_dataset(N_CONVS),
                                 head=head).count()
for name, w in weights.items():
    rows[name] = getattr(tsc, name)(transcripts_dataset(N_CONVS),
                                    ray.put(w)).count()
node = ray._private.worker._global_node
pids = [p.process.pid for procs in node.all_processes.values()
        for p in procs]
ray.shutdown()
print("RESULT " + json.dumps({"rows": rows, "pids": pids}))
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")  # an unreaped zombie has exited


def test_every_extraction_path_finishes_on_one_cpu(tmp_path):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"extraction at num_cpus=1 did not finish in {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    result = json.loads(
        next(ln for ln in out.splitlines() if ln.startswith("RESULT "))[7:])

    rows = result["rows"]
    assert set(rows) == {
        "baseline", "mpn", "mhs", "biaffine", "extract_triples_trained",
        "extract_triples_batched_tensor", "extract_triples_trained_mpn",
        "extract_triples_trained_mhs", "extract_triples_trained_biaffine"}
    assert all(rows[h] > 0 for h in ("baseline", "mpn", "mhs", "biaffine"))

    # the child's raylet, GCS and log monitor exit with its ray.shutdown()
    assert result["pids"]
    deadline = time.time() + 30
    while any(_alive(p) for p in result["pids"]) and time.time() < deadline:
        time.sleep(0.5)
    assert not [p for p in result["pids"] if _alive(p)]
