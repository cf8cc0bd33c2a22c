"""Cluster job entrypoint for `ray job submit`.

Production invocation on a multi-node cluster (north_rule shape), with
``--input`` and ``--output`` on a filesystem every node mounts (the
checkpoint manifests are written with local file I/O):

    ray job submit --address http://<head>:8265 \
      --working-dir . -- python jobs/kg_job.py \
      --input /mnt/corpus/transcripts/ --output /mnt/corpus/kg/ \
      --head baseline --partitions 4096

The job attaches to the cluster that ``RAY_ADDRESS`` names, which `ray job
submit` always sets; for a cluster started by hand with `ray start`, run it
with ``RAY_ADDRESS=auto``.  Without ``RAY_ADDRESS`` it starts its own local
session (``address="local"``), whose workers import the package from this
checkout through ``PYTHONPATH``, whatever the cwd; it never attaches to
another Ray session that happens to run on the machine.  It runs
the resumable partitioned KG build (`pipelines/kg.py::build_kg_resumable`:
extraction over at most ``--partitions`` groups of the input's Parquet
files, then nodes and edges), and prints the per-stage, per-partition
metrics JSON.  Resubmitting the same job skips every finished partition.
Run the identical job on an N-node and a 4N-node cluster to measure
scaling efficiency (the single-node stand-in lives in `bench.py
--scaling`; see BASELINE.md for the measured evidence and control
methodology).

In this sandbox there is no multi-node cluster or job server — the module
is exercised through its `main(argv)` function against a local session
(tests) and documents the deployment contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parent.parent)
sys.path.insert(0, ROOT)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="transcript Parquet directory")
    ap.add_argument("--output", required=True)
    ap.add_argument("--head", default="baseline",
                    choices=["baseline", "mpn", "mhs", "biaffine"])
    ap.add_argument("--partitions", type=int, default=64)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        if os.environ.get("RAY_ADDRESS"):
            ray.init()  # the cluster RAY_ADDRESS names; never run locally
        else:
            path = os.pathsep.join(
                p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
            ray.init(address="local",
                     runtime_env={"env_vars": {"PYTHONPATH": path}})

    from nlp_series_relation_extraction_ray.pipelines.kg import (
        build_kg_resumable,
    )

    summary = build_kg_resumable(args.input, args.output, head=args.head,
                                 n_partitions=args.partitions)["summary"]
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    main()
