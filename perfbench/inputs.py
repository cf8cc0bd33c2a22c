"""Seeded benchmark inputs, written as Parquet under the run's work directory.

Everything here is a pure function of ``seed`` and a size, so the same seed
always gives byte-identical inputs.  Generation runs in the benchmark
process with pyarrow/numpy only (no Ray), before any clock starts.  The query mix
reads fixed tables instead (``workloads.FIXTURE_TABLES``).
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# conv_id renders as conv-%06d, so sampled conversation indices stay below 1e6
_CONV_ID_SPACE = 1_000_000


def conversation_ids(seed: int, n_convs: int) -> list[int]:
    """Sorted distinct conversation indices drawn by ``seed``."""
    return sorted(random.Random(seed).sample(range(_CONV_ID_SPACE), n_convs))


def write_corpus(out_dir: Path, seed: int, n_convs: int, n_files: int = 8):
    """Transcript corpus of ``n_convs`` seeded conversations as ``n_files``
    Parquet files with rows in seeded order (the pipelines must restore turn
    order themselves).  Returns ``(conversation ids, number of turns)``."""
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_block,
    )

    ids = conversation_ids(seed, n_convs)
    tbl = transcripts_block(ids)
    tbl = tbl.take(pa.array(np.random.default_rng(seed).permutation(tbl.num_rows)))
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = np.linspace(0, tbl.num_rows, n_files + 1).astype(int)
    for f in range(n_files):
        pq.write_table(tbl.slice(bounds[f], bounds[f + 1] - bounds[f]),
                       out_dir / f"part-{f:02d}.parquet")
    return ids, tbl.num_rows


def write_doc_ids(path: Path, ids) -> None:
    """``documents(doc_id)`` table the fixture SQL oracle expands into the
    same conversations the corpus holds."""
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), path)
