"""Extraction runs in one fused task per block.

Ray fuses a Read only with a map that sets no ``batch_size``, so
``stages.base.map_turns`` maps whole blocks.  The Ray tests pin the
physical plan: over Parquet, each extraction is one
``ReadParquet->MapBatches(...)`` operator.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nlp_series_relation_extraction_ray.pipelines import extract
from nlp_series_relation_extraction_ray.sources.transcripts import (
    transcripts_block,
)
from test_graph_analytics import _count_executions

HEADS = ("baseline", "mpn", "mhs", "biaffine")


def _block(n_convs: int = 60, seed: int = 3) -> pa.Table:
    """Turns of ``n_convs`` conversations in seeded row order."""
    tbl = transcripts_block(range(n_convs))
    order = np.random.default_rng(seed).permutation(tbl.num_rows)
    return tbl.take(pa.array(order))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """8 Parquet files: at least one per read task the session's 4 CPUs
    ask for, so the read splits no file (a split read fuses with
    nothing)."""
    out = tmp_path_factory.mktemp("fused_corpus")
    tbl = _block(40)
    bounds = np.linspace(0, tbl.num_rows, 9).astype(int)
    for f in range(8):
        pq.write_table(tbl.slice(bounds[f], bounds[f + 1] - bounds[f]),
                       out / f"part-{f:02d}.parquet")
    return str(out)


def _map_ops(plan: list) -> list:
    return [name for name in plan if name != "Input"]


@pytest.mark.parametrize("head", HEADS)
def test_oracle_extraction_fuses_with_the_read(ray_session, monkeypatch,
                                               corpus_dir, head):
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    plans = _count_executions(monkeypatch)
    out = extract.extract_triples(read_parquet_clean(corpus_dir),
                                  head=head).to_pandas()
    assert len(out) > 0
    assert [_map_ops(p) for p in plans] == [
        ["ReadParquet->MapBatches(_task_extract)"]]


def test_trained_extraction_fuses_with_the_read(ray_session, monkeypatch,
                                                corpus_dir):
    import ray

    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )
    from nlp_series_relation_extraction_ray.stages import trained_scorer as tsc

    weights = ray.put((np.zeros((tsc.F_DIM, 112), np.float32),
                       np.full(112, -10.0, np.float32)))
    plans = _count_executions(monkeypatch)
    tsc.extract_triples_trained(read_parquet_clean(corpus_dir),
                                weights).to_pandas()
    assert [_map_ops(p) for p in plans] == [
        ["ReadParquet->MapBatches(_task_extract_trained)"]]


def test_build_kg_extracts_in_the_read_and_write_task(ray_session,
                                                      monkeypatch, corpus_dir,
                                                      tmp_path):
    from nlp_series_relation_extraction_ray.pipelines.kg import build_kg
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    plans = _count_executions(monkeypatch)
    out = build_kg(read_parquet_clean(corpus_dir), out_dir=str(tmp_path))
    assert out["triples"].count() > 0
    assert _map_ops(plans[0]) == [
        "ReadParquet->MapBatches(_task_extract)->Write"]


def test_batch_size_slices_the_block_inside_the_task():
    """``map_turns``' ``batch_size`` bounds what ``fn`` sees; the output
    is the concatenation over the slices, in row order."""
    from nlp_series_relation_extraction_ray.stages import base

    seen = []

    def fn(batch):
        seen.append((batch.num_rows, batch.column_names))
        return batch

    class _Capture:
        def map_batches(self, per_block, fn_kwargs, batch_format,
                        batch_size):
            assert batch_size is None
            self.per_block = per_block
            return self

    block = _block(40)
    captured = base.map_turns(_Capture(), fn, 64)
    out = captured.per_block(block)
    assert captured.per_block.__name__ == "fn"
    assert out.equals(block.select(base.TURN_COLUMNS))
    sizes = [n for n, _ in seen]
    assert len(sizes) > 1 and max(sizes) <= 64
    assert sum(sizes) == block.num_rows
    assert {tuple(c) for _, c in seen} == {tuple(base.TURN_COLUMNS)}
