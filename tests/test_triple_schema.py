"""Every extraction path writes exactly ``TRIPLE_SCHEMA`` — the same names,
types and order — with its own ``head`` label, on a normal batch and on a
zero-row batch, and runs as tasks (no actor pool)."""

import pyarrow as pa
import pytest

from nlp_series_relation_extraction_ray.pipelines import extract as ext
from nlp_series_relation_extraction_ray.sources.transcripts import (
    transcripts_dataset,
)
from nlp_series_relation_extraction_ray.stages import base
from nlp_series_relation_extraction_ray.stages import trained_scorer as tsc
from nlp_series_relation_extraction_ray.stages.format_spo import TRIPLE_SCHEMA

N_CONVS = 12

# tiny deterministic budgets: weights of the right shapes that still emit
# a few triples on the first conversations (the quality gates live in
# test_trained_scorer.py)
_TINY = {
    "baseline": (tsc.train_baseline_scorer,
                 dict(n_train_convs=60, epochs=15)),
    "mpn": (tsc.train_mpn_scorer,
            dict(n_train_convs=60, subject_epochs=12, po_epochs=6)),
    "mhs": (tsc.train_mhs_scorer,
            dict(n_train_convs=60, span_epochs=12, pair_epochs=6)),
    "biaffine": (tsc.train_biaffine_scorer,
                 dict(n_train_convs=60, span_epochs=4, pair_epochs=4)),
}


def _trained(label, weights, run, stage_cls, id=None):
    return pytest.param(
        label, weights, run,
        lambda ref: lambda b: tsc._task_extract_trained(b, stage_cls, ref),
        id=id or label)


# (head label, weights key or None, Ray Data path, the stage it runs)
_PATHS = [
    *[
        pytest.param(
            head, None,
            lambda ds, ref, h=head: ext.extract_triples(ds, head=h),
            lambda ref, h=head: lambda b: ext._task_extract(b, h, "triples"),
            id=head)
        for head in ("baseline", "mpn", "mhs", "biaffine")
    ],
    _trained("baseline-trained", "baseline", tsc.extract_triples_trained,
             tsc.TrainedBaselineExtractor, id="baseline-trained-tasks"),
    _trained("baseline-batched", "baseline",
             tsc.extract_triples_batched_tensor,
             tsc.BatchedTensorBaselineExtractor),
    _trained("mpn-trained", "mpn", tsc.extract_triples_trained_mpn,
             tsc.TrainedMpnExtractor),
    _trained("mhs-trained", "mhs", tsc.extract_triples_trained_mhs,
             tsc.TrainedMhsExtractor),
    _trained("biaffine-trained", "biaffine",
             tsc.extract_triples_trained_biaffine,
             tsc.TrainedBiaffineExtractor),
]


@pytest.fixture(scope="module")
def weight_refs(ray_session):
    import ray

    return {k: ray.put(train(**kw)) for k, (train, kw) in _TINY.items()}


@pytest.mark.parametrize("label,weights,run,stage", _PATHS)
def test_extraction_path_emits_triple_schema(weight_refs, label, weights,
                                             run, stage):
    import ray

    from ray.data._internal.logical.optimizers import get_execution_plan

    ref = weight_refs[weights] if weights else None
    plan = get_execution_plan(
        run(transcripts_dataset(N_CONVS), ref)._logical_plan).dag.dag_str
    assert "TaskPoolMapOperator" in plan
    assert "ActorPoolMapOperator" not in plan
    blocks = ray.get(run(transcripts_dataset(N_CONVS), ref).to_arrow_refs())
    assert blocks
    for block in blocks:
        assert block.schema == TRIPLE_SCHEMA
    heads = set(pa.concat_tables(blocks)["head"].to_pylist())
    assert heads == {label}

    # Ray Data skips a UDF on zero-row blocks, so call the stage itself
    empty = pa.table({
        "conv_id": pa.array([], pa.string()),
        "turn_idx": pa.array([], pa.int32()),
        "text": pa.array([], pa.string()),
    })
    try:
        out = stage(ref)(empty)
    finally:
        base._WORKER_CACHE.pop(("trained", label), None)
    assert out.num_rows == 0
    assert out.schema == TRIPLE_SCHEMA


def test_map_turns_plans_without_running_its_input(ray_session, tmp_path):
    """Building the stage over a lazy input runs no part of the input (no
    schema probe); the input runs once, when the output is consumed."""
    calls = tmp_path / "calls"

    def counted(batch):
        with open(calls, "a") as f:
            f.write(".")
        return batch

    src = transcripts_dataset(N_CONVS).map_batches(
        counted, batch_format="pyarrow", batch_size=None)
    out = ext.extract_triples(src, head="baseline")
    assert not calls.exists()
    assert out.to_arrow_refs()
    assert calls.exists()
