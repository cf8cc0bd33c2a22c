"""Triple-extraction pipeline: transcripts Dataset -> triples Dataset.

Ray-Data-first layout (SURVEY §7.1 step 2/3):

    transcripts (conv_id, turn_idx, role, text, tool, ts)
      └─ map_batches(Extractor(head), batch_format="pyarrow")
           └─ triples (``stages.format_spo.TRIPLE_SCHEMA``: conv_id,
                       turn_idx, head, predicate, subject, subject_type,
                       object_json, object_type_json, object_value)

The Extractor is a STATEFUL stage (one per task worker through
``worker_cached``, or an actor pool when a gold lookup is broadcast): head
construction, schema dicts and (for real models) weights load once in
``__init__``; ``__call__`` scores+decodes one Arrow batch and emits triple
rows through ``triples_table`` — score and decode are
fused in-call so per-example logit tensors (incl. the O(L²R) MHS tensor)
never become dataset rows and no cross-batch state exists (the reference's
driver-side ``answer_dict`` accumulator, ``run_mpn.py:70``, is eliminated).

Scorers are pluggable (SURVEY §7.0): the default "oracle" scorer synthesizes
the probabilities a perfect model would emit from the deterministic fixture
KB (or from a broadcast gold lookup via ``ray.put``); a neural scorer drops
into the same slot.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..sources import transcripts as tsrc
from ..stages import base as stages_base
from ..stages.format_spo import triples_table

ENTITY_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("head", pa.string()),
        ("entities_json", pa.string()),
    ]
)


def _synthetic_gold(conv_id: str, turn_idx: int) -> list[dict]:
    i = int(conv_id.rsplit("-", 1)[1])
    spo = tsrc.fact_for(i, turn_idx)
    return [spo] if spo is not None else []


class Extractor:
    """Actor-pool callable for ``map_batches``.

    ``gold_ref``: optional ``ray.ObjectRef`` to a broadcast
    ``{(conv_id, turn_idx): spo_list}`` dict (``ray.put`` once, read per
    actor); when None the gold is re-derived from the deterministic fixture
    arithmetic — fully streaming, nothing broadcast.
    """

    def __init__(self, head: str, gold_ref=None, emit: str = "triples"):
        self.head = stages_base.get_head(head)
        self.emit = emit
        self._gold_lookup = None
        if gold_ref is not None:
            import ray

            self._gold_lookup = ray.get(gold_ref)

    def gold_for(self, conv_id: str, turn_idx: int) -> list[dict]:
        if self._gold_lookup is not None:
            return self._gold_lookup.get((conv_id, turn_idx), [])
        return _synthetic_gold(conv_id, turn_idx)

    def __call__(self, batch: pa.Table) -> pa.Table:
        head = self.head
        rows = []
        for cid, tix, text in zip(
            batch["conv_id"].to_pylist(),
            batch["turn_idx"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            ex = head.preprocess(text)
            scores = head.oracle_scores(ex, self.gold_for(cid, tix))
            entity_list, spo_list = head.decode(ex, scores)
            if self.emit == "entities":
                rows.append((cid, tix, head.name,
                             json.dumps(entity_list, ensure_ascii=False)))
            else:
                rows.extend((cid, tix, head.name, spo) for spo in spo_list)
        if self.emit == "triples":
            return triples_table(rows)
        cols = zip(*rows) if rows else [()] * len(ENTITY_SCHEMA)
        return pa.Table.from_arrays(
            [pa.array(list(c), f.type) for c, f in zip(cols, ENTITY_SCHEMA)],
            schema=ENTITY_SCHEMA,
        )


def _task_extract(batch: pa.Table, head: str, emit: str) -> pa.Table:
    ex = stages_base.worker_cached(
        ("extract", head, emit), lambda: Extractor(head, emit=emit)
    )
    return ex(batch)


def extract_triples(
    transcripts_ds,
    head: str = "baseline",
    gold_ref=None,
    emit: str = "triples",
    concurrency=None,
    batch_size: int = 128,
    use_actors: bool | None = None,
):
    """transcripts Dataset -> triples (or per-turn entities) Dataset.

    Physical plan choice: the deterministic scorers are cheap to construct,
    so the default is TASK-based ``map_batches`` with a per-worker cache —
    it fuses with the upstream stage and uses every CPU (measured ~5x the
    actor-pool throughput here).  A broadcast ``gold_ref`` (or any genuinely
    heavy scorer state, e.g. neural weights) flips to the actor-pool path:
    ``__init__``-once state is exactly what actor pools are for.

    ``emit`` is ``"triples"`` or ``"entities"``; anything else raises
    ``ValueError``.
    """
    if emit not in ("triples", "entities"):
        raise ValueError(
            f"unknown emit {emit!r}: expected 'triples' or 'entities'")
    if use_actors is None:
        use_actors = gold_ref is not None
    if not use_actors:
        return stages_base.map_turns(
            transcripts_ds, _task_extract, batch_size,
            kwargs={"head": head, "emit": emit})
    return stages_base.map_turns(
        transcripts_ds, Extractor, batch_size, concurrency,
        kwargs={"head": head, "gold_ref": gold_ref, "emit": emit})


def explode_complex_slots(triples_ds):
    """Triples -> one row per (turn, predicate, object slot): the exploded
    N-ary view of ``object_json`` (slot keys emitted in sorted order).  A
    per-row flat-map — embarrassingly parallel, no shuffle."""

    def explode(batch: pa.Table) -> pa.Table:
        out = {"conv_id": [], "turn_idx": [], "predicate": [], "slot_key": [],
               "slot_value": []}
        for cid, tix, pred, obj_json in zip(
            *(batch[c].to_pylist()
              for c in ("conv_id", "turn_idx", "predicate", "object_json"))
        ):
            obj = json.loads(obj_json)
            for key in sorted(obj):
                out["conv_id"].append(cid)
                out["turn_idx"].append(tix)
                out["predicate"].append(pred)
                out["slot_key"].append(key)
                out["slot_value"].append(obj[key])
        return pa.Table.from_pydict(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "turn_idx": pa.array(out["turn_idx"], pa.int32()),
                "predicate": pa.array(out["predicate"], pa.string()),
                "slot_key": pa.array(out["slot_key"], pa.string()),
                "slot_value": pa.array(out["slot_value"], pa.string()),
            }
        )

    return triples_ds.map_batches(explode, batch_format="pyarrow")
