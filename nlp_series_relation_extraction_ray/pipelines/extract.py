"""Triple-extraction pipeline: transcripts Dataset -> triples Dataset.

Ray-Data-first layout (SURVEY §7.1 step 2/3):

    transcripts (conv_id, turn_idx, role, text, tool, ts)
      └─ map_batches(_task_extract, batch_format="pyarrow")
           └─ triples (``stages.format_spo.TRIPLE_SCHEMA``: conv_id,
                       turn_idx, head, predicate, subject, subject_type,
                       object_json, object_type_json, object_value)

The Extractor is a STATEFUL stage, built once per task worker through
``worker_cached``: head construction, schema dicts and (for real models)
weights load once in ``__init__``; ``__call__`` scores+decodes one Arrow
batch and emits triple rows through ``triples_table`` — score and decode are
fused in-call so per-example logit tensors (incl. the O(L²R) MHS tensor)
never become dataset rows and no cross-batch state exists (the reference's
driver-side ``answer_dict`` accumulator, ``run_mpn.py:70``, is eliminated).

Scorers are pluggable (SURVEY §7.0): the default "oracle" scorer synthesizes
the probabilities a perfect model would emit from the deterministic fixture
KB; a trained scorer drops into the same slot (``stages/trained_scorer.py``).
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
    """Oracle-head stage for ``map_batches``: the gold is re-derived from
    the deterministic fixture arithmetic — fully streaming, nothing
    broadcast."""

    def __init__(self, head: str, emit: str = "triples"):
        self.head = stages_base.get_head(head)
        self.emit = emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        head = self.head
        rows = []
        for cid, tix, text in zip(
            batch["conv_id"].to_pylist(),
            batch["turn_idx"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            ex = head.preprocess(text)
            scores = head.oracle_scores(ex, _synthetic_gold(cid, tix))
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
    emit: str = "triples",
    batch_size: int = 128,
):
    """transcripts Dataset -> triples (or per-turn entities) Dataset.

    Task-based ``map_batches`` with a per-worker cached :class:`Extractor`:
    it fuses with the upstream read and uses every CPU.

    ``emit`` is ``"triples"`` or ``"entities"``; anything else raises
    ``ValueError``.
    """
    if emit not in ("triples", "entities"):
        raise ValueError(
            f"unknown emit {emit!r}: expected 'triples' or 'entities'")
    return stages_base.map_turns(
        transcripts_ds, _task_extract, batch_size,
        kwargs={"head": head, "emit": emit})


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
