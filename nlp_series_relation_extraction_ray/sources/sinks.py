"""Output sinks.

Primary sink is partitioned Parquet (``Dataset.write_parquet`` everywhere in
the pipelines); this module adds the reference-compatible artifacts:

- DuIE-style prediction JSONL — one ``{"text": ..., "spo_list": [...]}``
  object per line, utf-8, no ascii escaping (parity:
  ``write_prediction_results``, ``/root/reference/utils/utils.py:275-282``),
  assembled per turn from the triples table.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..functions.grouping import bucketed_group_apply
from .readers import table_from_pandas


def triples_to_duie_rows(batch: pa.Table, text_for=None) -> pa.Table:
    """Triples batch -> per-turn DuIE prediction rows (turn_key, json_line).

    ``text_for(conv_id, turn_idx)`` supplies the turn text (defaults to the
    synthetic corpus regenerator).  Emits one row per (conv_id, turn_idx)
    present in the batch, its ``spo_list`` in the batch's row order; a turn
    whose triples span several batches needs them brought together first
    (:func:`write_prediction_jsonl` does).
    """
    if text_for is None:
        from .transcripts import turn_text

        def text_for(cid, tix):  # noqa: F811
            return turn_text(int(cid.rsplit("-", 1)[1]), tix)

    per_turn: dict[tuple[str, int], list[dict]] = {}
    for cid, tix, pred, subj, subj_type, obj, obj_type in zip(*(
        batch[c].to_pylist()
        for c in ("conv_id", "turn_idx", "predicate", "subject",
                  "subject_type", "object_json", "object_type_json")
    )):
        per_turn.setdefault((cid, tix), []).append({
            "predicate": pred,
            "subject": subj,
            "subject_type": subj_type,
            "object": json.loads(obj),
            "object_type": json.loads(obj_type),
        })

    keys, lines = [], []
    for (cid, tix), spo_list in per_turn.items():
        keys.append(f"{cid}:{tix}")
        lines.append(
            json.dumps(
                {"text": text_for(cid, tix), "spo_list": spo_list},
                ensure_ascii=False,
            )
        )
    return pa.Table.from_pydict(
        {
            "turn_key": pa.array(keys, pa.string()),
            "json_line": pa.array(lines, pa.string()),
        }
    )


def write_prediction_jsonl(triples_ds, path: str) -> int:
    """Materialize the DuIE prediction artifact to one JSONL file.

    ``bucketed_group_apply`` on (conv_id, turn_idx) hands the kernel whole
    turns, each in input row order,
    so the per-turn assembly is correct under ANY upstream batching
    (checkpoint-re-read triples can straddle batch boundaries).  Driver-side
    small-result write (the artifact is an eval byproduct, not the data
    path — bulk output stays Parquet).  Returns line count.
    """

    def per_frame(df):
        return triples_to_duie_rows(table_from_pandas(df)).to_pandas()

    rows = bucketed_group_apply(
        triples_ds, ["conv_id", "turn_idx"], per_frame,
        empty_result={"turn_key": "object", "json_line": "object"},
    ).to_pandas()
    rows = rows.sort_values("turn_key")
    with open(path, "w", encoding="utf-8") as f:
        for line in rows["json_line"]:
            f.write(line)
            f.write("\n")
    return len(rows)
