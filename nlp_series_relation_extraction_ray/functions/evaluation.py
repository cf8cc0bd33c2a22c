"""DuIE-style exact-match evaluation (the reference's own correctness gate).

- ``calculate_metric``: a predicted spo counts as tp iff ``predicate ==`` AND
  ``object ==`` (the whole dict, all slots) AND ``subject ==`` some gold spo;
  unmatched predictions are fp; ``fn = len(gold) - tp``.  Parity:
  ``/root/reference/run_evaluation.py:222-255``.
- ``run_evaluate`` semantics: corpus micro P/R/F1 over summed tp/fp/fn, plus
  entity-level P/R/F1 over per-turn entity sets.  Parity:
  ``run_evaluation.py:179-220``.

Distributed shape (SURVEY §2.6 G1): the reference accumulates a driver-side
``answer_dict`` then loops; here each batch emits partial (tp, fp) counts
inside ``map_batches`` and a tiny ``ds.sum()`` finishes — a partial+final
aggregate with no shuffle (triples of one turn never need co-location because
tp/fp are per-prediction decisions and fn falls out of the global gold count).
"""

from __future__ import annotations

import json

import pyarrow as pa


def calculate_metric(spo_list_gt: list[dict], spo_list_predict: list[dict]):
    """Exact-match tp/fp/fn for one example (run_evaluation.py:222-255)."""
    tp, fp = 0, 0
    for spo in spo_list_predict:
        flag = 0
        for spo_gt in spo_list_gt:
            if (
                spo["predicate"] == spo_gt["predicate"]
                and spo["object"] == spo_gt["object"]
                and spo["subject"] == spo_gt["subject"]
            ):
                flag = 1
                tp += 1
                break
        if flag == 0:
            fp += 1
    fn = len(spo_list_gt) - tp
    return tp, fp, fn


def prf(tp: int, fp: int, fn: int) -> dict:
    p = tp / (tp + fp) if tp + fp != 0 else 0
    r = tp / (tp + fn) if tp + fn != 0 else 0
    f = 2 * p * r / (p + r) if p + r != 0 else 0
    return {"f1": f, "recall": r, "precision": p}


def _triple_matches_partial(batch: pa.Table, gold_for) -> pa.Table:
    """Per-batch partial (tp, fp): match each predicted triple against its
    turn's gold list. Split-safe: a per-prediction decision, so a turn's
    triples may land in different batches without changing the totals."""
    tp = fp = 0
    convs = batch["conv_id"].to_pylist()
    turns = batch["turn_idx"].to_pylist()
    preds = batch["predicate"].to_pylist()
    subjects = batch["subject"].to_pylist()
    objs = batch["object_json"].to_pylist()
    for i in range(batch.num_rows):
        obj = json.loads(objs[i])
        matched = any(
            preds[i] == g["predicate"]
            and obj == g["object"]
            and subjects[i] == g["subject"]
            for g in gold_for(convs[i], turns[i])
        )
        if matched:
            tp += 1
        else:
            fp += 1
    return pa.Table.from_pydict({"tp": [tp], "fp": [fp]})


def evaluate_triples(triples_ds, gold_for, total_gold: int) -> dict:
    """Corpus micro P/R/F1 of a triples Dataset vs a gold provider.

    ``gold_for(conv_id, turn_idx) -> spo_list``; ``total_gold`` = corpus gold
    triple count (fn = total_gold - tp, identical to the reference's per-turn
    summation).
    """
    partials = triples_ds.map_batches(
        lambda b: _triple_matches_partial(b, gold_for), batch_format="pyarrow"
    )
    agg = partials.sum(["tp", "fp"])
    tp = int(agg["sum(tp)"]) if agg else 0
    fp = int(agg["sum(fp)"]) if agg else 0
    fn = total_gold - tp
    out = prf(tp, fp, fn)
    out.update({"tp": tp, "fp": fp, "fn": fn})
    return out


def evaluate_entities(entities_ds, gold_entities_for) -> dict:
    """Entity-level P/R/F1 (run_evaluation.py:191-208): per-turn set overlap.

    ``entities_ds`` has one row per turn (emitted by a single stage call), so
    the per-turn ``set()`` needs no cross-batch merge.
    """

    def partial(batch: pa.Table) -> pa.Table:
        em = pred_n = gold_n = 0
        for i in range(batch.num_rows):
            cid = batch["conv_id"][i].as_py()
            tix = batch["turn_idx"][i].as_py()
            pred = set(json.loads(batch["entities_json"][i].as_py()))
            gold = set(gold_entities_for(cid, tix))
            em += len(pred & gold)
            pred_n += len(pred)
            gold_n += len(gold)
        return pa.Table.from_pydict(
            {"em": [em], "pred_n": [pred_n], "gold_n": [gold_n]}
        )

    agg = entities_ds.map_batches(partial, batch_format="pyarrow").sum(
        ["em", "pred_n", "gold_n"]
    )
    em = int(agg["sum(em)"]) if agg else 0
    pred_n = int(agg["sum(pred_n)"]) if agg else 0
    gold_n = int(agg["sum(gold_n)"]) if agg else 0
    precision = 100.0 * em / pred_n if pred_n > 0 else 0.0
    recall = 100.0 * em / gold_n if gold_n > 0 else 0.0
    f1 = (
        2 * recall * precision / (recall + precision)
        if (recall + precision) != 0
        else 0.0
    )
    return {"entity_f1": f1, "entity_precision": precision,
            "entity_recall": recall, "em": em, "pred_n": pred_n,
            "gold_n": gold_n}
