"""D4: span-level spoes -> formatted SPO dicts (shared by MPN/MHS/biaffine),
and SPO dicts -> rows of the triples table (shared by every extractor).

Parity: ``convert2ressult`` (``/root/reference/run_evaluation.py:85-176``) —
sorts each subject's po list by predicate id, slices entity text through the
token→char alignment (offset −1 accounts for [CLS]), strips ``\\xa0``,
assembles N-ary objects by looking up affiliated predicates (``p+1``, or
25/26/27 for 获奖=24) in the *object span's own* spoes entry with the
``check_object`` text-equality fallback, and skips affiliated ids as
standalone triples.

Documented divergence: where the reference indexes ``[0]`` of a possibly-empty
affiliated candidate list (it would crash), we skip the slot.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..schema import (
    COMPLEX_RELATION_AFFI_IDS,
    COMPLEX_RELATION_IDS,
    ID2REL,
    SPO_TAG,
)

_AWARD_ID = 24  # 获奖_@value
_AWARD_AFFI_IDS = (25, 26, 27)  # 获奖 inWork/onDate/period

# the one row format of extracted triples, written by every head
TRIPLE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("head", pa.string()),
        ("predicate", pa.string()),
        ("subject", pa.string()),
        ("subject_type", pa.string()),
        ("object_json", pa.string()),
        ("object_type_json", pa.string()),
        ("object_value", pa.string()),
    ]
)


def triples_table(rows) -> pa.Table:
    """``(conv_id, turn_idx, head, spo)`` rows -> a ``TRIPLE_SCHEMA`` table.

    ``object_json`` / ``object_type_json`` are the spo's dicts as sorted-key
    JSON with raw (unescaped) CJK; ``object_value`` is the ``@value`` slot.
    """
    recs = [
        (cid, tix, head, spo["predicate"], spo["subject"], spo["subject_type"],
         json.dumps(spo["object"], ensure_ascii=False, sort_keys=True),
         json.dumps(spo["object_type"], ensure_ascii=False, sort_keys=True),
         spo["object"].get("@value", ""))
        for cid, tix, head, spo in rows
    ]
    cols = zip(*recs) if recs else [()] * len(TRIPLE_SCHEMA)
    return pa.Table.from_arrays(
        [pa.array(list(c), f.type) for c, f in zip(cols, TRIPLE_SCHEMA)],
        schema=TRIPLE_SCHEMA,
    )


def slice_span(context: str, tok_start: list[int], tok_end: list[int],
               span: tuple[int, int]) -> str:
    """Char-slice a token span; −1 offsets skip [CLS] (run_evaluation.py:98)."""
    return context[tok_start[span[0] - 1]: tok_end[span[1] - 1] + 1].replace(
        "\xa0", ""
    )


def format_spoes(
    context: str,
    tok_to_orig_start: list[int],
    tok_to_orig_end: list[int],
    spoes: dict[tuple[int, int], list[tuple[int, int, int]]],
) -> list[dict]:
    """span spoes {subject_span: [(o_start, o_end, predicate_id), ...]} -> spo dicts."""

    def ent(span: tuple[int, int]) -> str:
        return slice_span(context, tok_to_orig_start, tok_to_orig_end, span)

    def check_object(obj_ent: str) -> tuple[int, int]:
        # text-equality fallback when the exact object span key is missing
        # (run_evaluation.py:118-127)
        for (o1_, o2_) in spoes.keys():
            if ent((o1_, o2_)) == obj_ent:
                return o1_, o2_
        return -1, -1

    po_predict: list[dict] = []
    for s, po in spoes.items():
        po.sort(key=lambda x: x[2])
        sub_ent = ent(s)
        for (o1, o2, p) in po:
            obj_ent = ent((o1, o2))
            object_dict = {"@value": obj_ent}
            object_type_dict = {"@value": SPO_TAG["object_type"][p].split("_")[0]}

            if p in COMPLEX_RELATION_IDS:
                predicate = ID2REL[p].split("_")[0]
            else:
                predicate = ID2REL[p]

            if p in COMPLEX_RELATION_AFFI_IDS:
                continue

            if p in COMPLEX_RELATION_IDS and p != _AWARD_ID:
                candidate_dict: dict[int, tuple[int, int]] = {}
                if (o1, o2) not in spoes:
                    o1, o2 = check_object(obj_ent)
                if (o1, o2) in spoes:
                    for (o1_, o2_, p_) in spoes[(o1, o2)]:
                        if p + 1 == p_:
                            candidate_dict[p_] = (o1_, o2_)
                for p_, span_ in candidate_dict.items():
                    affi_ent = ent(span_)
                    object_dict[ID2REL[p_].split("_")[1]] = affi_ent
                    object_type_dict[SPO_TAG["object_type"][p_].split("_")[1]] = \
                        SPO_TAG["object_type"][p_].split("_")[0]
            elif p == _AWARD_ID:
                candidate_dict = {}
                if (o1, o2) not in spoes:
                    o1, o2 = check_object(obj_ent)
                if (o1, o2) in spoes:
                    for (o1_, o2_, p_) in spoes[(o1, o2)]:
                        if p_ in _AWARD_AFFI_IDS:
                            candidate_dict[p_] = (o1_, o2_)
                for p_, span_ in candidate_dict.items():
                    affi_ent = ent(span_)
                    object_dict[ID2REL[p_].split("_")[1]] = affi_ent
                    object_type_dict[SPO_TAG["object_type"][p_].split("_")[1]] = \
                        SPO_TAG["object_type"][p_].split("_")[0]

            po_predict.append(
                {
                    "predicate": predicate,
                    "object": object_dict,
                    "object_type": object_type_dict,
                    "subject": sub_ent,
                    "subject_type": SPO_TAG["subject_type"][p],
                }
            )
    return po_predict
