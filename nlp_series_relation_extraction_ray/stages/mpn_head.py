"""Cascaded pointer-network head (MPN, "层叠式指针网络").

Two-stage cascade: subject span pointers, then per-subject object/predicate
pointers conditioned on the subject.  The data-dependent per-subject batch
expansion stays INSIDE one stage call (the reference chunks it at
``split_heads=1024`` inside forward, ``models/model_mpn.py:206-211``), so no
cross-batch state exists and the per-turn invariant holds.

- Gold spoes building: ``/root/reference/dataset/dataset_mpn.py:23-130``
  (text ®◆ strip, char-aligned tokenization, ``search_spo_index`` with linear
  fallback; N-ary affiliated slots re-rooted on the @value object).
- Subject decode: start>0.6, end>0.5, nearest end ≥ start, clip [CLS]/[SEP]
  (``models/model_mpn.py:156-178``).
- Object/predicate decode (D2): start>0.6 / end>0.5, pair when
  ``start <= end <= len(tokens)-2`` and predicate ids agree
  (``convert_spo_contour``, ``/root/reference/run_evaluation.py:23-53``).
- Formatting: shared D4 (``format_spo.py``).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..schema import BAIDU_RELATION, COMPLEX_RELATION_AFFI_IDS, NUM_SLOTS
from ..tokenization import (
    CLS,
    SEP,
    convert_to_tokens,
    search,
    search_spo_index,
    tokenize_plain,
)
from .base import normalize_text, register_head, truncate_example
from .format_spo import format_spoes, slice_span


def build_gold_spoes(
    tokens: list[str], spo_list: list[dict]
) -> tuple[dict, list[str]]:
    """Gold span dict {s_span: [(o_start, o_end, predicate_id)]} + entity list.

    Parity: dataset_mpn.py:44-90 — affiliated slots use the @value object as
    their "subject"; span search falls back to plain ``search``.
    """
    spoes: dict[tuple[int, int], list] = {}
    sub_ent_list: list[str] = []
    for spo in spo_list:
        for spo_object in spo["object"].keys():
            if spo["predicate"] in BAIDU_RELATION:
                predicate_label = BAIDU_RELATION[spo["predicate"]]
                subject_sub_tokens = tokenize_plain(spo["subject"])
                object_sub_tokens = tokenize_plain(spo["object"]["@value"])
                sub_ent_list.append(spo["subject"])
            else:
                predicate_label = BAIDU_RELATION[spo["predicate"] + "_" + spo_object]
                if predicate_label in COMPLEX_RELATION_AFFI_IDS:
                    subject_sub_tokens = tokenize_plain(spo["object"]["@value"])
                    sub_ent_list.append(spo["object"]["@value"])
                else:
                    subject_sub_tokens = tokenize_plain(spo["subject"])
                    sub_ent_list.append(spo["subject"])
                object_sub_tokens = tokenize_plain(spo["object"][spo_object])

            subject_start, object_start = search_spo_index(
                tokens, subject_sub_tokens, object_sub_tokens
            )
            if subject_start == -1:
                subject_start = search(subject_sub_tokens, tokens)
            if object_start == -1:
                object_start = search(object_sub_tokens, tokens)
            if subject_start != -1 and object_start != -1:
                s = (subject_start, subject_start + len(subject_sub_tokens) - 1)
                o = (object_start, object_start + len(object_sub_tokens) - 1,
                     predicate_label)
                spoes.setdefault(s, []).append(o)
    return spoes, sub_ent_list


def decode_subjects(sub_pred: np.ndarray, tokens: list[str]) -> list[tuple[int, int]]:
    """Stage-1 subject decode (models/model_mpn.py:163-178): each start
    pairs with the nearest end ``>= start``; spans on [CLS]/[SEP] drop."""
    last = len(tokens) - 2
    start = np.flatnonzero(sub_pred[:, 0] > 0.6).tolist()
    end = np.flatnonzero(sub_pred[:, 1] > 0.5).tolist()
    subjects = []
    for i in start:
        if 0 < i <= last:
            k = bisect.bisect_left(end, i)
            if k < len(end) and end[k] <= last:
                subjects.append((i, end[k]))
    return subjects


def decode_po(
    po_pred: np.ndarray, tokens: list[str]
) -> list[tuple[int, int, int]]:
    """Stage-2 object/predicate decode for one subject (run_evaluation.py:39-48).

    Every start ``(s, p)`` in row-major order pairs with each end of the same
    predicate ``p`` in ``[s, len(tokens) - 2]``, ends in ascending order."""
    last = len(tokens) - 2
    ends_of: dict[int, list[int]] = {}
    for e, p in zip(*(a.tolist() for a in np.where(po_pred[:, :, 1] > 0.5))):
        if e <= last:
            ends_of.setdefault(p, []).append(e)
    out = []
    for s, p in zip(*(a.tolist() for a in np.where(po_pred[:, :, 0] > 0.6))):
        if 0 < s <= last and p in ends_of:
            ends = ends_of[p]
            out.extend((s, e, p) for e in ends[bisect.bisect_left(ends, s):])
    return out


@register_head
class MpnHead:
    name = "mpn"
    normalizes_text = True

    def preprocess(self, text: str) -> dict:
        text_raw = normalize_text(text)
        tokens, tok_start, tok_end = convert_to_tokens(text_raw)
        tokens, tok_start, tok_end = truncate_example(
            [CLS] + tokens + [SEP], tok_start, tok_end
        )
        return {
            "context": text_raw,
            "tokens": tokens,
            "tok_start": tok_start,
            "tok_end": tok_end,
        }

    def oracle_scores(self, ex: dict, spo_list: list[dict]):
        """Perfect-model pointer tensors from gold spoes.

        Returns ``(subject_probs [L,2], {subject_span: po_probs [L,R,2]})`` —
        the per-subject conditioning a real cascade model computes in its
        second stage (mirrors the label layout of dataset_mpn.py:162-180).
        """
        tokens = ex["tokens"]
        L = len(tokens)
        spoes, _ = build_gold_spoes(tokens, spo_list)
        subject_probs = np.zeros((L, 2), dtype=np.float32)
        po_by_subject: dict[tuple[int, int], np.ndarray] = {}
        for s, os_ in spoes.items():
            subject_probs[s[0], 0] = 1
            subject_probs[s[1], 1] = 1
            po = np.zeros((L, NUM_SLOTS, 2), dtype=np.float32)
            for (o1, o2, p) in os_:
                po[o1, p, 0] = 1
                po[o2, p, 1] = 1
            po_by_subject[s] = po
        return subject_probs, po_by_subject

    def decode(self, ex: dict, scores):
        subject_probs, po_by_subject = scores
        tokens = ex["tokens"]
        subjects = decode_subjects(subject_probs, tokens)
        entity_list: list[str] = []
        spoes_pred: dict[tuple[int, int], list] = {}
        for s in subjects:
            # a real model scores po conditioned on the decoded subject span;
            # the oracle looks the span up (missing span -> all-zero scores)
            po = po_by_subject.get(s)
            if po is None:
                po = np.zeros((len(tokens), NUM_SLOTS, 2), dtype=np.float32)
            spoes_pred.setdefault(s, []).extend(decode_po(po, tokens))
            entity_list.append(
                slice_span(ex["context"], ex["tok_start"], ex["tok_end"], s)
            )
        spo_list = format_spoes(
            ex["context"], ex["tok_start"], ex["tok_end"], spoes_pred
        )
        return entity_list, spo_list
