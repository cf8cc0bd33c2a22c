"""Multi-head-selection (MHS) and deep-biaffine heads.

Both share: typed span decode over per-token start/end type logits
(threshold 0.5, first end ≥ start whose type agrees), then an ``[L, L, R]``
pairwise relation tensor decoded end-to-end (D3).  They differ only in how a
real model scores the pair tensor (concat-MLP vs biaffine ``e1ᵀWe2 +
[e1;e2;1]·w``), which the oracle replaces; hence two head names, one decode
path.

- Gold typed spoes: ``/root/reference/dataset/dataset_mhs.py:23-121``;
- Typed span decode: ``models/model_mhs.py:76-90`` (thr 0.5, start/end type
  must agree; biaffine identical at ``models/model_mhs_biaffine.py:107-124``);
- Pair decode (D3): ``convert_spo_contour2``
  (``/root/reference/run_evaluation.py:55-83``) — keep (s_end, o_end) pairs
  whose ends are decoded span ends, map end→span via first-match
  ``end_list.index``.  The reference thresholds the whole ``[L, L, R]``
  tensor and then drops every hit whose row or column is not a decoded end;
  here the threshold runs only over the ``u × u`` sub-grid, ``u`` the sorted
  distinct decoded ends.  This is exact for any tensor, dense trained scores
  included: the sub-grid holds exactly the hits the filter keeps, and since
  ``u`` ascends, its row-major order is the order the full scan visits them;
- Formatting: shared D4 (``format_spo.py``).

The O(L²R) pair tensor is synthesized AND decoded inside one stage call —
never materialized as dataset rows (SURVEY §7.3).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..schema import BAIDU_RELATION, COMPLEX_RELATION_AFFI_IDS, E_NUM, NUM_SLOTS, s2id
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


def build_gold_typed_spoes(tokens: list[str], spo_list: list[dict]):
    """{(s0,s1,s_type): [(o0,o1,o_type,pred)]} (dataset_mhs.py:44-99)."""
    type_ids = s2id()
    spoes: dict[tuple[int, int, int], list] = {}
    sub_ent_list: list[str] = []
    for spo in spo_list:
        for spo_object in spo["object"].keys():
            object_entity_label = type_ids[spo["object_type"][spo_object]]
            if spo["predicate"] in BAIDU_RELATION:
                predicate_label = BAIDU_RELATION[spo["predicate"]]
                subject_sub_tokens = tokenize_plain(spo["subject"])
                object_sub_tokens = tokenize_plain(spo["object"]["@value"])
                subject_entity_label = type_ids[spo["subject_type"]]
                sub_ent_list.append(spo["subject"])
            else:
                predicate_label = BAIDU_RELATION[spo["predicate"] + "_" + spo_object]
                if predicate_label in COMPLEX_RELATION_AFFI_IDS:
                    subject_sub_tokens = tokenize_plain(spo["object"]["@value"])
                    sub_ent_list.append(spo["object"]["@value"])
                    subject_entity_label = type_ids[spo["object_type"]["@value"]]
                else:
                    subject_sub_tokens = tokenize_plain(spo["subject"])
                    sub_ent_list.append(spo["subject"])
                    subject_entity_label = type_ids[spo["subject_type"]]
                object_sub_tokens = tokenize_plain(spo["object"][spo_object])

            subject_start, object_start = search_spo_index(
                tokens, subject_sub_tokens, object_sub_tokens
            )
            if subject_start == -1:
                subject_start = search(subject_sub_tokens, tokens)
            if object_start == -1:
                object_start = search(object_sub_tokens, tokens)
            if subject_start != -1 and object_start != -1:
                s = (subject_start, subject_start + len(subject_sub_tokens) - 1,
                     subject_entity_label)
                o = (object_start, object_start + len(object_sub_tokens) - 1,
                     object_entity_label, predicate_label)
                spoes.setdefault(s, []).append(o)
    return spoes, sub_ent_list


def decode_typed_spans(start_logits: np.ndarray, end_logits: np.ndarray):
    """Typed span decode for one example (models/model_mhs.py:80-90).

    Returns ``(subjects [(i, j)], end_list [j])`` in decode order: each
    typed start ``(i, t)`` pairs with the first (row-major) end hit at a
    position ``>= i`` when that hit's type is also ``t``.

    Robustness divergence: spans touching position 0 ([CLS]) or the final
    position ([SEP]) are clipped — the reference does not guard these and
    would crash/mis-slice if a trained model fired on a special token (its
    MPN decode does guard, models/model_mpn.py:169-175); oracle scorers
    never emit them, so parity is unaffected.
    """
    last = start_logits.shape[0] - 2
    start, start_tp = (a.tolist() for a in np.nonzero(start_logits > 0.5))
    end, end_tp = (a.tolist() for a in np.nonzero(end_logits > 0.5))
    subjects: list[tuple[int, int]] = []
    end_list: list[int] = []
    for i, t in zip(start, start_tp):
        if 0 < i <= last:
            k = bisect.bisect_left(end, i)  # ``end`` ascends: first end >= i
            if k < len(end) and end_tp[k] == t and end[k] <= last:
                subjects.append((i, end[k]))
                end_list.append(end[k])
    return subjects, end_list


def decode_pairs(
    output_logit: np.ndarray,
    subjects: list[tuple[int, int]],
    end_list: list[int],
) -> dict[tuple[int, int], list]:
    """D3 pair decode (run_evaluation.py:70-83).

    Only pairs whose ends are both in ``end_list`` survive, so the scan
    reads just the ``end_list × end_list`` sub-grid; its rows and columns
    ascend, so row-major order over it is the full scan's order."""
    if not end_list:
        return {}
    ends = sorted(set(end_list))
    span_of: dict[int, tuple[int, int]] = {}
    for e, s in zip(end_list, subjects):
        span_of.setdefault(e, s)  # first match, as ``end_list.index``
    spoes: dict[tuple[int, int], list] = {}
    s_idx, o_idx, predicates = np.where(output_logit[np.ix_(ends, ends)] > 0.5)
    for a, b, predicate in zip(s_idx.tolist(), o_idx.tolist(),
                               predicates.tolist()):
        o = span_of[ends[b]]
        spoes.setdefault(span_of[ends[a]], []).append((o[0], o[1], predicate))
    return spoes


class _TypedSpanHead:
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
        """(start_logits [L,E+1], end_logits [L,E+1], pair_logits [L,L,R]).

        Mirrors the train-label layout of dataset_mhs.py:157-176 — spans for
        subjects AND objects land in the typed start/end tensors; the pair
        tensor connects subject-end to object-end at the predicate id.
        """
        tokens = ex["tokens"]
        L = len(tokens)
        spoes, _ = build_gold_typed_spoes(tokens, spo_list)
        start_logits = np.zeros((L, E_NUM + 1), dtype=np.float32)
        end_logits = np.zeros((L, E_NUM + 1), dtype=np.float32)
        pair_logits = np.zeros((L, L, NUM_SLOTS), dtype=np.float32)
        for s, os_ in spoes.items():
            start_logits[s[0], s[2]] = 1
            end_logits[s[1], s[2]] = 1
            for o in os_:
                start_logits[o[0], o[2]] = 1
                end_logits[o[1], o[2]] = 1
                pair_logits[s[1], o[1], o[3]] = 1
        return start_logits, end_logits, pair_logits

    def decode(self, ex: dict, scores):
        start_logits, end_logits, pair_logits = scores
        subjects, end_list = decode_typed_spans(start_logits, end_logits)
        entity_list = [
            slice_span(ex["context"], ex["tok_start"], ex["tok_end"], s)
            for s in subjects
        ]
        spoes_pred = decode_pairs(pair_logits, subjects, end_list)
        spo_list = format_spoes(
            ex["context"], ex["tok_start"], ex["tok_end"], spoes_pred
        )
        return entity_list, spo_list


@register_head
class MhsHead(_TypedSpanHead):
    name = "mhs"


@register_head
class BiaffineHead(_TypedSpanHead):
    """Same decode path; a real model swaps the pair scorer for the biaffine
    form ``e1ᵀ W e2 + [e1;e2;1]·w2`` (models/model_mhs_biaffine.py:10-28)."""

    name = "biaffine"
