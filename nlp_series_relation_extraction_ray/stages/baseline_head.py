"""BIO multi-label sequence-labeling head ("官方baseline").

- Label building (oracle scores): multi-hot ``[L, 112]`` per-token labels;
  subject slot id at 2..56, object id = subject id + 55, continuation tokens
  get the ``I`` label (id 1), longest-entity-first matching with a forbidden
  window; untouched tokens get ``O`` (id 0).  Parity:
  ``/root/reference/dataset/dataset_baseline.py:41-161``.
- Decode (D1): threshold 0.5; a subject id ``s`` is valid iff ``1 < s <= 56``
  and ``s + 55`` is also predicted; entities extend through ``I`` labels and
  are char-sliced through ``offset_mapping``; cartesian subjects×objects per
  predicate; complex-relation assembly attaches affiliated slots.  Parity:
  ``decoding`` + ``find_entity`` (``/root/reference/utils/utils.py:148-273``).

Documented divergences: ``find_entity`` returns ``sorted(set(...))`` rather
than ``list(set(...))`` (the reference's ordering is PYTHONHASHSEED-dependent);
empty affiliated candidate lists are skipped instead of raising IndexError.
"""

from __future__ import annotations

import numpy as np

from ..schema import (
    BASELINE_COMPLEX_AFFI_IDS,
    BASELINE_COMPLEX_IDS,
    ID2SPO,
    LABEL_MAP,
    NUM_BASELINE_CLASSES,
)
from ..tokenization import tokenize_plain, tokenize_with_offset_mapping
from .base import MAX_LEN, register_head


def find_entity(text_raw, id_, hits, run_end, offset_mapping):
    """Entities labeled ``id_``, extended through I labels (utils.py:148-168).

    ``hits`` is the thresholded ``[L, C]`` label matrix and ``run_end[i]``
    the last token of the I-run that follows token ``i``."""
    return sorted({
        text_raw[offset_mapping[i][0]: offset_mapping[run_end[i]][1]]
        for i in np.flatnonzero(hits[:, id_]).tolist()
    })


def _i_run_ends(is_inside: np.ndarray) -> list[int]:
    """``run_end[i]``: the largest ``k >= i`` with ``is_inside[i+1..k]`` all
    true — how far an entity starting at ``i`` extends through I labels."""
    n = len(is_inside)
    stops = np.flatnonzero(~np.append(is_inside[1:], False))
    return stops[np.searchsorted(stops, np.arange(n))].tolist()


@register_head
class BaselineHead:
    """``tokenizer=None`` uses the default run-level tokenizer; pass a
    :class:`~..tokenization.WordPieceTokenizer` to enable subword splitting
    — label builder and decoder share it, so the round trip holds either
    way (exactly as the reference pairs its label builders with the same
    BERT tokenizer)."""

    name = "baseline"
    normalizes_text = False  # dataset_baseline.py uses raw text (no ®◆ strip)

    def __init__(self, tokenizer=None):
        self.tokenizer = tokenizer

    def preprocess(self, text: str) -> dict:
        tokens, offset_mapping = tokenize_with_offset_mapping(
            text, self.tokenizer
        )
        if len(tokens) > MAX_LEN:
            # reference collate caps at max_len (dataset_baseline.py:180-184)
            tokens = tokens[: MAX_LEN - 1] + [tokens[-1]]
            offset_mapping = offset_mapping[: MAX_LEN - 1] + [(0, 0)]
        return {
            "context": text,
            "tokens": tokens,  # with [CLS]/[SEP]
            "offset_mapping": offset_mapping,
        }

    def oracle_scores(self, ex: dict, spo_list: list[dict]) -> np.ndarray:
        tokens = ex["tokens"]
        seq_len = len(tokens)
        labels = np.zeros((seq_len, NUM_BASELINE_CLASSES), dtype=np.float32)
        for spo in spo_list:
            for spo_object in spo["object"].keys():
                if spo["predicate"] in LABEL_MAP:
                    label_subject = LABEL_MAP[spo["predicate"]]
                    object_tokens = tokenize_plain(spo["object"]["@value"], self.tokenizer)
                else:
                    label_subject = LABEL_MAP[spo["predicate"] + "_" + spo_object]
                    object_tokens = tokenize_plain(spo["object"][spo_object], self.tokenizer)
                label_object = label_subject + 55
                subject_tokens = tokenize_plain(spo["subject"], self.tokenizer)

                sl, ol = len(subject_tokens), len(object_tokens)
                forbidden = None
                # longest-entity-first matching (dataset_baseline.py:96-141)
                if sl > ol:
                    for index in range(seq_len - sl + 1):
                        if tokens[index: index + sl] == subject_tokens:
                            labels[index, label_subject] = 1
                            labels[index + 1: index + sl, 1] = 1
                            forbidden = index
                            break
                    for index in range(seq_len - ol + 1):
                        if tokens[index: index + ol] == object_tokens:
                            if forbidden is None or (
                                index < forbidden or index >= forbidden + sl
                            ):
                                labels[index, label_object] = 1
                                labels[index + 1: index + ol, 1] = 1
                                break
                else:
                    for index in range(seq_len - ol + 1):
                        if tokens[index: index + ol] == object_tokens:
                            labels[index, label_object] = 1
                            labels[index + 1: index + ol, 1] = 1
                            forbidden = index
                            break
                    for index in range(seq_len - sl + 1):
                        if tokens[index: index + sl] == subject_tokens:
                            if forbidden is None or (
                                index < forbidden or index >= forbidden + ol
                            ):
                                labels[index, label_subject] = 1
                                labels[index + 1: index + sl, 1] = 1
                                break
        # untouched tokens -> O (dataset_baseline.py:142-144)
        untouched = ~labels.any(axis=1)
        labels[untouched, 0] = 1
        return labels

    def decode(self, ex: dict, scores: np.ndarray):
        """D1 decode (utils/utils.py:170-273), one example."""
        text_raw = ex["context"]
        seq_len = len(ex["tokens"])
        # valid logits between CLS/SEP, thresholded once
        hits = scores[1: seq_len - 1] >= 0.5
        offset_mapping = ex["offset_mapping"][1: seq_len - 1]
        present = hits.any(axis=0)
        subject_id_list = [
            c for c in np.flatnonzero(present).tolist()
            if 1 < c <= 56 and present[c + 55]
        ]
        run_end = _i_run_ends(hits[:, 1])

        def entities(label: int) -> list[str]:
            return find_entity(text_raw, label, hits, run_end, offset_mapping)

        entity_list: list[str] = []
        spo_list: list[dict] = []
        for id_ in subject_id_list:
            if id_ in BASELINE_COMPLEX_AFFI_IDS:
                continue
            subjects = entities(id_)
            objects = entities(id_ + 55)
            if id_ not in BASELINE_COMPLEX_IDS:
                for subject_ in subjects:
                    for object_ in objects:
                        spo_list.append(
                            {
                                "predicate": ID2SPO["predicate"][id_],
                                "object": {"@value": object_},
                                "object_type": {
                                    "@value": ID2SPO["object_type"][id_]
                                },
                                "subject": subject_,
                                "subject_type": ID2SPO["subject_type"][id_],
                            }
                        )
            else:
                for subject_ in subjects:
                    for object_ in objects:
                        object_dict = {"@value": object_}
                        object_type_dict = {
                            "@value": ID2SPO["object_type"][id_].split("_")[0]
                        }
                        # ids 8/10/32/46 attach their single affiliated slot
                        # (+1); 获奖=26 attaches 27/28/29 (utils.py:244-262)
                        if id_ in [8, 10, 32, 46] and id_ + 1 in subject_id_list:
                            id_affi = id_ + 1
                            affi = entities(id_affi + 55)
                            if affi:  # divergence: guard empty (ref: [0] crash)
                                slot = ID2SPO["object_type"][id_affi].split("_")[1]
                                object_dict[slot] = affi[0]
                                object_type_dict[slot] = \
                                    ID2SPO["object_type"][id_affi].split("_")[0]
                        elif id_ == 26:
                            for id_affi in [27, 28, 29]:
                                if id_affi in subject_id_list:
                                    affi = entities(id_affi + 55)
                                    if affi:
                                        slot = ID2SPO["object_type"][id_affi].split("_")[1]
                                        object_dict[slot] = affi[0]
                                        object_type_dict[slot] = \
                                            ID2SPO["object_type"][id_affi].split("_")[0]
                        spo_list.append(
                            {
                                "predicate": ID2SPO["predicate"][id_],
                                "object": object_dict,
                                "object_type": object_type_dict,
                                "subject": subject_,
                                "subject_type": ID2SPO["subject_type"][id_],
                            }
                        )
            entity_list.extend(subjects)
            entity_list.extend(objects)
        return entity_list, spo_list


_VOCAB_CACHE: dict = {}


def fixture_wordpiece_vocab(n_convs: int = 200, min_freq: int = 2):
    """Deterministic WordPiece vocab frequency-built from a fixed fixture
    sample (pure arithmetic — every worker derives the identical vocab with
    no data movement; module-cached so head construction stays cheap).
    Frequent latin/digit runs are kept whole; rare ones greedy-split into
    ``##``-prefixed subwords."""
    key = (n_convs, min_freq)
    if key not in _VOCAB_CACHE:
        from ..sources.transcripts import n_turns, turn_text
        from ..tokenization import build_wordpiece_vocab

        texts = [
            turn_text(i, j) for i in range(n_convs) for j in range(n_turns(i))
        ]
        _VOCAB_CACHE[key] = build_wordpiece_vocab(texts, min_freq=min_freq)
    return _VOCAB_CACHE[key]


@register_head
class BaselineWordPieceHead(BaselineHead):
    """The baseline head with REAL subword splitting: greedy longest-match
    WordPiece over latin/digit runs (corpus-built vocab), multi-subtoken
    pieces sharing the whole piece's char span — the opt-in that closes the
    documented default-tokenizer divergence vs the reference's BERT
    WordPiece (``/root/reference/dataset/data_utils.py:98-112``), now
    exercised end-to-end by the ``extract_triples_baseline_wordpiece``
    driver query (same gold SQL oracle: the subword round trip is
    lossless, so the decoded SPO table is identical)."""

    name = "baseline_wp"

    def __init__(self):
        from ..tokenization import WordPieceTokenizer

        # min_freq above the sample's run frequencies forces genuine
        # subword splits (dates/numerals split to ##-chained chars) while
        # frequent runs stay whole — both WordPiece branches execute
        super().__init__(tokenizer=WordPieceTokenizer(
            fixture_wordpiece_vocab(n_convs=200, min_freq=20)
        ))
