"""Equivalence of the extraction kernels with their earlier per-element forms.

Each ``_ref_*`` function below is the straightforward loop the kernel used
to be: a per-character splitter, a per-token ``argwhere`` baseline decode, a
full-tensor scan in ``decode_pairs`` and a nested start×end loop in
``decode_po``.  They serve as oracles: the kernels must return exactly the
same values, in the same order, on random inputs — including dense
sigmoid-like scores of the kind a trained model emits, not only the oracle
scorers' one-hot tensors.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import _ALPHABET

from nlp_series_relation_extraction_ray import tokenization as tok
from nlp_series_relation_extraction_ray.schema import (
    BASELINE_COMPLEX_AFFI_IDS,
    BASELINE_COMPLEX_IDS,
    E_NUM,
    ID2SPO,
    NUM_BASELINE_CLASSES,
    NUM_SLOTS,
)
from nlp_series_relation_extraction_ray.stages.baseline_head import BaselineHead
from nlp_series_relation_extraction_ray.stages.mhs_head import (
    decode_pairs,
    decode_typed_spans,
)
from nlp_series_relation_extraction_ray.stages.mpn_head import (
    decode_po,
    decode_subjects,
)

# ---------------------------------------------------------------- oracles


def _ref_split_char_classes(text):
    sub_text, buff, flag_en, flag_digit = [], "", False, False
    for ch in text:
        if tok.CHINESE_OR_PUNCT_RE.match(ch):
            if buff:
                sub_text.append(buff)
                buff = ""
            sub_text.append(ch)
            flag_en = flag_digit = False
        elif re.match(r"\d", ch):
            if buff and flag_en:
                sub_text.append(buff)
                buff = ""
                flag_en = False
            flag_digit = True
            buff += ch
        else:
            if buff and flag_digit:
                sub_text.append(buff)
                buff = ""
                flag_digit = False
            flag_en = True
            buff += ch
    if buff:
        sub_text.append(buff)
    return sub_text


def _ref_convert_to_tokens(text, tokenizer):
    starts, ends, tokens = [], [], []
    pos = 0
    for piece in _ref_split_char_classes(text):
        sub_tokens = tokenizer.tokenize(piece) if piece != " " else []
        pos += len(piece)
        for sub_token in sub_tokens:
            starts.append(pos - len(piece))
            ends.append(pos - 1)
            tokens.append(sub_token)
    return tokens, starts, ends


def _ref_find_entity(text_raw, id_, predictions, offset_mapping):
    entity_list = []
    for i in range(len(predictions)):
        if [id_] in predictions[i]:
            j = 0
            while i + j + 1 < len(predictions):
                if [1] in predictions[i + j + 1]:
                    j += 1
                else:
                    break
            entity_list.append(
                text_raw[offset_mapping[i][0]: offset_mapping[i + j][1]])
    return sorted(set(entity_list))


def _ref_baseline_decode(ex, scores):
    text_raw = ex["context"]
    seq_len = len(ex["tokens"])
    logits = scores.copy()[1: seq_len - 2 + 1]  # valid logits between CLS/SEP
    logits[logits >= 0.5] = 1
    logits[logits < 0.5] = 0
    offset_mapping = ex["offset_mapping"][1: seq_len - 2 + 1]
    predictions = [np.argwhere(token == 1).tolist() for token in logits]

    flat = [l2[0] for l1 in predictions for l2 in l1]
    subject_id_list = []
    for cls_label in set(flat):
        if 1 < cls_label <= 56 and (cls_label + 55) in flat:
            subject_id_list.append(cls_label)
    subject_id_list = sorted(set(subject_id_list))

    entity_list: list[str] = []
    spo_list: list[dict] = []
    for id_ in subject_id_list:
        if id_ in BASELINE_COMPLEX_AFFI_IDS:
            continue
        subjects = _ref_find_entity(text_raw, id_, predictions, offset_mapping)
        objects = _ref_find_entity(text_raw, id_ + 55, predictions, offset_mapping)
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
                        affi = _ref_find_entity(
                            text_raw, id_affi + 55, predictions, offset_mapping
                        )
                        if affi:  # divergence: guard empty (ref: [0] crash)
                            slot = ID2SPO["object_type"][id_affi].split("_")[1]
                            object_dict[slot] = affi[0]
                            object_type_dict[slot] = \
                                ID2SPO["object_type"][id_affi].split("_")[0]
                    elif id_ == 26:
                        for id_affi in [27, 28, 29]:
                            if id_affi in subject_id_list:
                                affi = _ref_find_entity(
                                    text_raw, id_affi + 55, predictions,
                                    offset_mapping,
                                )
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


def _ref_decode_typed_spans(start_logits, end_logits):
    L = start_logits.shape[0]
    subjects, end_list = [], []
    start, start_tp = np.where(start_logits > 0.5)
    end, end_tp = np.where(end_logits > 0.5)
    for i, t in zip(start, start_tp):
        if i == 0 or i > L - 2:
            continue
        j = end[end >= i]
        te = end_tp[end >= i]
        if len(j) > 0 and te[0] == t:
            if j[0] > L - 2:
                continue
            subjects.append((int(i), int(j[0])))
            end_list.append(int(j[0]))
    return subjects, end_list


def _ref_decode_pairs(output_logit, subjects, end_list):
    spoes = {}
    s_e_o = np.where(output_logit > 0.5)
    for idx in range(len(s_e_o[0])):
        s_end, o_end = int(s_e_o[0][idx]), int(s_e_o[1][idx])
        predicate = int(s_e_o[2][idx])
        if s_end in end_list and o_end in end_list:
            s = subjects[end_list.index(s_end)]
            o = subjects[end_list.index(o_end)]
            spoes.setdefault(s, []).append((o[0], o[1], predicate))
    return spoes


def _ref_decode_subjects(sub_pred, tokens):
    start = np.where(sub_pred[:, 0] > 0.6)[0]
    end = np.where(sub_pred[:, 1] > 0.5)[0]
    subjects = []
    for i in start:
        j = end[end >= i]
        if i == 0 or i > len(tokens) - 2:
            continue
        if len(j) > 0:
            j = j[0]
            if j > len(tokens) - 2:
                continue
            subjects.append((int(i), int(j)))
    return subjects


def _ref_decode_po(po_pred, tokens):
    start = np.where(po_pred[:, :, 0] > 0.6)
    end = np.where(po_pred[:, :, 1] > 0.5)
    out = []
    for _start, predicate1 in zip(*start):
        if _start > len(tokens) - 2 or _start == 0:
            continue
        for _end, predicate2 in zip(*end):
            if _start <= _end <= len(tokens) - 2 and predicate1 == predicate2:
                out.append((int(_start), int(_end), int(predicate1)))
    return out


# ---------------------------------------------------------------- tokenizer


def _boundary_chars() -> str:
    cps = set()
    for lo, hi in tok._HAN_RANGES + tok._EN_PUNCT_RANGES:
        cps.update((lo - 1, lo, hi, hi + 1))
    for c in tok._CN_PUNCT_CODEPOINTS:
        cps.update((c - 1, c, c + 1))
    return "".join(chr(c) for c in sorted(cps))


# non-ASCII decimal digits (Arabic-Indic, fullwidth) and a circled digit,
# which is CN punctuation here, not a ``\d`` digit
_KERNEL_ALPHABET = _ALPHABET + _boundary_chars() + "٣３①"
_kernel_texts = st.text(alphabet=_KERNEL_ALPHABET, min_size=0, max_size=60)
_WP = tok.WordPieceTokenizer(tok.build_wordpiece_vocab(
    ["abc abcxyz 0189 0189 XYZ abc", "数据 abc 12 12"], min_freq=2))


def test_boundary_alphabet_has_every_class():
    classes = {
        "cjk_or_punct" if tok.is_chinese_or_punct(c)
        else "digit" if c.isdecimal() else "other"
        for c in _boundary_chars() + "٣３①"
    }
    assert classes == {"cjk_or_punct", "digit", "other"}
    assert tok.split_char_classes("٣３①7") == ["٣３", "①", "7"]


@given(_kernel_texts)
@settings(max_examples=400, derandomize=True)
def test_splitter_matches_reference_loop(text):
    assert tok.split_char_classes(text) == _ref_split_char_classes(text)


def test_splitter_boundary_codepoints_one_string():
    text = "a1" + _boundary_chars() + "٣３①x9"
    assert tok.split_char_classes(text) == _ref_split_char_classes(text)


@given(_kernel_texts)
@settings(max_examples=400, derandomize=True)
def test_convert_to_tokens_matches_reference(text):
    assert tok.convert_to_tokens(text) == _ref_convert_to_tokens(
        text, tok.DeterministicTokenizer())
    assert tok.convert_to_tokens(text, _WP) == _ref_convert_to_tokens(
        text, _WP)


@given(_kernel_texts)
@settings(max_examples=200, derandomize=True)
def test_tokenize_plain_cached_fresh_list(text):
    for tokenizer in (None, _WP):
        first = tok.tokenize_plain(text, tokenizer)
        assert isinstance(first, list)
        assert first == _ref_convert_to_tokens(
            text, tokenizer or tok.DeterministicTokenizer())[0]
        first.append("mutated")  # a caller's change must not reach the cache
        assert tok.tokenize_plain(text, tokenizer) == first[:-1]


def test_tokenize_plain_cache_bounded():
    assert tok._plain_tokens.cache_info().maxsize is not None


def test_tokenize_plain_caches_default_tokenizer_only():
    # a passed tokenizer (and its vocab) must not be pinned by the cache
    before = tok._plain_tokens.cache_info()
    assert tok.tokenize_plain("wordpiece only", _WP)
    after = tok._plain_tokens.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# ---------------------------------------------------------------- baseline

# complex subject ids and their affiliated slots, a few plain ids, and the
# I label (1), each as a subject id and as its object id (+55)
_LABEL_POOL = np.array(sorted(
    {c + d for c in (8, 9, 10, 11, 26, 27, 28, 29, 32, 33, 46, 47, 3, 20)
     for d in (0, 55)} | {1}))


def _baseline_case(rng, dense: bool):
    n_chars = int(rng.integers(0, 30))
    text = "".join(rng.choice(list("中文知识图谱ab 12《》"), n_chars))
    ex = BaselineHead().preprocess(text)
    L = len(ex["tokens"])
    if dense:  # trained-model-like probabilities, ~10% over threshold
        scores = rng.random((L, NUM_BASELINE_CLASSES)) * 0.55
        scores[:, _LABEL_POOL] = rng.random((L, len(_LABEL_POOL)))
    else:  # multi-hot label matrix over the complex ids
        scores = np.zeros((L, NUM_BASELINE_CLASSES), dtype=np.float32)
        for row in range(L):
            k = int(rng.integers(0, 4))
            scores[row, rng.choice(_LABEL_POOL, k, replace=False)] = 1
    return ex, scores


@pytest.mark.parametrize("dense", [False, True])
def test_baseline_decode_matches_reference(dense):
    rng = np.random.default_rng(7 + dense)
    head = BaselineHead()
    n_complex = 0
    for _ in range(300):
        ex, scores = _baseline_case(rng, dense)
        want = _ref_baseline_decode(ex, scores)
        assert head.decode(ex, scores) == want
        n_complex += sum(len(spo["object"]) > 1 for spo in want[1])
    assert n_complex > 0  # the affiliated-slot branch ran


# ---------------------------------------------------------------- MHS / MPN


def _sigmoid_noise(rng, shape, shift=-3.0):
    """Dense probabilities, a few percent above 0.5."""
    return 1.0 / (1.0 + np.exp(-rng.normal(shift, 2.0, shape)))


def _spans_with_duplicate_ends(rng, L):
    k = int(rng.integers(0, 7))
    if k == 0 or L < 3:
        return [], []
    end_pool = rng.integers(1, L - 1, size=2)
    subjects = []
    for _ in range(k):
        j = int(rng.choice(end_pool)) if rng.random() < 0.5 else \
            int(rng.integers(1, L - 1))
        subjects.append((int(rng.integers(1, j + 1)), j))
    return subjects, [j for _, j in subjects]


def test_decode_pairs_matches_full_scan():
    rng = np.random.default_rng(11)
    n_dup = n_unsorted = 0
    for _ in range(300):
        L = int(rng.integers(2, 25))
        logit = _sigmoid_noise(rng, (L, L, NUM_SLOTS)).astype(np.float32)
        subjects, end_list = _spans_with_duplicate_ends(rng, L)
        n_dup += len(set(end_list)) < len(end_list)
        n_unsorted += end_list != sorted(end_list)
        got = decode_pairs(logit, subjects, end_list)
        want = _ref_decode_pairs(logit, subjects, end_list)
        assert list(got.items()) == list(want.items())
    assert n_dup > 0 and n_unsorted > 0
    assert decode_pairs(np.ones((4, 4, NUM_SLOTS)), [], []) == {}


def test_decode_typed_spans_matches_reference():
    rng = np.random.default_rng(13)
    n_spans = 0
    for _ in range(300):
        L = int(rng.integers(1, 25))
        start = _sigmoid_noise(rng, (L, E_NUM + 1), shift=-2.0)
        end = _sigmoid_noise(rng, (L, E_NUM + 1), shift=-2.0)
        want = _ref_decode_typed_spans(start, end)
        assert decode_typed_spans(start, end) == want
        n_spans += len(want[0])
    assert n_spans > 0


def test_decode_subjects_and_po_match_reference():
    rng = np.random.default_rng(17)
    n_subjects = n_po = 0
    for _ in range(300):
        L = int(rng.integers(1, 25))
        tokens = ["x"] * L
        sub = _sigmoid_noise(rng, (L, 2), shift=0.0)
        want = _ref_decode_subjects(sub, tokens)
        assert decode_subjects(sub, tokens) == want
        po = _sigmoid_noise(rng, (L, NUM_SLOTS, 2), shift=-2.5)
        want_po = _ref_decode_po(po, tokens)
        assert decode_po(po, tokens) == want_po
        n_subjects += len(want)
        n_po += len(want_po)
    assert n_subjects > 0 and n_po > 0
