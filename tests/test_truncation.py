"""Long-turn safety: preprocess truncates at MAX_LEN so the MHS/biaffine
O(L²R) in-task tensor stays bounded, and facts within the window still
round-trip (reference analog: eval collate max_len cap)."""

import pytest

from nlp_series_relation_extraction_ray.functions.evaluation import (
    calculate_metric,
)
from nlp_series_relation_extraction_ray.stages import get_head
from nlp_series_relation_extraction_ray.stages.base import MAX_LEN


@pytest.mark.parametrize("head", ["baseline", "mpn", "mhs", "biaffine"])
def test_long_turn_truncated_and_bounded(head):
    gold = [{
        "predicate": "作者", "subject": "青铜时代纪", "subject_type": "图书作品",
        "object": {"@value": "周明远"}, "object_type": {"@value": "人物"},
    }]
    # fact inside the window, followed by a 5000-char tail
    text = "《青铜时代纪》是周明远写的长篇小说。" + "甲乙丙丁。" * 1000
    h = get_head(head)
    ex = h.preprocess(text)
    assert len(ex["tokens"]) <= MAX_LEN
    sc = h.oracle_scores(ex, gold)
    ents, spos = h.decode(ex, sc)
    assert calculate_metric(gold, spos) == (1, 0, 0)


@pytest.mark.parametrize("head", ["mpn", "mhs"])
def test_fact_beyond_window_is_dropped_not_crashed(head):
    gold = [{
        "predicate": "妻子", "subject": "周明远", "subject_type": "人物",
        "object": {"@value": "林晚晴"}, "object_type": {"@value": "人物"},
    }]
    # fact only appears AFTER the truncation horizon
    text = "甲乙丙丁。" * 1000 + "周明远的妻子是林晚晴。"
    h = get_head(head)
    ex = h.preprocess(text)
    assert len(ex["tokens"]) <= MAX_LEN
    sc = h.oracle_scores(ex, gold)
    ents, spos = h.decode(ex, sc)
    tp, fp, fn = calculate_metric(gold, spos)
    assert tp == 0 and fn == 1  # lost to truncation, like the reference
