"""Single source of truth for the DuIE 2.0 predicate/type universe.

The reference repo hard-codes the same 55 predicate-slot universe under two
different id numberings:

- ``BAIDU_RELATION`` (ids 0..54) + ``SPO_TAG`` lists
  (``/root/reference/config/mpn/spo_config.py:9-240``), used by the MPN / MHS /
  biaffine heads;
- ``predicate2id.json`` (O=0, I=1, slots 2..56) + ``id2spo.json``
  (``/root/reference/config/官方baseline/``), used by the BIO baseline head;

plus duplicated complex-relation id lists (``utils/utils.py:192-193`` vs
``run_evaluation.py:92-93`` / ``dataset/dataset_mpn.py:27-28``).

Here everything derives from ONE table, ``SLOTS``: 55 entries in the canonical
BAIDU order, each ``(slot_key, subject_type, object_type_tagged)``.  A slot key
is either a plain predicate ("作者") or "predicate_slot" for N-ary relations
("上映时间_inArea"); ``object_type_tagged`` keeps the reference's "Type_slot"
tagging used by ``SPO_TAG['object_type']``.
"""

from __future__ import annotations

from functools import lru_cache

# (slot_key, subject_type, object_type_tagged) — canonical BAIDU order, ids 0..54.
# Parity: /root/reference/config/mpn/spo_config.py:9-240.
SLOTS: list[tuple[str, str, str]] = [
    ("注册资本", "企业", "Number"),
    ("作者", "图书作品", "人物"),
    ("所属专辑", "歌曲", "音乐专辑"),
    ("歌手", "歌曲", "人物"),
    ("邮政编码", "行政区", "Text"),
    ("主演", "影视作品", "人物"),
    ("上映时间_@value", "影视作品", "Date_@value"),
    ("上映时间_inArea", "影视作品", "地点_inArea"),
    ("饰演_@value", "娱乐人物", "人物_@value"),
    ("饰演_inWork", "娱乐人物", "影视作品_inWork"),
    ("国籍", "人物", "国家"),
    ("成立日期", "机构", "Date"),
    ("毕业院校", "人物", "学校"),
    ("作曲", "歌曲", "人物"),
    ("作词", "歌曲", "人物"),
    ("编剧", "影视作品", "人物"),
    ("导演", "影视作品", "人物"),
    ("面积", "行政区", "Number"),
    ("占地面积", "机构", "Number"),
    ("总部地点", "企业", "地点"),
    ("制片人", "影视作品", "人物"),
    ("嘉宾", "电视综艺", "人物"),
    ("简称", "机构", "Text"),
    ("主持人", "电视综艺", "人物"),
    ("获奖_@value", "娱乐人物", "奖项_@value"),
    ("获奖_inWork", "娱乐人物", "作品_inWork"),
    ("获奖_onDate", "娱乐人物", "Date_onDate"),
    ("获奖_period", "娱乐人物", "Number_period"),
    ("海拔", "地点", "Number"),
    ("出品公司", "影视作品", "企业"),
    ("配音_@value", "娱乐人物", "人物_@value"),
    ("配音_inWork", "娱乐人物", "影视作品_inWork"),
    ("所在城市", "景点", "城市"),
    ("号", "历史人物", "Text"),
    ("主角", "文学作品", "人物"),
    ("创始人", "企业", "人物"),
    ("父亲", "人物", "人物"),
    ("祖籍", "人物", "地点"),
    ("母亲", "人物", "人物"),
    ("朝代", "历史人物", "Text"),
    ("董事长", "企业", "人物"),
    ("人口数量", "行政区", "Number"),
    ("妻子", "人物", "人物"),
    ("丈夫", "人物", "人物"),
    ("票房_@value", "影视作品", "Number_@value"),
    ("票房_inArea", "影视作品", "地点_inArea"),
    ("专业代码", "学科专业", "Text"),
    ("气候", "行政区", "气候"),
    ("修业年限", "学科专业", "Number"),
    ("改编自", "影视作品", "作品"),
    ("官方语言", "国家", "语言"),
    ("首都", "国家", "城市"),
    ("主题曲", "影视作品", "歌曲"),
    ("校长", "学校", "人物"),
    ("代言人", "企业/品牌", "人物"),
]

NUM_SLOTS = len(SLOTS)  # 55 (R_num in the reference)

# ---- MPN/MHS/biaffine numbering (ids 0..54) ------------------------------
BAIDU_RELATION: dict[str, int] = {key: i for i, (key, _, _) in enumerate(SLOTS)}
ID2REL: dict[int, str] = {i: key for key, i in BAIDU_RELATION.items()}

SPO_TAG: dict[str, list[str]] = {
    "predicate": [key.split("_")[0] for key, _, _ in SLOTS],
    "subject_type": [st for _, st, _ in SLOTS],
    "object_type": [ot for _, _, ot in SLOTS],
}

# Complex (N-ary) relation ids and their affiliated-slot ids, BAIDU numbering.
# Parity: /root/reference/run_evaluation.py:92-93, dataset/dataset_mpn.py:27-28.
COMPLEX_RELATION_IDS = [6, 8, 24, 30, 44]
COMPLEX_RELATION_AFFI_IDS = [7, 9, 25, 26, 27, 31, 45]

# ---- baseline (BIO) numbering: O=0, I=1, slots at 2..56, objects at +55 --
# Parity: /root/reference/config/官方baseline/predicate2id.json and id2spo.json.
LABEL_MAP: dict[str, int] = {"O": 0, "I": 1}
for _i, (_key, _, _) in enumerate(SLOTS):
    LABEL_MAP[_key] = _i + 2

NUM_BASELINE_CLASSES = 2 * (len(LABEL_MAP) - 2) + 2  # 112

ID2SPO: dict[str, list[str]] = {
    "predicate": ["empty", "empty"] + SPO_TAG["predicate"],
    "subject_type": ["empty", "empty"] + SPO_TAG["subject_type"],
    "object_type": ["empty", "empty"] + SPO_TAG["object_type"],
}

# Complex ids under the baseline numbering (= BAIDU id + 2).
# Parity: /root/reference/utils/utils.py:192-193.
BASELINE_COMPLEX_IDS = [i + 2 for i in COMPLEX_RELATION_IDS]  # [8, 10, 26, 32, 46]
BASELINE_COMPLEX_AFFI_IDS = [i + 2 for i in COMPLEX_RELATION_AFFI_IDS]

# ---- entity-type universe (MHS heads) ------------------------------------
# Parity: /root/reference/run_mhs.py:124-135 (s2id construction).


@lru_cache(maxsize=1)
def entity_types() -> list[str]:
    """Sorted de-duplicated base types from subject+object type lists."""
    types = SPO_TAG["subject_type"] + SPO_TAG["object_type"]
    types = [t.split("_")[0] for t in types]
    return sorted(set(types))


@lru_cache(maxsize=1)
def s2id() -> dict[str, int]:
    return {t: i + 1 for i, t in enumerate(entity_types())}


E_NUM = len(entity_types())  # 26 entity types (+1 null id 0)
R_NUM = NUM_SLOTS


@lru_cache(maxsize=1)
def predicate_schemas() -> list[dict]:
    """The 48 DuIE schemas: predicate -> subject_type + object_type map.

    Reconstructs /root/reference/config/duie_schema.json by grouping slots.
    """
    by_pred: dict[str, dict] = {}
    for key, st, ot in SLOTS:
        if "_" in key:
            pred, slot = key.split("_", 1)
        else:
            pred, slot = key, "@value"
        entry = by_pred.setdefault(
            pred, {"predicate": pred, "subject_type": st, "object_type": {}}
        )
        entry["object_type"][slot] = ot.split("_")[0]
    return list(by_pred.values())


def complex_predicates() -> list[str]:
    """N-ary predicates (上映时间, 饰演, 获奖, 配音, 票房)."""
    return [s["predicate"] for s in predicate_schemas() if len(s["object_type"]) > 1]
