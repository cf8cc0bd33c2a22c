"""Deterministic synthetic conversation-transcript corpus with embedded facts.

Input shape mandated by BASELINE.json ``input_hint``:
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])``.

Every value is pure integer arithmetic on ``(conv_index, turn_idx)`` — no RNG —
so the gold triples are reproducible BOTH here (Python, for the oracle scorers
and pytest goldens) and in pure ANSI SQL (see ``fixture_sql.py``), which is how
the driver's DuckDB oracle can verify the full extraction pipeline value-by-
value.  Fixture shapes mirror the reference's data model
(``/root/reference/data/duie_demon.json``): one spo per fact turn,
``{"predicate", "subject", "subject_type", "object": {...}, "object_type":
{...}}`` with multi-slot objects for the five N-ary predicates.

Scale contract: conversation ``i`` has ``3 + i % 5`` turns; turn 0 and every
turn with ``(i + j) % 6 == 0`` is fact-free chatter; otherwise the turn text
embeds exactly one KB fact chosen by ``k = i*13 + j*7`` through the template
table below.  One entity (``PERSONS[0]``) is deliberately skewed hot (~25% of
person slots) to exercise the salted canonicalization shuffle.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp (us)

# --- entity pools (values chosen to avoid cross-pool substring collisions) ---
POOLS: dict[str, list[str]] = {
    "person": [
        "周明远", "林晚晴", "陈思哲", "吴雅婷", "郑浩然", "孙立群",
        "马文博", "黄秀兰", "徐志强", "罗佳怡", "高建国", "梁素云",
    ],
    "character": [
        "叶孤城", "沈冰壶", "白如霜", "蓝忘尘", "赵铁柱", "钱多多",
        "古月瑶", "柳残阳",
    ],
    "film": [
        "星河彼岸", "暗夜行者", "孤城余晖", "苍穹之下", "碧海潮声",
        "烈火雄风", "雪落无声", "荒原猎人", "深蓝记忆", "流光飞舞",
    ],
    "book": [
        "青铜时代纪", "山海拾遗录", "塞北孤烟传", "江南旧梦集",
        "幽谷回声录", "平原烽火记", "沧浪水云间", "灯下漫笔集",
    ],
    "song": [
        "月光倒影", "风中诺言", "远方来信", "尘埃之光", "夜空独白",
        "晨曦小调", "海岸线上", "旧时车站",
    ],
    "org": [
        "宏宇集团", "蓝鲸科技", "启明实业", "天枢传媒", "绿洲能源",
        "云帆网络", "磐石重工", "星桥银行",
    ],
    "school": [
        "临江大学", "海川大学", "北原理工学院", "南溪师范大学",
        "东湖医科大学", "云岭财经大学",
    ],
    "country": ["中国", "法国", "德国", "日本", "巴西", "挪威"],
    "place": [
        "临江市", "海川市", "北原市", "南溪市", "东湖区", "云岭县",
        "石门镇", "长平区",
    ],
    "award": [
        "金桅奖", "银杏叶奖", "晨星电影奖", "蓝鲸文学奖", "白杨戏剧奖",
        "远航音乐奖",
    ],
    "date": [
        "2001年3月12日", "2003年7月8日", "2005年11月23日", "2008年1月5日",
        "2011年9月30日", "2014年6月18日", "2017年12月2日", "2020年4月25日",
    ],
    "boxoffice": ["3亿", "5.2亿", "8000万", "12亿", "6500万", "21亿"],
    # periods must not collide with any digit run inside POOLS["date"] values
    # (span search finds the FIRST occurrence of a digit-run token)
    "period": ["10", "13", "15", "19"],
}

# A slot spec is (pool, a, b, skew): index = skew_idx(k) if skew else (a*k+b) % n.
# skew routes ~25% of picks to pool index 0 (the hot head entity).
Slot = tuple[str, int, int, bool]

# Template: (predicate, subject_slot, {obj_slot_key: slot}, text_format).
# text_format placeholders: {s} = subject, {o_<slot>} = object slot values.
TEMPLATES: list[tuple[str, Slot, dict[str, Slot], str]] = [
    ("作者", ("book", 3, 1, False), {"@value": ("person", 5, 2, True)},
     "《{s}》是{o_v}写的长篇小说。"),
    ("歌手", ("song", 1, 0, False), {"@value": ("person", 7, 3, True)},
     "歌曲《{s}》由{o_v}演唱。"),
    ("导演", ("film", 2, 5, False), {"@value": ("person", 3, 4, True)},
     "电影《{s}》的导演是{o_v}。"),
    ("主演", ("film", 5, 2, False), {"@value": ("person", 11, 6, True)},
     "《{s}》这部电影由{o_v}领衔主演。"),
    ("毕业院校", ("person", 7, 1, True), {"@value": ("school", 5, 0, False)},
     "{s}毕业于{o_v}。"),
    ("国籍", ("person", 5, 8, True), {"@value": ("country", 1, 2, False)},
     "{s}的国籍是{o_v}。"),
    ("成立日期", ("org", 3, 2, False), {"@value": ("date", 3, 1, False)},
     "{s}成立于{o_v}。"),
    ("董事长", ("org", 5, 4, False), {"@value": ("person", 9, 7, True)},
     "{s}的董事长是{o_v}。"),
    ("妻子", ("person", 2, 3, False), {"@value": ("person", 2, 8, False)},
     "{s}的妻子是{o_v}。"),
    ("总部地点", ("org", 7, 1, False), {"@value": ("place", 3, 2, False)},
     "{s}的总部位于{o_v}。"),
    ("主题曲", ("film", 3, 7, False), {"@value": ("song", 5, 1, False)},
     "电影《{s}》的主题曲是《{o_v}》。"),
    ("改编自", ("film", 7, 4, False), {"@value": ("book", 5, 3, False)},
     "影片《{s}》改编自小说《{o_v}》。"),
    ("上映时间", ("film", 11, 3, False),
     {"@value": ("date", 5, 2, False), "inArea": ("place", 5, 6, False)},
     "《{s}》于{o_v}在{o_inArea}正式上映。"),
    ("饰演", ("person", 13, 2, True),
     {"@value": ("character", 3, 1, False), "inWork": ("film", 13, 8, False)},
     "{s}在电影《{o_inWork}》中饰演{o_v}。"),
    ("票房", ("film", 17, 6, False),
     {"@value": ("boxoffice", 3, 2, False), "inArea": ("place", 7, 4, False)},
     "电影《{s}》在{o_inArea}的票房达到{o_v}。"),
    ("获奖", ("person", 17, 5, True),
     {"@value": ("award", 3, 2, False), "inWork": ("film", 11, 1, False),
      "onDate": ("date", 7, 3, False), "period": ("period", 3, 1, False)},
     "{s}凭借《{o_inWork}》于{o_onDate}获得第{o_period}届{o_v}。"),
    ("配音", ("person", 19, 9, True),
     {"@value": ("character", 5, 4, False), "inWork": ("film", 19, 2, False)},
     "{s}在动画电影《{o_inWork}》中为{o_v}配音。"),
]

CHATTER = [
    "你好，请帮我查一下相关资料。",
    "好的®，我来整理◆一下结果。",
    "麻烦再确认\xa0一下上面的信息。",
]

# object/subject types come from the canonical schema table.
from ..schema import predicate_schemas  # noqa: E402

_SCHEMA_BY_PRED = {s["predicate"]: s for s in predicate_schemas()}


def n_turns(i: int) -> int:
    return 3 + i % 5


def has_fact(i: int, j: int) -> bool:
    return j >= 1 and (i + j) % 6 != 0


def slot_index(slot: Slot, k: int) -> int:
    pool, a, b, skew = slot
    n = len(POOLS[pool])
    if skew:
        return 0 if k % 4 == 0 else (a * k + b) % (n - 1) + 1
    return (a * k + b) % n


def slot_value(slot: Slot, k: int) -> str:
    return POOLS[slot[0]][slot_index(slot, k)]


def fact_for(i: int, j: int) -> dict | None:
    """Gold spo dict for conversation i, turn j (None for chatter turns)."""
    if not has_fact(i, j):
        return None
    k = i * 13 + j * 7
    pred, subj_slot, obj_slots, _ = TEMPLATES[k % len(TEMPLATES)]
    schema = _SCHEMA_BY_PRED[pred]
    obj = {key: slot_value(s, k) for key, s in obj_slots.items()}
    obj_type = {key: schema["object_type"][key] for key in obj_slots}
    return {
        "predicate": pred,
        "subject": slot_value(subj_slot, k),
        "subject_type": schema["subject_type"],
        "object": obj,
        "object_type": obj_type,
    }


def turn_text(i: int, j: int) -> str:
    if not has_fact(i, j):
        return CHATTER[(i + j) % len(CHATTER)]
    k = i * 13 + j * 7
    pred, subj_slot, obj_slots, fmt = TEMPLATES[k % len(TEMPLATES)]
    values = {"s": slot_value(subj_slot, k)}
    for key, s in obj_slots.items():
        name = "o_v" if key == "@value" else f"o_{key}"
        values[name] = slot_value(s, k)
    return fmt.format(**values)


def total_gold(n_convs: int) -> int:
    """Closed-form corpus gold-triple count.

    ``n_turns`` has period 5 in ``i`` and ``has_fact`` period 6 in ``i+j``,
    so the per-conversation fact count has period lcm(5,6)=30: precompute
    the 30 residue counts once, then pure arithmetic — O(1) in the corpus
    size (the evaluation gate needs ``fn = total_gold - tp`` without an
    O(corpus) driver loop).
    """
    per = [
        sum(1 for j in range(n_turns(r)) if has_fact(r, j)) for r in range(30)
    ]
    return (n_convs // 30) * sum(per) + sum(per[: n_convs % 30])


def conv_id(i: int) -> str:
    return f"conv-{i:06d}"


def turn_role(i: int, j: int) -> tuple[str, str]:
    if j % 2 == 0:
        return "user", ""
    if (i + j) % 7 == 0:
        return "tool", "search"
    return "assistant", ""


def turn_ts_us(i: int, j: int) -> int:
    return EPOCH_US + (i * 86_400 + j * 60) * 1_000_000


TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def transcripts_block(conv_indices) -> pa.Table:
    """Arrow block of transcript turns for the given conversation indices.

    Used inside ``map_batches`` over ``ray.data.range(n_convs)`` so corpus
    generation streams (never materialized on the driver).
    """
    cols: dict[str, list] = {k: [] for k in
                             ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for i in conv_indices:
        i = int(i)
        cid = conv_id(i)
        for j in range(n_turns(i)):
            role, tool = turn_role(i, j)
            cols["conv_id"].append(cid)
            cols["turn_idx"].append(j)
            cols["role"].append(role)
            cols["text"].append(turn_text(i, j))
            cols["tool"].append(tool)
            cols["ts"].append(turn_ts_us(i, j))
    return pa.Table.from_pydict(
        {
            "conv_id": pa.array(cols["conv_id"], pa.string()),
            "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
            "role": pa.array(cols["role"], pa.string()),
            "text": pa.array(cols["text"], pa.string()),
            "tool": pa.array(cols["tool"], pa.string()),
            "ts": pa.array(cols["ts"], pa.timestamp("us")),
        }
    )


def transcripts_dataset(n_convs: int, shuffle_within_block: bool = True):
    """Streaming Ray Dataset of transcript turns.

    Rows are emitted shuffled within each generated block (deterministically)
    so downstream stages cannot rely on physical order — the `turn_idx`
    ordering invariant must be restored explicitly (FIXTURES.md §1).
    """
    import ray

    # block granularity: ~64 convs (≈320 turns) per block, capped at 512
    # blocks — tasks stay ~1s so the fused generate→extract stage balances
    # across a wide CPU fleet without per-task overhead dominating
    parallelism = max(1, min(n_convs // 64 or 1, 512))

    def gen(batch):
        ids = batch["id"].to_pylist()
        tbl = transcripts_block(ids)
        if shuffle_within_block and tbl.num_rows > 1:
            perm = np.random.RandomState(int(ids[0]) % 2**31).permutation(
                tbl.num_rows
            )
            tbl = tbl.take(pa.array(perm))
        return tbl

    return ray.data.range(n_convs, override_num_blocks=parallelism).map_batches(
        gen, batch_format="pyarrow", batch_size=256
    )


def gold_triples_rows(n_convs: int) -> pa.Table:
    """All gold triples, exploded one row per (turn, spo); JSON-encoded maps."""
    rows = {k: [] for k in ("conv_id", "turn_idx", "predicate", "subject",
                            "subject_type", "object_json", "object_type_json",
                            "object_value")}
    for i in range(n_convs):
        for j in range(n_turns(i)):
            spo = fact_for(i, j)
            if spo is None:
                continue
            rows["conv_id"].append(conv_id(i))
            rows["turn_idx"].append(j)
            rows["predicate"].append(spo["predicate"])
            rows["subject"].append(spo["subject"])
            rows["subject_type"].append(spo["subject_type"])
            rows["object_json"].append(
                json.dumps(spo["object"], ensure_ascii=False, sort_keys=True)
            )
            rows["object_type_json"].append(
                json.dumps(spo["object_type"], ensure_ascii=False, sort_keys=True)
            )
            rows["object_value"].append(spo["object"]["@value"])
    tbl = pa.Table.from_pydict(rows)
    return tbl.set_column(1, "turn_idx", tbl["turn_idx"].cast(pa.int32()))
