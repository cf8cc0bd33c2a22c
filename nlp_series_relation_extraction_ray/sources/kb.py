"""Deterministic alias knowledge base for entity linking.

Built from the fixture entity pools (FIXTURES.md §3 shape): entity_id,
canonical_name, entity_type, aliases.  Literal-valued pools (dates, numbers)
are not KB entities — their mentions become typed literal nodes.

The KB is a SMALL dimension table: ship it with ``ray.put`` once and read it
once per linking task worker (a broadcast-hash semi-join, SURVEY §2.5 J3) —
never a distributed shuffle join.
"""

from __future__ import annotations

from .transcripts import POOLS

# pool -> dominant entity type for canonical nodes
POOL_TYPES: dict[str, str] = {
    "person": "人物",
    "character": "人物",
    "film": "影视作品",
    "book": "图书作品",
    "song": "歌曲",
    "org": "企业",
    "school": "学校",
    "country": "国家",
    "place": "地点",
    "award": "奖项",
}

# derived alias suffix-strip rules: (pool, strippable suffix) — gives each
# entity a shorter alias (简称-style) to exercise candidate scoring
_ALIAS_SUFFIXES = {
    "org": ["集团", "科技", "实业", "传媒", "能源", "网络", "重工", "银行"],
    "school": ["大学", "学院"],
    "award": ["奖"],
}


def entity_id(pool: str, idx: int) -> str:
    return f"E-{pool}-{idx:03d}"


def build_alias_kb() -> list[dict]:
    """KB rows: {entity_id, canonical_name, entity_type, aliases}."""
    rows = []
    for pool, etype in POOL_TYPES.items():
        for idx, name in enumerate(POOLS[pool]):
            aliases = [name]
            for suf in _ALIAS_SUFFIXES.get(pool, []):
                if name.endswith(suf) and len(name) > len(suf) + 1:
                    aliases.append(name[: -len(suf)])
                    break
            rows.append(
                {
                    "entity_id": entity_id(pool, idx),
                    "canonical_name": name,
                    "entity_type": etype,
                    "aliases": aliases,
                }
            )
    return rows


def build_alias_index(kb_rows: list[dict] | None = None) -> dict[str, list[dict]]:
    """alias surface -> candidate KB rows (ambiguous aliases allowed)."""
    kb_rows = kb_rows if kb_rows is not None else build_alias_kb()
    index: dict[str, list[dict]] = {}
    for row in kb_rows:
        for alias in row["aliases"]:
            index.setdefault(alias, []).append(row)
    return index
