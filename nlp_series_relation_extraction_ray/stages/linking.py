"""Entity linking: mention -> KB entity (J3, the north-star extension).

Candidate generation is a broadcast-hash semi-join: the alias index is
``ray.put`` once and read once per task worker — the reference's
lookup-dict pattern (``run_mhs.py:121-135`` ships id maps to the model) scaled
out, never a shuffle join.  Candidate scoring reuses the biaffine form of the
reference's pair scorer (``/root/reference/models/model_mhs_biaffine.py:10-28``:
``e1ᵀ W e2 + [e1;e2;1]·w``) over deterministic char-hash embeddings, so
linking is reproducible without trained weights; a trained scorer drops into
``_score``.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

_DIM = 16


def _char_embed(surface: str) -> np.ndarray:
    """Deterministic bag-of-char-hash embedding (unit norm)."""
    v = np.zeros(_DIM, dtype=np.float64)
    for pos, ch in enumerate(surface):
        h = (ord(ch) * 2654435761 + pos * 97) % (2**32)
        v[h % _DIM] += 1.0 + (h >> 16) / 2**16
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


class EntityLinker:
    """Map-batches callable: mention batch -> mention batch + entity columns.

    Input columns: ``surface``, ``mention_type`` (+ passthrough).  Output adds
    ``entity_id`` (KB id, or ``lit:<surface>`` for unlinked literal types, or
    ``m:<surface>`` for unlinked named mentions) and ``canonical_name``.
    """

    LITERAL_TYPES = {"Number", "Text", "Date", "气候", "语言"}

    def __init__(self, alias_index_ref=None, alias_index: dict | None = None):
        if alias_index is None:
            if alias_index_ref is not None:
                import ray

                alias_index = ray.get(alias_index_ref)
            else:
                from ..sources.kb import build_alias_index

                alias_index = build_alias_index()
        self.alias_index = alias_index
        # fixed-seed biaffine parameters (models/model_mhs_biaffine.py:10-28)
        rng = np.random.RandomState(7)
        self.W = rng.randn(_DIM, _DIM) / np.sqrt(_DIM)
        self.w2 = rng.randn(2 * _DIM + 1) / np.sqrt(2 * _DIM)
        self._embed_cache: dict[str, np.ndarray] = {}

    def _embed(self, s: str) -> np.ndarray:
        v = self._embed_cache.get(s)
        if v is None:
            v = _char_embed(s)
            if len(self._embed_cache) < 100_000:
                self._embed_cache[s] = v
        return v

    def _score(self, mention: str, mention_type: str, cand: dict) -> float:
        e1 = self._embed(mention)
        e2 = self._embed(cand["canonical_name"])
        biaff = float(e1 @ self.W @ e2 + np.concatenate([e1, e2, [1.0]]) @ self.w2)
        type_bonus = 2.0 if cand["entity_type"] == mention_type else 0.0
        exact_bonus = 1.0 if mention == cand["canonical_name"] else 0.0
        return biaff + type_bonus + exact_bonus

    def link_one(self, surface: str, mention_type: str) -> tuple[str, str]:
        cands = self.alias_index.get(surface)
        if not cands:
            if mention_type in self.LITERAL_TYPES:
                return f"lit:{surface}", surface
            return f"m:{surface}", surface
        best = max(
            cands,
            key=lambda c: (self._score(surface, mention_type, c), c["entity_id"]),
        )
        return best["entity_id"], best["canonical_name"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        surfaces = batch["surface"].to_pylist()
        types = batch["mention_type"].to_pylist()
        ids, canon = [], []
        for s, t in zip(surfaces, types):
            eid, cn = self.link_one(s, t)
            ids.append(eid)
            canon.append(cn)
        return batch.append_column(
            "entity_id", pa.array(ids, pa.string())
        ).append_column("canonical_name", pa.array(canon, pa.string()))


def task_link(batch: pa.Table, ref_key, alias_index_ref) -> pa.Table:
    """Task-based linking with a per-worker cached EntityLinker: the alias
    index and scorer params are built once per worker process and rebuilt
    only for a new broadcast."""
    from .base import worker_cached

    linker = worker_cached(
        "link",
        lambda: EntityLinker(alias_index_ref=alias_index_ref),
        ref_key,
    )
    return linker(batch)


def mentions_from_triples(batch: pa.Table) -> pa.Table:
    """Triples batch -> mention rows (subject + @value object per triple).

    Qualifier slot values stay on edges as qualifiers; nodes are built from
    subjects and primary objects.
    """
    out = {"surface": [], "mention_type": [], "conv_id": [], "turn_idx": []}
    convs = batch["conv_id"].to_pylist()
    turns = batch["turn_idx"].to_pylist()
    subjects = batch["subject"].to_pylist()
    stypes = batch["subject_type"].to_pylist()
    otypes_l = batch["object_type_json"].to_pylist()
    ovals = batch["object_value"].to_pylist()
    for i in range(batch.num_rows):
        out["surface"].append(subjects[i])
        out["mention_type"].append(stypes[i])
        out["conv_id"].append(convs[i])
        out["turn_idx"].append(turns[i])
        otypes = json.loads(otypes_l[i])
        out["surface"].append(ovals[i])
        out["mention_type"].append(otypes.get("@value", "Text"))
        out["conv_id"].append(convs[i])
        out["turn_idx"].append(turns[i])
    return pa.Table.from_pydict(
        {
            "surface": pa.array(out["surface"], pa.string()),
            "mention_type": pa.array(out["mention_type"], pa.string()),
            "conv_id": pa.array(out["conv_id"], pa.string()),
            "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        }
    )
