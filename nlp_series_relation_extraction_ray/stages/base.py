"""Head protocol + registry.

The reference implements four parallel extraction heads, each the triple
``(read_examples, Dataset/collate, model+decoder)`` wired by a near-identical
run script (``/root/reference/run_baseline.py:144-225``, ``run_mpn.py:110-209``,
``run_mhs.py:101-213``, ``run_mhs_biaffine.py:101-215``).  Here a head is a
class with three methods, and the extraction stage
(``pipelines/extract.py``) calls them per turn inside ``map_batches``:

- ``preprocess(text) -> ex`` : tokenize + alignment (an ``Example`` analog);
- ``oracle_scores(ex, spo_list)`` : synthesize the probabilities a perfect
  model would emit, via the reference's label-builder semantics (SURVEY §7.0 —
  trained weights are unavailable, so correctness is pinned by label→decode
  round trips; a real neural scorer drops into the same slot);
- ``decode(ex, scores) -> (entity_list, spo_list)`` : the deterministic
  logits→SPO algorithms (D1–D4), cited per head module.
"""

from __future__ import annotations

from typing import Protocol


class Head(Protocol):
    name: str
    normalizes_text: bool  # MPN/MHS strip ®◆ before tokenizing; baseline does not

    def preprocess(self, text: str) -> dict: ...

    def oracle_scores(self, ex: dict, spo_list: list[dict]): ...

    def decode(self, ex: dict, scores) -> tuple[list[str], list[dict]]: ...


_REGISTRY: dict[str, type] = {}


def register_head(cls):
    _REGISTRY[cls.name] = cls
    return cls


def get_head(name: str) -> "Head":
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown head {name!r}; have {sorted(_REGISTRY)}") from None


def head_names() -> list[str]:
    return sorted(_REGISTRY)


def normalize_text(text: str) -> str:
    """M1 normalizer: strip ® and ◆ (parity: dataset/dataset_mpn.py:36-37)."""
    return text.replace("®", "").replace("◆", "")


# Max token length INCLUDING [CLS]/[SEP].  The reference truncates eval
# batches at max_len=200 (dataset_mpn.py:158-161, dataset_baseline.py:180-184
# collate caps); we default higher but MUST truncate: an unbounded turn would
# make the MHS/biaffine O(L²R) in-task tensor explode at corpus scale.
MAX_LEN = 300


def truncate_example(tokens, tok_start, tok_end, max_len: int = MAX_LEN):
    """Truncate a [CLS]+interior+[SEP] token list and its char alignment."""
    interior = max_len - 2
    if len(tokens) <= max_len:
        return tokens, tok_start, tok_end
    return (
        tokens[: max_len - 1] + [tokens[-1]],  # keep [SEP]
        tok_start[:interior],
        tok_end[:interior],
    )


# per-worker-process stage cache for task-based map_batches: construction
# runs once per worker per kind (load-once-in-``__init__`` semantics without
# an actor fleet); used by extraction, linking, edge-combine tasks, the IVF
# bucket assignment and every broadcast lookup table.  Task workers are
# long-lived and reused across Dataset executions, so the cache holds ONE
# entry per kind: a call with a new ``version`` (the hex of a fresh
# ``ray.put`` ref) rebuilds and replaces the old entry instead of keeping a
# stale copy per call.
_WORKER_CACHE: dict = {}


def worker_cached(kind, builder, version=None):
    """``builder()``'s result, cached per worker process under ``kind``;
    rebuilt when ``version`` differs from the cached entry's."""
    hit = _WORKER_CACHE.get(kind)
    if hit is None or hit[0] != version:
        hit = _WORKER_CACHE[kind] = (version, builder())
    return hit[1]


TURN_COLUMNS = ["conv_id", "turn_idx", "text"]


def map_turns(transcripts_ds, fn, batch_size: int, kwargs=None):
    """The one extraction ``map_batches``: Arrow batches of the turn
    columns through the task function ``fn`` with ``kwargs`` as its
    keyword arguments.

    Only ``TURN_COLUMNS`` are kept, so role/tool/ts are dropped before they
    ship through the object store (when reading Parquet, pair this with
    ``read_parquet(columns=...)``).  The input's schema is read only if it
    is known without running the input; a lazy input is pruned
    unconditionally, which the extraction UDFs allow since they read every
    turn column.  A stage with state (a head, broadcast weights) builds it
    once per worker process through :func:`worker_cached`; the tasks fuse
    with the upstream read.
    """
    schema = transcripts_ds.schema(fetch_if_missing=False)
    if schema is None or set(TURN_COLUMNS) < set(schema.names):
        transcripts_ds = transcripts_ds.select_columns(TURN_COLUMNS)
    return transcripts_ds.map_batches(
        fn, fn_kwargs=kwargs, batch_format="pyarrow", batch_size=batch_size)
