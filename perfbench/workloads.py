"""The three benchmark workloads.

Each workload makes its inputs (from the seed, or fixed tables for the query
mix) and computes its oracle (``prepare``, no Ray, off the clock), warms its
own code path in the Ray session (``setup``), then exposes one *pass* of
operations as ``ops()``.  An operation is one public pipeline or query call whose output is fully
consumed; ``check`` compares that output with the oracle after the clock
stops.  ``traced_pass`` runs the same work one layer at a time: each layer's
input is materialized first, so a span covers exactly the layer's public
call plus the consumption of its output.
"""

from __future__ import annotations

import shutil
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import inputs
from .harness import Tracer, frame_hash, stats_cpu_s

# Copy of the sf0.01 tables the project's oracle-parity tests read (TPC-H-ish
# star schema, events and documents; deterministic, generated with seed 42),
# minus the tables no query of the mix reads.
FIXTURE_TABLES = Path(__file__).resolve().parent / "fixtures" / "sf0.01"

HEADS = ("baseline", "mpn", "mhs", "biaffine")


def _duckdb(tables: dict[str, Path]):
    import duckdb

    con = duckdb.connect()
    for name, path in tables.items():
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
    return con


def _timed_materialize(tracer: Tracer, name: str, make, inp=None):
    """Span ``name`` around ``make().materialize()``; also adds the task CPU
    seconds of the operators it ran (beyond ``inp``'s) to ``<layer>.cpu_s``,
    ``<layer>`` being the first dotted part of ``name``."""
    with tracer.span(name):
        out = make().materialize()
    cpu = stats_cpu_s(out) - (stats_cpu_s(inp) if inp is not None else 0.0)
    tracer.count(f"{name.split('.')[0]}.cpu_s", cpu)
    return out


class _Corpus:
    """Seeded transcript corpus plus the fixture-SQL oracle over its ids."""

    n_convs = 0

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.corpus = work / "corpus"

    def prepare(self) -> None:
        self.ids, self.n_turns = inputs.write_corpus(self.corpus, self.seed,
                                                     self.n_convs)
        docs = self.work / "documents.parquet"
        inputs.write_doc_ids(docs, self.ids)
        self.con = _duckdb({"documents": docs})

    def oracle_hash(self, sql: str) -> tuple[str, int]:
        df = self.con.execute(sql).df()
        return frame_hash(df), len(df)

    def read(self, path: Path | None = None):
        from nlp_series_relation_extraction_ray.sources.readers import (
            read_parquet_clean,
        )

        return read_parquet_clean(str(path or self.corpus))

    @property
    def first_file(self) -> Path:
        return sorted(self.corpus.glob("*.parquet"))[0]


class ExtractHeads(_Corpus):
    """``extract_triples(read_parquet_clean(dir), head=h)`` for every head."""

    name = "extract_heads"
    n_convs = 1000

    def prepare(self) -> None:
        from nlp_series_relation_extraction_ray.sources import fixture_sql

        super().prepare()
        self.gold_hash, self.n_gold = self.oracle_hash(
            fixture_sql.gold_triples_sql())
        self._evaluated: set[str] = set()

    @property
    def turns_per_pass(self) -> int:
        return self.n_turns * len(HEADS)

    def _extract(self, head: str, src=None):
        from nlp_series_relation_extraction_ray.pipelines.extract import (
            extract_triples,
        )

        return extract_triples(src if src is not None else self.read(),
                               head=head)

    def setup(self) -> None:
        for head in HEADS:
            self._extract(head, self.read(self.first_file)).to_pandas()

    def before_pass(self) -> None:
        pass

    def ops(self):
        return [(h, lambda h=h: self._extract(h).to_pandas()) for h in HEADS]

    def check(self, head: str, df) -> str | None:
        import ray

        from __ray_entry__ import EXTRACT_COLS
        from nlp_series_relation_extraction_ray.functions.evaluation import (
            evaluate_triples,
        )
        from nlp_series_relation_extraction_ray.pipelines.extract import (
            _synthetic_gold,
        )

        if frame_hash(df[EXTRACT_COLS]) != self.gold_hash:
            return f"{head}: triples differ from the fixture SQL gold"
        # the hash already pins every pass; P/R is a Ray job, so once per head
        if head not in self._evaluated:
            self._evaluated.add(head)
            m = evaluate_triples(ray.data.from_pandas(df), _synthetic_gold,
                                 self.n_gold)
            if m["precision"] != 1.0 or m["recall"] != 1.0:
                return f"{head}: P={m['precision']} R={m['recall']}"
        return None

    def traced_pass(self, tr: Tracer) -> list[tuple[str, object]]:
        src = _timed_materialize(tr, "sources.read", self.read)
        tr.count("sources.rows", src.count())
        outs = []
        for head in HEADS:
            out = _timed_materialize(tr, f"extract.{head}",
                                     partial(self._extract, head, src), src)
            tr.count("extract.triples", out.count())
            outs.append((head, out.to_pandas()))
        return outs


class KgBuild(_Corpus):
    """``build_kg(read_parquet_clean(dir), head="baseline", out_dir=...)``."""

    name = "kg_build"
    n_convs = 400

    def prepare(self) -> None:
        from nlp_series_relation_extraction_ray.sources import fixture_sql

        super().prepare()
        self.out = self.work / "kg"
        self.expect = {
            "nodes": self.oracle_hash(fixture_sql.kg_nodes_sql())[0],
            "edges": self.oracle_hash(fixture_sql.kg_edges_sql())[0],
        }
        self.n_gold = self.oracle_hash(fixture_sql.gold_triples_sql())[1]

    @property
    def turns_per_pass(self) -> int:
        return self.n_turns

    def _build(self, src, out_dir: Path) -> dict:
        from nlp_series_relation_extraction_ray.pipelines.kg import build_kg

        res = build_kg(src, head="baseline", out_dir=str(out_dir))
        return {"triples": res["triples"].count(),
                "nodes": res["nodes"].to_pandas(),
                "edges": res["edges"].to_pandas()}

    def setup(self) -> None:
        warm = self.work / "kg_warm"
        self._build(self.read(self.first_file), warm)
        shutil.rmtree(warm)

    def before_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def ops(self):
        return [("build_kg", lambda: self._build(self.read(), self.out))]

    def check(self, name: str, res: dict) -> str | None:
        if res["triples"] != self.n_gold:
            return f"{res['triples']} triples, fixture SQL has {self.n_gold}"
        for table in ("nodes", "edges"):
            if frame_hash(res[table]) != self.expect[table]:
                return f"{table} differ from the fixture SQL oracle"
        return None

    def traced_pass(self, tr: Tracer) -> list[tuple[str, object]]:
        """``build_kg`` itself, with the layer calls it makes wrapped in
        spans (:func:`_traced_build_kg`)."""
        src = _timed_materialize(tr, "sources.read", self.read)
        tr.count("sources.rows", src.count())
        with _traced_build_kg(tr):
            res = self._build(src, self.out)
        tr.count("canonicalize.combine_ratio",
                 tr.counts["canonicalize.partials"] / tr.counts["linking.mentions"])
        return [("build_kg", res)]


@contextmanager
def _patched(obj, attr: str, make_wrapper):
    """Replace ``obj.attr`` by ``make_wrapper(original)`` for the block."""
    real = getattr(obj, attr)
    setattr(obj, attr, make_wrapper(real))
    try:
        yield
    finally:
        setattr(obj, attr, real)


@contextmanager
def _traced_build_kg(tr: Tracer):
    """Open a span around each layer call ``pipelines.kg.build_kg`` makes.
    Every wrapper materializes the call's output inside its span, so a span
    times exactly one layer; the layers' inputs are already materialized by
    the wrapper of the layer before."""
    import ray

    from nlp_series_relation_extraction_ray.functions import grouping
    from nlp_series_relation_extraction_ray.pipelines import kg
    from nlp_series_relation_extraction_ray.sources import readers
    from nlp_series_relation_extraction_ray.stages import canonicalize

    parents: dict = {}  # materialized layer inputs, for CPU accounting

    def extract(real):
        def traced(src, head="baseline", **kwargs):
            out = _timed_materialize(
                tr, f"extract.{head}", lambda: real(src, head=head, **kwargs),
                src)
            tr.count("extract.triples", out.count())
            return out
        return traced

    def read_back(real):
        def traced(path, **kwargs):
            out = _timed_materialize(tr, "kg.read_back",
                                     lambda: real(path, **kwargs))
            if Path(path).name == "triples":
                parents["triples"] = parents["graph.combine"] = out
            return out
        return traced

    def write(real):
        def traced(ds, path, *args, **kwargs):
            with tr.span(f"kg.write_{Path(path).name}"):
                return real(ds, path, *args, **kwargs)
        return traced

    def grouped(real):
        def traced(ds, keys, fn, *args, **kwargs):
            keys_t = (keys,) if isinstance(keys, str) else tuple(keys)
            in_span, out_span = _GROUPING_SPANS.get(keys_t,
                                                    (None, "grouping.other"))
            if in_span is not None:  # the map-side combiner feeding the merge
                ds = _timed_materialize(tr, in_span, lambda: ds,
                                        parents[in_span])
                tr.count(_INPUT_COUNTS[in_span], ds.count())
            out = _timed_materialize(
                tr, out_span, lambda: real(ds, keys, fn, *args, **kwargs), ds)
            if out_span in _OUTPUT_COUNTS:
                tr.count(_OUTPUT_COUNTS[out_span], out.count())
            return out
        return traced

    def link_then_canonicalize(real):
        # kg_nodes hands canonicalize_nodes the lazy mentions -> task_link
        # chain: materializing it here is the linking layer
        def traced(linked, *args, **kwargs):
            linked = _timed_materialize(tr, "linking.link", lambda: linked,
                                        parents["triples"])
            tr.count("linking.mentions", linked.count())
            parents["canonicalize.combine"] = linked
            return real(linked, *args, **kwargs)
        return traced

    with ExitStack() as stack:
        stack.enter_context(_patched(kg, "extract_triples", extract))
        stack.enter_context(_patched(readers, "read_parquet_clean", read_back))
        stack.enter_context(_patched(ray.data.Dataset, "write_parquet", write))
        stack.enter_context(_patched(canonicalize, "canonicalize_nodes",
                                     link_then_canonicalize))
        stack.enter_context(_patched(grouping, "bucketed_group_apply",
                                     grouped))
        yield


# bucketed_group_apply call sites inside build_kg, by their group keys:
# (span for materializing the input, span for the grouped merge)
_GROUPING_SPANS = {
    ("entity_id", "salt"): ("canonicalize.combine", "grouping.salt_merge"),
    ("entity_id",): (None, "grouping.node_merge"),
    ("src_id", "dst_id", "predicate", "qualifiers_json"):
        ("graph.combine", "grouping.edge_merge"),
}
_INPUT_COUNTS = {"canonicalize.combine": "canonicalize.partials",
                 "graph.combine": "graph.partials"}
_OUTPUT_COUNTS = {"grouping.node_merge": "canonicalize.nodes",
                  "grouping.edge_merge": "graph.edges"}


KG_QUERIES = (
    "kg_node_degrees", "kg_components", "kg_edges_named",
    "transcripts_reconstruct", "events_sessionize_salted",
    "events_user_stats", "q5_local_supplier_revenue", "q18_large_orders",
    "docs_near_dup_check", "events_user_hll_check",
)


class KgQueryMix:
    """Ten ``__ray_entry__.queries()`` over the project's fixed sf0.01 test
    tables, in an order drawn by the seed, against KG edge/node checkpoints
    built during set-up."""

    name = "kg_query_mix"

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.sf = FIXTURE_TABLES

    def prepare(self) -> None:
        import __ray_entry__ as entry

        con = _duckdb({p.stem: p for p in self.sf.glob("*.parquet")})
        sql = entry.oracle_sql()
        self.expect = {}
        for q in KG_QUERIES:
            df = con.execute(sql[q]).df()
            if df.empty:  # q18_large_orders raises on an empty result
                raise RuntimeError(f"{q}: the oracle result is empty")
            self.expect[q] = frame_hash(df)
        order = np.random.default_rng(self.seed).permutation(len(KG_QUERIES))
        self.order = [KG_QUERIES[i] for i in order]

    def setup(self) -> None:
        import __ray_entry__ as entry
        from nlp_series_relation_extraction_ray.sources.readers import (
            read_parquet_clean,
        )

        sf = str(self.sf)
        entry._kg_edges_checkpoint(sf)
        entry._kg_nodes_checkpoint(sf)
        read_parquet_clean(str(self.sf / "events.parquet")).count()
        self._queries = entry.queries()
        self._keep = set(entry._SHARED_CACHE)

    def before_pass(self) -> None:
        """Drop results the previous pass's queries cached, keeping only the
        set-up checkpoints, so no pass times a cache hit."""
        import __ray_entry__ as entry

        for key in set(entry._SHARED_CACHE) - self._keep:
            del entry._SHARED_CACHE[key]

    def _run(self, name: str):
        from bench import _to_pandas

        return _to_pandas(self._queries[name](str(self.sf)))

    def ops(self):
        return [(q, partial(self._run, q)) for q in self.order]

    def check(self, name: str, df) -> str | None:
        if frame_hash(df) != self.expect[name]:
            return f"{name}: result differs from oracle_sql()"
        return None

    def traced_pass(self, tr: Tracer) -> list[tuple[str, object]]:
        outs = []
        for q in self.order:
            with tr.span(f"query.{q}"):
                df = self._run(q)
            tr.count(f"query.{q}_rows", len(df))
            outs.append((q, df))
        return outs


WORKLOADS = {w.name: w for w in (ExtractHeads, KgBuild, KgQueryMix)}
