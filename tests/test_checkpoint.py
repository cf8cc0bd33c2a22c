"""Resumable per-partition checkpointing: kill/rerun yields identical output
and skips completed partitions (north_rule resumability).

Every build runs ``build_kg_resumable`` over a fixed transcript Parquet
fixture: 48 conversations written as 8 files of 6, one ``pq.write_table``
per file, so the shard layout never depends on Ray's writer."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from nlp_series_relation_extraction_ray.pipelines.extract import (
    extract_triples,
)
from nlp_series_relation_extraction_ray.pipelines.kg import (
    build_kg,
    build_kg_resumable,
)
from nlp_series_relation_extraction_ray.sources.readers import (
    read_parquet_clean,
)
from nlp_series_relation_extraction_ray.sources.transcripts import (
    transcripts_block,
)
from nlp_series_relation_extraction_ray.state.checkpoint import (
    manifest_path,
    partition_ranges,
    read_all_partitions,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB_TIMEOUT_S = 300


def _write_shard(src, k: int, convs) -> None:
    pq.write_table(transcripts_block(convs),
                   os.path.join(src, f"shard-{k}.parquet"))


@pytest.fixture
def shards(tmp_path) -> str:
    src = str(tmp_path / "transcripts")
    os.makedirs(src)
    for k in range(8):
        _write_shard(src, k, range(6 * k, 6 * k + 6))
    return src


def test_partition_ranges():
    assert partition_ranges(10, 3) == [(0, 4), (4, 8), (8, 10)]
    assert partition_ranges(2, 8) == [(0, 1), (1, 2)]
    assert partition_ranges(0, 4) == [(0, 0)]


def _sorted(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _triples_sorted(out_dir):
    return _sorted(read_all_partitions(f"{out_dir}/triples"))


def test_run_skip_resume(ray_session, tmp_path, shards):
    out = str(tmp_path / "ckpt")
    s1 = build_kg_resumable(shards, out, n_partitions=4)["summary"]["extract"]
    assert s1["ran"] == 4 and s1["skipped"] == 0
    ref = _triples_sorted(out)
    assert len(ref) > 0

    # manifests carry lineage (the partition's files and their sizes) +
    # metrics
    with open(manifest_path(f"{out}/triples", 0)) as f:
        m = json.load(f)
    assert m["status"] == "complete"
    first = [os.path.join(shards, f"shard-{k}.parquet") for k in (0, 1)]
    assert m["lineage"]["files"] == first
    assert m["lineage"]["bytes"] == [os.path.getsize(p) for p in first]
    assert m["metrics"]["rows_out"] > 0

    # full rerun: everything skipped, output unchanged
    s2 = build_kg_resumable(shards, out, n_partitions=4)["summary"]["extract"]
    assert s2["ran"] == 0 and s2["skipped"] == 4
    assert _triples_sorted(out).equals(ref)

    # simulate a kill: destroy one completed partition mid-corpus
    shutil.rmtree(os.path.join(out, "triples", "part-0002"))
    s3 = build_kg_resumable(shards, out, n_partitions=4)["summary"]["extract"]
    assert s3["ran"] == 1 and s3["skipped"] == 3
    assert _triples_sorted(out).equals(ref)

    # changed lineage (different head) invalidates fingerprints -> recompute
    s4 = build_kg_resumable(shards, out, head="mpn",
                            n_partitions=4)["summary"]["extract"]
    assert s4["ran"] == 4


def test_repartition_rerun_removes_stale_parts(ray_session, tmp_path, shards):
    """Rerunning with fewer partitions must not leave stale overlapping
    partition dirs that would duplicate data on read."""
    out = str(tmp_path / "ck2")
    build_kg_resumable(shards, out, n_partitions=8)
    ref = _triples_sorted(out)
    s = build_kg_resumable(shards, out, n_partitions=4)["summary"]["extract"]
    assert s["ran"] == 4
    after = _triples_sorted(out)
    assert after.equals(ref)  # same data, no duplicates


def test_kg_job_entrypoint(ray_session, tmp_path, shards):
    """The ray-job-submit entrypoint builds the whole KG resumably over
    Parquet shards, with ``--partitions`` as an upper bound."""
    from jobs.kg_job import main

    out = str(tmp_path / "job_out")
    s1 = main(["--input", shards, "--output", out, "--partitions", "3"])
    assert s1["extract"]["ran"] == 3 and s1["extract"]["skipped"] == 0
    assert s1["nodes"]["ran"] == 1 and s1["edges"]["ran"] == 1
    for stage in ("triples", "nodes", "edges"):
        assert os.path.exists(manifest_path(f"{out}/{stage}", 0))
    rows1 = read_all_partitions(f"{out}/triples").count()
    assert rows1 > 0
    # resubmit: every stage skipped
    s2 = main(["--input", shards, "--output", out, "--partitions", "3"])
    assert s2["extract"]["ran"] == 0
    assert s2["extract"]["skipped"] == s1["extract"]["ran"]
    for stage in ("nodes", "edges"):
        assert (s2[stage]["ran"], s2[stage]["skipped"]) == (0, 1)
    assert read_all_partitions(f"{out}/triples").count() == rows1


def _session_alive(sid: int) -> list[int]:
    """Live processes of session ``sid`` (an unreaped zombie has exited)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] not in ("Z", "X"):
            pids.append(int(entry))
    return pids


def test_kg_job_runs_outside_repo_root(no_ray_session, tmp_path, shards):
    """``python <repo>/jobs/kg_job.py`` run from another directory, with no
    cluster to attach to and no ``PYTHONPATH``, starts a local session
    whose workers import the package from the checkout.  The job runs in a
    child process with its own session under a hard timeout, and none of
    its Ray processes outlives it."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("RAY_ADDRESS", "PYTHONPATH")}
    out = tmp_path / "job_out"
    proc = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "jobs", "kg_job.py"),
         "--input", shards, "--output", str(out), "--partitions", "2"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"the job did not finish in {JOB_TIMEOUT_S} s")
    assert proc.returncode == 0, stderr[-3000:]
    summary = json.loads(
        next(ln for ln in stdout.splitlines() if ln.startswith("{")))
    assert summary["extract"]["ran"] == 2
    assert sum(p["rows_out"] for p in summary["extract"]["partitions"]) > 0
    assert summary["nodes"]["ran"] == summary["edges"]["ran"] == 1

    # the job's raylet, GCS and workers exit with it
    deadline = time.time() + 30
    while _session_alive(proc.pid) and time.time() < deadline:
        time.sleep(0.5)
    assert not _session_alive(proc.pid)


def test_kg_job_ignores_a_running_session(ray_session, tmp_path, shards):
    """Without ``RAY_ADDRESS`` the job starts its own local session even
    while another Ray session (this test's) runs on the machine: it never
    attaches to it, so its workers import the package from the checkout."""
    import ray

    assert ray.is_initialized()
    env = {k: v for k, v in os.environ.items()
           if k not in ("RAY_ADDRESS", "PYTHONPATH")}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "jobs", "kg_job.py"),
         "--input", shards, "--output", str(tmp_path / "job_out"),
         "--partitions", "2"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"the job did not finish in {JOB_TIMEOUT_S} s")
    assert proc.returncode == 0, stderr[-3000:]
    assert "Connecting to existing Ray cluster" not in stdout + stderr
    summary = json.loads(
        next(ln for ln in stdout.splitlines() if ln.startswith("{")))
    assert summary["extract"]["ran"] == 2
    assert summary["nodes"]["ran"] == summary["edges"]["ran"] == 1

    deadline = time.time() + 30
    while _session_alive(proc.pid) and time.time() < deadline:
        time.sleep(0.5)
    assert not _session_alive(proc.pid)


def test_empty_input_keeps_prior_output(ray_session, tmp_path, shards):
    """An input without Parquet files is an error raised before the output
    directory is touched: earlier checkpoints survive."""
    from jobs.kg_job import main

    out = str(tmp_path / "job_out")
    main(["--input", shards, "--output", out, "--partitions", "2"])
    before = {s: _sorted(read_all_partitions(f"{out}/{s}"))
              for s in ("triples", "nodes", "edges")}
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no Parquet files"):
        main(["--input", str(empty), "--output", out, "--partitions", "2"])
    for stage, df in before.items():
        assert _sorted(read_all_partitions(f"{out}/{stage}")).equals(df)


def test_read_all_partitions_skips_incomplete(ray_session, tmp_path, shards):
    """A partition with parquet but no (or a partial) manifest — a run
    killed mid write_parquet — must NOT leak into downstream reads."""
    import pandas as pd

    out = str(tmp_path / "ck3")
    build_kg_resumable(shards, out, n_partitions=2)
    triples_dir = f"{out}/triples"
    complete_rows = read_all_partitions(triples_dir).count()
    assert complete_rows > 0

    # simulate a killed run: data written, manifest missing
    orphan = os.path.join(triples_dir, "part-0099", "data")
    os.makedirs(orphan)
    pd.DataFrame({"conv_id": ["x"], "turn_idx": [0]}).to_parquet(
        os.path.join(orphan, "leak.parquet")
    )
    assert read_all_partitions(triples_dir).count() == complete_rows

    # and with a corrupt manifest
    with open(os.path.join(triples_dir, "part-0099", "MANIFEST.json"),
              "w") as f:
        f.write("{not json")
    assert read_all_partitions(triples_dir).count() == complete_rows


def test_resumable_matches_build_kg(ray_session, tmp_path, shards):
    """The resumable build over the shards gives the in-session build's
    nodes and edges over the same files."""
    res = build_kg_resumable(shards, str(tmp_path / "resumable"),
                             n_partitions=4)
    want = build_kg(read_parquet_clean(shards),
                    out_dir=str(tmp_path / "session"))
    for key in ("nodes", "edges"):
        got = _sorted(res[key])
        assert len(got) > 0
        assert got.equals(_sorted(want[key])), key


def test_rewritten_shard_reruns_its_partition(ray_session, tmp_path, shards):
    """A shard rewritten with a different size reruns its extraction
    partition, then nodes and edges; the other partitions are skipped."""
    out = str(tmp_path / "kg")
    build_kg_resumable(shards, out, n_partitions=4)
    path = os.path.join(shards, "shard-5.parquet")
    size = os.path.getsize(path)
    _write_shard(shards, 5, range(30, 33))
    assert os.path.getsize(path) != size

    s = build_kg_resumable(shards, out, n_partitions=4)["summary"]
    assert s["extract"]["ran"] == 1 and s["extract"]["skipped"] == 3
    assert [p["status"] for p in s["extract"]["partitions"]] == [
        "skipped", "skipped", "ran", "skipped"]
    assert s["nodes"]["ran"] == 1 and s["edges"]["ran"] == 1
    assert _triples_sorted(out).equals(
        _sorted(extract_triples(read_parquet_clean(shards))))


def test_same_size_rewrite_reruns_its_partition(ray_session, tmp_path,
                                                shards):
    """A shard rewritten with different text of the same byte size, and a
    newer mtime, reruns exactly its extraction partition: the partition
    spec holds each file's ``st_mtime_ns`` next to its size."""
    import pyarrow.compute as pc

    path = os.path.join(shards, "shard-5.parquet")
    table = transcripts_block(range(30, 36))
    # uncompressed, plain-encoded, no statistics: the file size depends on
    # the value lengths only, so a same-length text swap keeps it
    plain = {"compression": "NONE", "use_dictionary": False,
             "write_statistics": False}
    pq.write_table(table, path, **plain)
    out = str(tmp_path / "kg")
    build_kg_resumable(shards, out, n_partitions=4)
    before = _triples_sorted(out)

    # 集 -> 团: one 3-byte character for another, so names stop matching
    text = table.schema.get_field_index("text")
    changed = table.set_column(
        text, "text", pc.replace_substring(table["text"], "集", "团"))
    assert changed["text"] != table["text"]
    size, mtime = os.path.getsize(path), os.stat(path).st_mtime_ns
    pq.write_table(changed, path, **plain)
    os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
    assert os.path.getsize(path) == size

    s = build_kg_resumable(shards, out, n_partitions=4)["summary"]
    assert [p["status"] for p in s["extract"]["partitions"]] == [
        "skipped", "skipped", "ran", "skipped"]
    assert s["nodes"]["ran"] == 1 and s["edges"]["ran"] == 1
    after = _triples_sorted(out)
    assert not after.equals(before)
    assert after.equals(_sorted(extract_triples(read_parquet_clean(shards))))


def test_flagship_kg_kill_rerun_skips_and_identical(ray_session, tmp_path,
                                                    shards, monkeypatch):
    """Kill the flagship resumable KG job mid-extraction, rerun, and check
    (a) completed partitions are skipped, (b) nodes/edges are
    content-identical to an uninterrupted run."""
    import pandas as pd

    from nlp_series_relation_extraction_ray.pipelines import kg

    # uninterrupted reference run
    ref = build_kg_resumable(shards, str(tmp_path / "kg_ref"), n_partitions=4)
    ref_nodes, ref_edges = _sorted(ref["nodes"]), _sorted(ref["edges"])
    assert len(ref_nodes) > 0 and len(ref_edges) > 0

    # killed run: the 3rd extraction partition dies mid-flight
    out = str(tmp_path / "kg_resume")
    real_extract = kg.extract_triples
    calls = {"n": 0}

    def dying_extract(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("simulated mid-run kill")
        return real_extract(*a, **kw)

    monkeypatch.setattr(kg, "extract_triples", dying_extract)
    with pytest.raises(RuntimeError, match="simulated mid-run kill"):
        build_kg_resumable(shards, out, n_partitions=4)
    monkeypatch.setattr(kg, "extract_triples", real_extract)

    # rerun: the 2 completed partitions are skipped, the rest run, and the
    # final graph matches the uninterrupted reference exactly
    res = build_kg_resumable(shards, out, n_partitions=4)
    s = res["summary"]["extract"]
    assert s["skipped"] == 2 and s["ran"] == 2
    assert s["skipped"] >= 1  # the north-rule resumability claim
    pd.testing.assert_frame_equal(_sorted(res["nodes"]), ref_nodes)
    pd.testing.assert_frame_equal(_sorted(res["edges"]), ref_edges)

    # a second rerun skips EVERY stage (extract + nodes + edges)
    res2 = build_kg_resumable(shards, out, n_partitions=4)
    assert res2["summary"]["extract"]["ran"] == 0
    assert res2["summary"]["nodes"]["ran"] == 0
    assert res2["summary"]["edges"]["ran"] == 0

    # changed upstream lineage (different head) invalidates the chained
    # nodes/edges fingerprints -> downstream recomputes
    res3 = build_kg_resumable(shards, out, head="mpn", n_partitions=4)
    assert res3["summary"]["extract"]["ran"] == 4
    assert res3["summary"]["nodes"]["ran"] == 1
    assert res3["summary"]["edges"]["ran"] == 1
