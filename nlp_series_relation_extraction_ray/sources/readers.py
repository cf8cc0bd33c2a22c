"""Central parquet reader: ``ray.data.read_parquet`` with hashable schemas.

Parquet written by pandas/duckdb carries a ``b'pandas'`` schema-metadata
entry; ``pyarrow.Schema`` objects with metadata are unhashable (the metadata
is a dict), so every schema unify — inside the read task itself when it
splits blocks, and in every shuffle/repartition reduce downstream — logs
``Failed to hash the schemas (for deduplication)`` and falls off Ray's
schema-dedup fast path.  Passing an explicit metadata-free schema to the
read fixes it at the source: the read tasks emit metadata-free blocks, so
nothing downstream ever sees an unhashable schema.
"""

from __future__ import annotations


def parquet_files(paths) -> list[str]:
    """Sorted Parquet files of ``paths``: a file, a directory (searched
    recursively) or a list of either."""
    import glob
    import os

    files: list[str] = []
    for p in paths if isinstance(paths, (list, tuple)) else [paths]:
        p = os.fspath(p)
        files += (glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True)
                  if os.path.isdir(p) else [p])
    return sorted(files)


def read_parquet_clean(paths, *, columns=None, **kwargs):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    if "schema" not in kwargs:
        files = parquet_files(paths)
        if files:
            try:
                sch = pq.read_schema(files[0]).remove_metadata()
                if columns is not None:
                    # the read projects to `columns`; the explicit schema
                    # must describe the projected table, not the file
                    sch = pa.schema([sch.field(c) for c in columns])
                kwargs["schema"] = sch
            except Exception:
                pass  # unreadable footer: fall back to inference
    return ray.data.read_parquet(paths, columns=columns, **kwargs)


def table_from_pandas(df, **kwargs):
    """``pa.Table.from_pandas`` minus the pandas schema metadata.

    ``from_pandas`` attaches a ``b'pandas'`` metadata dict to the schema,
    which makes it unhashable — every downstream shuffle reduce then logs
    ``Failed to hash the schemas`` and loses Ray's schema-dedup fast path.
    """
    import pyarrow as pa

    kwargs.setdefault("preserve_index", False)
    return pa.Table.from_pandas(df, **kwargs).replace_schema_metadata(None)
