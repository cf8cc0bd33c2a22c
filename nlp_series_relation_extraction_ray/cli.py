"""Command-line entry points (the reference's ``run_*.py`` surface).

Where the reference wires four near-identical run scripts
(``run_baseline.py``, ``run_mpn.py``, ``run_mhs.py``,
``run_mhs_biaffine.py``), one CLI selects the head by name:

    python -m nlp_series_relation_extraction_ray.cli extract \
        --head mpn --input synthetic:2000 --output /tmp/triples
    python -m nlp_series_relation_extraction_ray.cli kg \
        --input synthetic:2000 --output /tmp/kg
    python -m nlp_series_relation_extraction_ray.cli eval --head baseline \
        --input synthetic:500

``--input`` is either ``synthetic:N`` (the deterministic fixture corpus) or
a path to transcript Parquet with the input_hint schema.  Owns its Ray
session (guarded init — safe under an externally initialised driver too).
``extract`` and ``kg`` replace what ``--output`` held; the KG build that
resumes after a kill is ``jobs/kg_job.py`` (``build_kg_resumable``).
"""

from __future__ import annotations

import argparse
import json


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    return ray


def _load_input(spec: str):
    ray = _ensure_ray()
    if spec.startswith("synthetic:"):
        from .sources.transcripts import transcripts_dataset

        return transcripts_dataset(int(spec.split(":", 1)[1]))
    from .sources.readers import read_parquet_clean

    return read_parquet_clean(spec)


def cmd_extract(args) -> None:
    from .pipelines.extract import extract_triples

    ds = extract_triples(_load_input(args.input), head=args.head)
    ds.write_parquet(args.output, mode="overwrite")
    print(json.dumps({"head": args.head, "output": args.output}))


def cmd_kg(args) -> None:
    from .pipelines.kg import build_kg

    res = build_kg(_load_input(args.input), head=args.head,
                   out_dir=args.output)
    print(
        json.dumps(
            {
                "triples": res["triples"].count(),
                "nodes": res["nodes"].count(),
                "edges": res["edges"].count(),
                "output": args.output,
            }
        )
    )


def cmd_eval(args) -> None:
    from .functions.evaluation import evaluate_triples
    from .pipelines.extract import _synthetic_gold, extract_triples
    from .sources.transcripts import fact_for, n_turns

    if not args.input.startswith("synthetic:"):
        raise SystemExit("eval requires --input synthetic:N (gold needed)")
    n = int(args.input.split(":", 1)[1])
    total_gold = sum(
        1 for i in range(n) for j in range(n_turns(i)) if fact_for(i, j)
    )
    triples = extract_triples(_load_input(args.input), head=args.head)
    print(json.dumps(evaluate_triples(triples, _synthetic_gold, total_gold)))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(prog="nlp_series_relation_extraction_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--head", default="baseline",
                        choices=["baseline", "mpn", "mhs", "biaffine"])
    common.add_argument("--input", default="synthetic:1000")

    p = sub.add_parser("extract", parents=[common])
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("kg", parents=[common])
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_kg)

    p = sub.add_parser("eval", parents=[common])
    p.set_defaults(fn=cmd_eval)

    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
