"""Ray-Data-native knowledge-graph construction engine.

Re-expresses the capabilities of zhoujx4/NLP-Series-relation-extraction
(four relation-extraction heads over DuIE 2.0 semantics) as a streaming
Ray Data pipeline over Parquet conversation transcripts: triple extraction
-> entity linking -> canonicalization -> graph materialize, plus the
large-scale training-data operators (dedup, similarity search, text
analysis) a 100 TB corpus pipeline needs.
"""

__version__ = "0.1.0"
