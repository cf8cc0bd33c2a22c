"""Trained (non-oracle) scorers for the four heads: baseline, MPN, MHS and
biaffine, plus a batched-tensor form of the baseline.

Demonstrates the real model slot of the architecture: hashed-feature
linear-logistic scorers (a bilinear pair scorer for biaffine), trained
driver-side with seeded minibatch SGD on oracle labels from a disjoint
conversation range, then deployed as one stage shape,
:class:`TrainedExtractor` — weights broadcast once via ``ray.put`` and read
in ``__init__`` (the reference's checkpoint-load-then-eval pattern,
``run_baseline.py:214-217`` / ``predict.py:66-67``, in distributed form),
and one ``__call__`` for every head — run by one task function,
:func:`_task_extract_trained`, that builds each head's stage once per
worker process.  Scoring is vectorized numpy (gather + sum + sigmoid);
decode is each head's unchanged decoder.

Measured on the fixture corpus (train convs 50000+, eval convs 0..300):
baseline F1 ≈ 0.99 — a learned model clearing the BASELINE.md ≥0.95 gate
without torch or pretrained weights, end to end deterministic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schema import E_NUM
from .base import map_turns, worker_cached
from .baseline_head import BaselineHead
from .format_spo import format_spoes, slice_span, triples_table
from .mhs_head import (
    MhsHead,
    build_gold_typed_spoes,
    decode_pairs,
    decode_typed_spans,
)
from .mpn_head import MpnHead, build_gold_spoes, decode_po, decode_subjects

F_DIM = 1 << 16
K_FEATS = 9


def _feat_hash(s: str, salt: int) -> int:
    h = 2166136261
    for ch in s + chr(salt):
        h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return h % F_DIM


def featurize(tokens: list[str]) -> np.ndarray:
    """[L, K] hashed window features: unigrams ±3 and adjacent bigrams.

    The ±3 context is load-bearing: typed-span models must separate e.g.
    a film title in "《F》于D上映" (影视作品) from the same title in
    "凭借《F》于D获得" (作品 via 获奖-inWork) — identical at ±2."""
    L = len(tokens)
    idx = np.zeros((L, K_FEATS), dtype=np.int64)
    for i, t in enumerate(tokens):
        p1 = tokens[i - 1] if i > 0 else "^"
        p2 = tokens[i - 2] if i > 1 else "^"
        p3 = tokens[i - 3] if i > 2 else "^"
        n1 = tokens[i + 1] if i < L - 1 else "$"
        n2 = tokens[i + 2] if i < L - 2 else "$"
        n3 = tokens[i + 3] if i < L - 3 else "$"
        idx[i] = [
            _feat_hash(t, 1),
            _feat_hash(p1, 2),
            _feat_hash(n1, 3),
            _feat_hash(p1 + "|" + t, 4),
            _feat_hash(t + "|" + n1, 5),
            _feat_hash(p2, 6),
            _feat_hash(n2, 7),
            _feat_hash(p3, 8),
            _feat_hash(n3, 9),
        ]
    return idx


def train_baseline_scorer(
    train_lo: int = 50_000,
    n_train_convs: int = 1_500,
    epochs: int = 40,
    lr: float = 0.5,
    pos_weight: float = 8.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded SGD on oracle labels from convs [train_lo, train_lo+n).

    Returns ``(W [F, 112] float32, b [112] float32)``.  Deterministic.
    """
    from ..sources.transcripts import fact_for, n_turns, turn_text

    head = BaselineHead()
    xs, ys = [], []
    for i in range(train_lo, train_lo + n_train_convs):
        for j in range(n_turns(i)):
            spo = fact_for(i, j)
            gold = [spo] if spo else []
            ex = head.preprocess(turn_text(i, j))
            xs.append(featurize(ex["tokens"]))
            ys.append(head.oracle_scores(ex, gold))
    X = np.concatenate(xs)
    Y = np.concatenate(ys).astype(np.float32)

    W = np.zeros((F_DIM, 112), dtype=np.float32)
    b = np.zeros(112, dtype=np.float32)
    pos_w = np.where(np.arange(112) >= 1, pos_weight, 1.0).astype(np.float32)
    rng = np.random.RandomState(seed)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for s in range(0, len(order), 256):
            sel = order[s : s + 256]
            xb, yb = X[sel], Y[sel]
            p = 1.0 / (1.0 + np.exp(-(W[xb].sum(axis=1) + b)))
            g = (p - yb) * np.where(yb > 0, pos_w, 1.0) * (lr / len(sel))
            np.add.at(W, xb.reshape(-1), -np.repeat(g, K_FEATS, axis=0))
            b -= g.sum(axis=0)
    return W, b


def score_tokens(W: np.ndarray, b: np.ndarray, tokens: list[str]) -> np.ndarray:
    """probs [L, 112] for one example (vectorized gather+sum+sigmoid)."""
    idx = featurize(tokens)
    return 1.0 / (1.0 + np.exp(-(W[idx].sum(axis=1) + b)))


class TrainedExtractor:
    """The one trained-head stage: trained weights in, triples out.

    ``weights_ref``: ``ray.ObjectRef`` to the head's weight tuple —
    broadcast once, read in ``__init__`` (zero-copy from the local object
    store).  A subclass names its ``head`` column value (``label``) and
    its preprocessing head (``head_cls``), and scores+decodes one
    preprocessed turn in ``_spo_list``; ``__call__`` is shared.
    """

    label: str
    head_cls: type

    def __init__(self, weights_ref):
        import ray

        self.weights = ray.get(weights_ref)
        self.head = self.head_cls()

    def _spo_lists(self, exs: list[dict]) -> list[list[dict]]:
        return [self._spo_list(ex) for ex in exs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        exs = [self.head.preprocess(t) for t in batch["text"].to_pylist()]
        return triples_table(
            (cid, tix, self.label, spo)
            for cid, tix, spo_list in zip(
                batch["conv_id"].to_pylist(),
                batch["turn_idx"].to_pylist(),
                self._spo_lists(exs),
            )
            for spo in spo_list
        )


class TrainedBaselineExtractor(TrainedExtractor):
    """Trained baseline head: per-token probabilities from ``(W, b)``, then
    the baseline decode."""

    label = "baseline-trained"
    head_cls = BaselineHead

    def _spo_list(self, ex: dict) -> list[dict]:
        W, b = self.weights
        return self.head.decode(ex, score_tokens(W, b, ex["tokens"]))[1]


def _task_extract_trained(batch: pa.Table, stage_cls: type,
                          weights_ref) -> pa.Table:
    # one cache entry per head label, so alternating heads do not evict
    # each other; a new weights broadcast replaces that head's entry
    return worker_cached(
        ("trained", stage_cls.label), lambda: stage_cls(weights_ref),
        weights_ref.hex(),
    )(batch)


def _extract_trained(transcripts_ds, stage_cls: type, weights_ref,
                     batch_size: int):
    return map_turns(transcripts_ds, _task_extract_trained, batch_size,
                     kwargs={"stage_cls": stage_cls,
                             "weights_ref": weights_ref})


def extract_triples_trained(transcripts_ds, weights_ref,
                            batch_size: int = 128):
    """Trained-baseline extraction with broadcast model weights (28 MB,
    ``ray.put`` once).  Every trained head runs this way: plain task
    ``map_batches`` fused with the read, the stage built through the
    per-process :func:`~.base.worker_cached` cache (one zero-copy plasma
    read per worker per broadcast).  Task workers survive across Dataset
    executions, so a session's second trained job starts warm."""
    return _extract_trained(transcripts_ds, TrainedBaselineExtractor,
                            weights_ref, batch_size)


class BatchedTensorBaselineExtractor(TrainedBaselineExtractor):
    """The GPU-shaped slot proof: scores a WHOLE batch as one padded tensor
    op with the exact ``[B, L, 112]`` interface of the reference forward
    (``/root/reference/models/model_baseline.py:6-24`` — padded token batch
    in, per-token 112-logit sigmoid out), instead of per-example calls.

    Examples are padded to the batch max length with a reserved feature id
    pointing at an all-zero weight row (the mask analog); decode slices
    each example's true length.  Triples are bit-identical to
    :class:`TrainedBaselineExtractor` (same weights, same math, batched) —
    pinned by ``test_batched_tensor_scorer_identical``.  A real
    torch/BERT scorer drops into this same batched interface.
    """

    label = "baseline-batched"

    def __init__(self, weights_ref):
        super().__init__(weights_ref)
        W, self.b = self.weights
        # reserved pad row: id F_DIM scores zero everywhere
        self.W_pad = np.vstack([W, np.zeros((1, W.shape[1]), W.dtype)])

    def _score_batch(self, token_lists: list[list[str]]) -> np.ndarray:
        """[B, L_max, 112] probs in one vectorized gather+sum+sigmoid."""
        B = len(token_lists)
        L_max = max(len(t) for t in token_lists)
        idx = np.full((B, L_max, K_FEATS), F_DIM, dtype=np.int64)
        for i, toks in enumerate(token_lists):
            idx[i, : len(toks)] = featurize(toks)
        return 1.0 / (
            1.0 + np.exp(-(self.W_pad[idx].sum(axis=2) + self.b))
        )

    def _spo_lists(self, exs: list[dict]) -> list[list[dict]]:
        if not exs:
            # Ray Data can hand a stage a zero-row block; _score_batch's
            # max() over lengths would raise on it
            return []
        probs = self._score_batch([ex["tokens"] for ex in exs])
        return [self.head.decode(ex, p[: len(ex["tokens"])])[1]
                for ex, p in zip(exs, probs)]


def extract_triples_batched_tensor(transcripts_ds, weights_ref,
                                   batch_size: int = 64):
    """Batched-tensor extraction.  ``batch_size`` bounds the padded tensor
    (B × L_max × 112 floats)."""
    return _extract_trained(transcripts_ds, BatchedTensorBaselineExtractor,
                            weights_ref, batch_size)


# ---- trained MPN cascade -------------------------------------------------

R_SLOTS = 55


def featurize_po(tokens: list[str], subj: tuple[int, int],
                 subj_surface: str) -> np.ndarray:
    """[L, K+3] features for the subject-conditioned second stage: the base
    window features plus subject-surface hash, (token|subject) interaction,
    and the token's position relative to the subject span — the learned
    analog of the reference's ConditionalLayerNorm subject conditioning
    (models/model_mpn.py:77-100)."""
    base = featurize(tokens)
    L = len(tokens)
    extra = np.zeros((L, 3), dtype=np.int64)
    hs = _feat_hash(subj_surface, 11)
    for i, t in enumerate(tokens):
        rel = 0 if i < subj[0] else (1 if i <= subj[1] else 2)
        extra[i, 0] = hs
        extra[i, 1] = _feat_hash(t + "#" + subj_surface, 12)
        extra[i, 2] = _feat_hash(f"rel{rel}", 13)
    return np.concatenate([base, extra], axis=1)


def _sgd(X: np.ndarray, Y: np.ndarray, out_dim: int, epochs: int,
         lr: float = 0.5, pos_weight: float = 8.0, seed: int = 0):
    K = X.shape[1]
    W = np.zeros((F_DIM, out_dim), dtype=np.float32)
    b = np.zeros(out_dim, dtype=np.float32)
    rng = np.random.RandomState(seed)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for s in range(0, len(order), 256):
            sel = order[s : s + 256]
            xb, yb = X[sel], Y[sel]
            p = 1.0 / (1.0 + np.exp(-(W[xb].sum(axis=1) + b)))
            g = (p - yb) * np.where(yb > 0, pos_weight, 1.0) * (lr / len(sel))
            np.add.at(W, xb.reshape(-1), -np.repeat(g, K, axis=0))
            b -= g.sum(axis=0)
    return W, b


def train_mpn_scorer(
    train_lo: int = 50_000,
    n_train_convs: int = 1_500,
    subject_epochs: int = 40,
    po_epochs: int = 40,
    seed: int = 0,
):
    """Train the two-stage cascade: subject pointer model + subject-
    conditioned object/predicate pointer model.  Full recipe measures
    F1 ≈ 0.98 on held-out conversations (recall 1.0); reduce the budget for
    fast smoke runs.  Returns ``(W_sub, b_sub, W_po, b_po)``."""
    from ..sources.transcripts import fact_for, n_turns, turn_text

    head = MpnHead()
    xs, ys, xp, yp = [], [], [], []
    for i in range(train_lo, train_lo + n_train_convs):
        for j in range(n_turns(i)):
            spo = fact_for(i, j)
            gold = [spo] if spo else []
            ex = head.preprocess(turn_text(i, j))
            tokens = ex["tokens"]
            L = len(tokens)
            spoes, _ = build_gold_spoes(tokens, gold)
            ysub = np.zeros((L, 2), dtype=np.float32)
            for s in spoes:
                ysub[s[0], 0] = 1
                ysub[s[1], 1] = 1
            xs.append(featurize(tokens))
            ys.append(ysub)
            for s, os_ in spoes.items():
                surf = slice_span(ex["context"], ex["tok_start"],
                                  ex["tok_end"], s)
                ypo = np.zeros((L, R_SLOTS * 2), dtype=np.float32)
                for (o1, o2, p) in os_:
                    ypo[o1, p * 2] = 1
                    ypo[o2, p * 2 + 1] = 1
                xp.append(featurize_po(tokens, s, surf))
                yp.append(ypo)
    W_sub, b_sub = _sgd(np.concatenate(xs), np.concatenate(ys), 2,
                        subject_epochs, seed=seed)
    W_po, b_po = _sgd(np.concatenate(xp), np.concatenate(yp), R_SLOTS * 2,
                      po_epochs, seed=seed)
    return W_sub, b_sub, W_po, b_po


class TrainedMpnExtractor(TrainedExtractor):
    """Trained cascade: stage-1 subject decode and the data-dependent
    per-subject stage-2 expansion both run inside one call, exactly like
    the oracle path (and the reference's in-forward chunking,
    models/model_mpn.py:206-211)."""

    label = "mpn-trained"
    head_cls = MpnHead

    def _spo_list(self, ex: dict) -> list[dict]:
        W_sub, b_sub, W_po, b_po = self.weights
        tokens = ex["tokens"]
        sub_probs = 1.0 / (1.0 + np.exp(
            -(W_sub[featurize(tokens)].sum(axis=1) + b_sub)))
        subjects = decode_subjects(sub_probs, tokens)
        spoes_pred: dict = {}
        for s in subjects:
            surf = slice_span(ex["context"], ex["tok_start"], ex["tok_end"], s)
            po = 1.0 / (1.0 + np.exp(
                -(W_po[featurize_po(tokens, s, surf)].sum(axis=1) + b_po)))
            po = po.reshape(len(tokens), R_SLOTS, 2)
            spoes_pred.setdefault(s, []).extend(decode_po(po, tokens))
        return format_spoes(ex["context"], ex["tok_start"], ex["tok_end"],
                            spoes_pred)


def extract_triples_trained_mpn(transcripts_ds, weights_ref,
                                batch_size: int = 128):
    return _extract_trained(transcripts_ds, TrainedMpnExtractor, weights_ref,
                            batch_size)


# ---- trained MHS (typed spans + pair selection) --------------------------

_E1 = E_NUM + 1


def featurize_typed(tokens: list[str]) -> np.ndarray:
    """[L, K+1] features for typed-span models: the window features plus a
    sentence-prefix feature (first real token).  Load-bearing: a film-title
    end in "《F》于D…上映" (type 影视作品) vs "某人凭借《F》于D获得…"
    (type 作品) is identical at any local window — only the sentence
    opening separates the two typings."""
    base = featurize(tokens)
    first = tokens[1] if len(tokens) > 1 else "^"
    col = np.full((len(tokens), 1), _feat_hash("sent0|" + first, 10),
                  dtype=np.int64)
    return np.concatenate([base, col], axis=1)


def featurize_pair(tokens: list[str], i: int, j: int) -> np.ndarray:
    """Pair features for (subject_end, object_end) relation scoring."""
    L = len(tokens)

    def tk(x: int) -> str:
        return tokens[x] if 0 <= x < L else "#"

    d = min(abs(j - i), 12)
    return np.array(
        [
            _feat_hash(tk(i), 21),
            _feat_hash(tk(j), 22),
            _feat_hash(tk(i) + "&" + tk(j), 23),
            _feat_hash(tk(i - 1) + ">" + tk(j - 1), 24),
            _feat_hash(tk(i + 1) + "<" + tk(j + 1), 25),
            _feat_hash(f"d{d}_{i < j}", 26),
        ],
        dtype=np.int64,
    )


def _typed_span_labels(tokens: list[str], gold: list[dict]):
    """Typed-span training targets of one turn, shared by MHS and biaffine:
    ``(ysp [L, 2*(E+1)] start/end type labels, gold span ends,
    {(subject_end, object_end): predicate_id})``."""
    spoes, _ = build_gold_typed_spoes(tokens, gold)
    ysp = np.zeros((len(tokens), 2 * _E1), dtype=np.float32)
    ends: set[int] = set()
    pair_pos: dict[tuple[int, int], int] = {}
    for s, os_ in spoes.items():
        ysp[s[0], s[2]] = 1
        ysp[s[1], _E1 + s[2]] = 1
        ends.add(s[1])
        for o in os_:
            ysp[o[0], o[2]] = 1
            ysp[o[1], _E1 + o[2]] = 1
            ends.add(o[1])
            pair_pos[(s[1], o[1])] = o[3]
    return ysp, ends, pair_pos


def train_mhs_scorer(
    train_lo: int = 50_000,
    n_train_convs: int = 1_500,
    span_epochs: int = 40,
    pair_epochs: int = 40,
    seed: int = 1,
):
    """Train the typed-span model (2*(E+1) outputs) and the end-pair
    relation model (R outputs; trained on gold-end pairs plus sampled
    negatives).  Full recipe measures F1 = 1.0 on held-out conversations.
    Returns ``(W_span, b_span, W_pair, b_pair)``."""
    from ..sources.transcripts import fact_for, n_turns, turn_text

    head = MhsHead()
    xs, ys, xp, yp = [], [], [], []
    rng = np.random.RandomState(seed)
    for i in range(train_lo, train_lo + n_train_convs):
        for j in range(n_turns(i)):
            spo = fact_for(i, j)
            gold = [spo] if spo else []
            ex = head.preprocess(turn_text(i, j))
            tokens = ex["tokens"]
            L = len(tokens)
            ysp, ends, pair_pos = _typed_span_labels(tokens, gold)
            xs.append(featurize_typed(tokens))
            ys.append(ysp)
            cand = sorted(ends) + list(rng.randint(1, max(2, L - 1), size=2))
            for a in cand:
                for b in cand:
                    y = np.zeros(R_SLOTS, dtype=np.float32)
                    p = pair_pos.get((a, b))
                    if p is not None:
                        y[p] = 1
                    xp.append(featurize_pair(tokens, int(a), int(b)))
                    yp.append(y)
    W_span, b_span = _sgd(np.concatenate(xs), np.concatenate(ys), 2 * _E1,
                          span_epochs, seed=seed)
    W_pair, b_pair = _sgd(np.stack(xp), np.stack(yp), R_SLOTS,
                          pair_epochs, seed=seed)
    return W_span, b_span, W_pair, b_pair


class TrainedMhsExtractor(TrainedExtractor):
    """Trained MHS head: typed spans decode first, then the pair model
    scores ONLY pairs among decoded span ends (the dense [L,L,R] tensor the
    parity decoder consumes is synthesized sparse — never the full
    cartesian scoring)."""

    label = "mhs-trained"
    head_cls = MhsHead

    def _spo_list(self, ex: dict) -> list[dict]:
        W_span, b_span, W_pair, b_pair = self.weights
        tokens = ex["tokens"]
        L = len(tokens)
        sp = 1.0 / (1.0 + np.exp(
            -(W_span[featurize_typed(tokens)].sum(axis=1) + b_span)))
        subjects, end_list = decode_typed_spans(sp[:, :_E1], sp[:, _E1:])
        pair = np.zeros((L, L, R_SLOTS), dtype=np.float32)
        for a in end_list:
            for b in end_list:
                pair[a, b] = 1.0 / (1.0 + np.exp(
                    -(W_pair[featurize_pair(tokens, a, b)].sum(axis=0)
                      + b_pair)))
        spoes_pred = decode_pairs(pair, subjects, end_list)
        return format_spoes(ex["context"], ex["tok_start"], ex["tok_end"],
                            spoes_pred)


def extract_triples_trained_mhs(transcripts_ds, weights_ref,
                                batch_size: int = 128):
    return _extract_trained(transcripts_ds, TrainedMhsExtractor, weights_ref,
                            batch_size)


# ---- trained biaffine (bilinear end-pair attention) ----------------------

BIAFFINE_D = 16


def _embed_table(seed: int = 101) -> np.ndarray:
    """Fixed seeded random-projection token embedding [F_DIM, D]: the
    frozen-encoder analog (the reference's BERT encoder feeds the biaffine
    layer; here hashed window features project into D dims and only the
    bilinear scorer is learned)."""
    rng = np.random.RandomState(seed)
    return (
        rng.randn(F_DIM, BIAFFINE_D).astype(np.float32)
        / np.sqrt(K_FEATS + 1)
    )


def _embed_tokens(E: np.ndarray, tokens: list[str]) -> np.ndarray:
    """[L, D] token representations: sum of feature embeddings."""
    return E[featurize_typed(tokens)].sum(axis=1)


def _biaffine_scores(
    U: np.ndarray, V: np.ndarray, c: np.ndarray,
    e1: np.ndarray, e2: np.ndarray,
) -> np.ndarray:
    """[B, R] logits: e1ᵀ U_r e2 + [e1;e2]·V_r + c_r — the exact pair form
    of /root/reference/models/model_mhs_biaffine.py:10-28 (einsum
    'bxi,oij,byj->boxy' + concat·w2), restricted to candidate end pairs."""
    bil = np.einsum("bd,rde,be->br", e1, U, e2, optimize=True)
    cat = np.concatenate([e1, e2], axis=1)
    return bil + cat @ V.T + c


def train_biaffine_scorer(
    train_lo: int = 50_000,
    n_train_convs: int = 1_500,
    span_epochs: int = 40,
    pair_epochs: int = 40,
    lr: float = 0.2,
    pos_weight: float = 8.0,
    seed: int = 2,
):
    """Train the typed-span pointer model (shared decode with MHS, as in the
    reference where run_mhs_biaffine.py differs from run_mhs.py only by the
    pair scorer) plus a **bilinear** end-pair relation model
    ``e1ᵀ U_r e2 + [e1;e2]·V_r + c_r`` over frozen random-projection token
    embeddings.  Returns ``(W_span, b_span, E, U, V, c)``.  Deterministic.
    """
    from ..sources.transcripts import fact_for, n_turns, turn_text

    head = MhsHead()
    E = _embed_table()
    xs, ys = [], []
    p1, p2, py = [], [], []
    rng = np.random.RandomState(seed)
    for i in range(train_lo, train_lo + n_train_convs):
        for j in range(n_turns(i)):
            spo = fact_for(i, j)
            gold = [spo] if spo else []
            ex = head.preprocess(turn_text(i, j))
            tokens = ex["tokens"]
            L = len(tokens)
            ysp, ends, pair_pos = _typed_span_labels(tokens, gold)
            xs.append(featurize_typed(tokens))
            ys.append(ysp)
            emb = _embed_tokens(E, tokens)
            cand = sorted(ends) + list(rng.randint(1, max(2, L - 1), size=2))
            for a in cand:
                for b in cand:
                    y = np.zeros(R_SLOTS, dtype=np.float32)
                    p = pair_pos.get((int(a), int(b)))
                    if p is not None:
                        y[p] = 1
                    p1.append(emb[int(a)])
                    p2.append(emb[int(b)])
                    py.append(y)
    W_span, b_span = _sgd(np.concatenate(xs), np.concatenate(ys), 2 * _E1,
                          span_epochs, seed=seed)

    E1v = np.stack(p1)
    E2v = np.stack(p2)
    Y = np.stack(py)
    U = np.zeros((R_SLOTS, BIAFFINE_D, BIAFFINE_D), dtype=np.float32)
    V = np.zeros((R_SLOTS, 2 * BIAFFINE_D), dtype=np.float32)
    c = np.zeros(R_SLOTS, dtype=np.float32)
    for _ in range(pair_epochs):
        order = rng.permutation(len(Y))
        for s in range(0, len(order), 256):
            sel = order[s : s + 256]
            e1, e2, yb = E1v[sel], E2v[sel], Y[sel]
            p = 1.0 / (1.0 + np.exp(-_biaffine_scores(U, V, c, e1, e2)))
            g = (p - yb) * np.where(yb > 0, pos_weight, 1.0) * (lr / len(sel))
            U -= np.einsum("br,bd,be->rde", g, e1, e2, optimize=True)
            V -= g.T @ np.concatenate([e1, e2], axis=1)
            c -= g.sum(axis=0)
    return W_span, b_span, E, U, V, c


class TrainedBiaffineExtractor(TrainedExtractor):
    """Trained biaffine head: typed spans decode first, then the bilinear
    pair model scores only decoded end pairs (vectorized over the end×end
    candidate grid — never the dense L×L cartesian the reference
    materializes on GPU)."""

    label = "biaffine-trained"
    head_cls = MhsHead

    def _spo_list(self, ex: dict) -> list[dict]:
        W_span, b_span, E, U, V, c = self.weights
        tokens = ex["tokens"]
        L = len(tokens)
        sp = 1.0 / (1.0 + np.exp(
            -(W_span[featurize_typed(tokens)].sum(axis=1) + b_span)))
        subjects, end_list = decode_typed_spans(sp[:, :_E1], sp[:, _E1:])
        pair = np.zeros((L, L, R_SLOTS), dtype=np.float32)
        if end_list:
            emb = _embed_tokens(E, tokens)
            ends = np.asarray(end_list, dtype=np.int64)
            a_idx = np.repeat(ends, len(ends))
            b_idx = np.tile(ends, len(ends))
            probs = 1.0 / (1.0 + np.exp(-_biaffine_scores(
                U, V, c, emb[a_idx], emb[b_idx])))
            pair[a_idx, b_idx] = probs
        spoes_pred = decode_pairs(pair, subjects, end_list)
        return format_spoes(ex["context"], ex["tok_start"], ex["tok_end"],
                            spoes_pred)


def extract_triples_trained_biaffine(transcripts_ds, weights_ref,
                                     batch_size: int = 128):
    return _extract_trained(transcripts_ds, TrainedBiaffineExtractor,
                            weights_ref, batch_size)
