"""Deterministic tokenizer with char-offset alignment.

Replicates the reference's tokenization *semantics* without a pretrained
WordPiece vocab (none is shippable here):

- the char-class pre-split — each CJK char / CN-EN punctuation char becomes its
  own sub-text; latin runs and digit runs are buffered into whole sub-texts
  (parity: ``/root/reference/utils/extract_chinese_and_punct.py:22-116`` +
  the splitter loop in ``/root/reference/dataset/data_utils.py:67-97``);
  here it is one compiled ``findall`` whose three branches partition every
  character: one CJK/punct char, a run of digits that are not CJK/punct, a
  run of everything else.  This is exact: the reference loop flushes its
  buffer exactly when the character class changes and emits every CJK/punct
  char alone, so its sub-texts are the maximal runs of each class — which
  is what a leftmost, greedy ``findall`` over those disjoint classes yields;
- token→original-char alignment ``tok_to_orig_start_index`` /
  ``tok_to_orig_end_index`` where space sub-texts emit no token (parity:
  ``data_utils.py:98-112``);
- the gold-span search used by label builders, longest-entity-first with a
  forbidden-overlap window and a linear fallback (parity:
  ``data_utils.py:114-171``).

Divergence from the reference (documented, deterministic): the DEFAULT
tokenizer replaces WordPiece subword splitting of latin/digit runs with "one
token per run, lowercased".  :class:`WordPieceTokenizer` (greedy
longest-match over a corpus-built vocab, :func:`build_wordpiece_vocab`)
closes that divergence as an opt-in — multi-subtoken pieces get the whole
piece's char span, exactly like the reference alignment loop.  Both the
label builders and the decoders here use the *same* tokenizer, exactly as
the reference pairs its label builders with the same BERT tokenizer, so the
decode round-trip semantics are preserved either way.
"""

from __future__ import annotations

import functools
import re

# Unicode ranges: CJK Han blocks + CN punctuation + EN punctuation, identical
# coverage to extract_chinese_and_punct.py:22-68 (public Unicode block data).
_HAN_RANGES = [
    (0x2E80, 0x2E99),
    (0x2E9B, 0x2EF3),
    (0x2F00, 0x2FD5),
    (0x3005, 0x3005),
    (0x3007, 0x3007),
    (0x3021, 0x3029),
    (0x3038, 0x303A),
    (0x303B, 0x303B),
    (0x3400, 0x4DB5),
    (0x4E00, 0x9FC3),
    (0xF900, 0xFA2D),
    (0xFA30, 0xFA6A),
    (0xFA70, 0xFAD9),
    (0x20000, 0x2A6D6),
    (0x2F800, 0x2FA1D),
]
_CN_PUNCT_CODEPOINTS = [
    0x3002, 0xFF1F, 0xFF01, 0xFF0C, 0x3001, 0xFF1B, 0xFF1A, 0x300C, 0x300D,
    0x300E, 0x300F, 0x2018, 0x2019, 0x201C, 0x201D, 0xFF08, 0xFF09, 0x3014,
    0x3015, 0x3010, 0x3011, 0x2014, 0x2026, 0x2013, 0xFF0E, 0x300A, 0x300B,
    0x3008, 0x2460, 0x2461, 0x2462, 0x2463, 0x2464, 0x2465, 0x2466, 0x2467,
    0x2468, 0x2469, 0x3009, 0x2015, 0xFF0D, 0x0020, 0xFF5E,
]
_EN_PUNCT_RANGES = [(0x21, 0x2F), (0x3A, 0x40), (0x5B, 0x60), (0x7B, 0x7E)]


def _chinese_or_punct_class() -> str:
    """Body of the CJK/punct character class (without the brackets)."""
    parts = []
    for lo, hi in _HAN_RANGES + _EN_PUNCT_RANGES:
        parts.append(f"{chr(lo)}-{chr(hi)}" if lo != hi else chr(lo))
    parts.extend(chr(c) for c in _CN_PUNCT_CODEPOINTS)
    return "".join(parts)


_CP = _chinese_or_punct_class()
CHINESE_OR_PUNCT_RE = re.compile(f"[{_CP}]")
# one CJK/punct char | a run of non-CJK/punct digits | a run of the rest
_PIECE_RE = re.compile(rf"[{_CP}]|[^\D{_CP}]+|[^\d{_CP}]+")

CLS, SEP = "[CLS]", "[SEP]"


def is_chinese_or_punct(ch: str) -> bool:
    return CHINESE_OR_PUNCT_RE.match(ch) is not None


def split_char_classes(text: str) -> list[str]:
    """Pre-split into CJK/punct single chars + latin runs + digit runs.

    Parity: the buffered splitter loop in data_utils.py:68-96 — a digit run
    flushes a latin buffer and vice versa; CJK/punct flushes both.  That loop
    emits exactly the maximal runs of each class, which is what one
    ``findall`` of :data:`_PIECE_RE` returns.
    """
    return _PIECE_RE.findall(text)


class DeterministicTokenizer:
    """Vocab-free stand-in for the reference's BERT tokenizer.

    ``tokenize(piece)`` lowercases and emits the piece unchanged (CJK pieces
    are single chars already; latin/digit runs stay whole). ``do_lower_case``
    matches the reference tokenizer config (run_mhs.py:137).
    """

    def tokenize(self, piece: str) -> list[str]:
        if piece == " ":
            return []
        return [piece.lower()]


class WordPieceTokenizer(DeterministicTokenizer):
    """Greedy longest-match-first WordPiece over latin/digit runs — the
    subword option closing the documented divergence above.

    Semantics parity with the reference's BERT WordPiece usage
    (``/root/reference/dataset/data_utils.py:98-112``): ``tokenize`` may
    return several sub-tokens per piece; ``convert_to_tokens`` assigns each
    sub-token the WHOLE piece's char span, exactly like the reference loop.
    Continuations carry the ``##`` prefix.  Divergences (documented):
    the vocab is frequency-built from the corpus
    (:func:`build_wordpiece_vocab`) instead of pretrained, and an
    out-of-vocab character falls back to a single-char token rather than
    ``[UNK]`` — lossless, so label-builder and decoder stay aligned.
    """

    def __init__(self, vocab):
        self.vocab = set(vocab)

    def tokenize(self, piece: str) -> list[str]:
        if piece == " ":
            return []
        piece = piece.lower()
        if len(piece) == 1 or is_chinese_or_punct(piece[0]):
            return [piece]
        out: list[str] = []
        start = 0
        while start < len(piece):
            end = len(piece)
            cur = None
            while start < end:
                sub = piece[start:end]
                if start > 0:
                    sub = "##" + sub
                if sub in self.vocab:
                    cur = sub
                    break
                end -= 1
            if cur is None:  # char fallback (vs the reference's [UNK])
                cur = ("##" if start > 0 else "") + piece[start]
                end = start + 1
            out.append(cur)
            start = end
        return out


def build_wordpiece_vocab(
    texts, min_freq: int = 2, max_vocab: int = 20_000
) -> set[str]:
    """Deterministic frequency-built WordPiece vocab over a corpus sample.

    Units: every seen character (plus its ``##`` continuation form — the
    char fallback floor), whole latin/digit runs with frequency ≥
    ``min_freq`` (capped at ``max_vocab`` by (-freq, token) order), and the
    ``##``-suffix of every kept run (so a kept run matches greedily both at
    piece start and as a continuation).
    """
    from collections import Counter

    runs: Counter = Counter()
    chars: set[str] = set()
    for t in texts:
        for piece in split_char_classes(t):
            if piece == " ":
                continue
            piece = piece.lower()
            chars.update(piece)
            if len(piece) > 1 and not is_chinese_or_punct(piece[0]):
                runs[piece] += 1
    vocab = set(chars) | {"##" + c for c in chars}
    kept = sorted(
        (w for w, f in runs.items() if f >= min_freq),
        key=lambda w: (-runs[w], w),
    )[:max_vocab]
    for w in kept:
        vocab.add(w)
        vocab.add("##" + w)
    return vocab


_DEFAULT_TOKENIZER = DeterministicTokenizer()


def convert_to_tokens(
    text: str, tokenizer: DeterministicTokenizer | None = None
) -> tuple[list[str], list[int], list[int]]:
    """Tokenize with char-offset alignment.

    Returns ``(tokens, tok_to_orig_start_index, tok_to_orig_end_index)`` where
    the indices are inclusive char offsets into ``text``.  Space sub-texts
    advance offsets but emit no token. Parity: data_utils.py:98-112
    (``covert_to_tokens`` with ``return_orig_index=True``).
    """
    tokenizer = tokenizer or _DEFAULT_TOKENIZER
    tok_to_orig_start: list[int] = []
    tok_to_orig_end: list[int] = []
    tokens: list[str] = []
    pos = 0
    for piece in split_char_classes(text):
        start, pos = pos, pos + len(piece)
        if piece == " ":
            continue
        for sub_token in tokenizer.tokenize(piece):
            tok_to_orig_start.append(start)
            tok_to_orig_end.append(pos - 1)
            tokens.append(sub_token)
    return tokens, tok_to_orig_start, tok_to_orig_end


# The fixture draws every mention from 88 distinct strings, so a cache of
# 1024 holds them all with room for a richer corpus.
@functools.lru_cache(maxsize=1024)
def _plain_tokens(text: str) -> tuple[str, ...]:
    return tuple(convert_to_tokens(text)[0])


def tokenize_plain(
    text: str, tokenizer: DeterministicTokenizer | None = None
) -> list[str]:
    """``covert_to_tokens(return_orig_index=False)`` analog (entity mentions).

    Mentions repeat across turns, so the default tokenizer's tokens are
    cached per text in a bounded LRU; each call returns a fresh list
    (callers compare token-list slices to it)."""
    if tokenizer is not None:
        return convert_to_tokens(text, tokenizer)[0]
    return list(_plain_tokens(text))


def tokenize_with_offset_mapping(
    text: str, tokenizer: DeterministicTokenizer | None = None
) -> tuple[list[str], list[tuple[int, int]]]:
    """Baseline-head analog of ``BertTokenizerFast.encode_plus``.

    Returns tokens WITH [CLS]/[SEP] and an HF-style ``offset_mapping`` of
    ``(start, end_exclusive)`` char spans, ``(0, 0)`` for the special tokens
    (parity: dataset/dataset_baseline.py:56-63).  A multi-subtoken WordPiece
    piece contributes one mapping entry per subtoken, each carrying the
    whole piece's span — identical to the reference's alignment loop.
    """
    tokens, starts, ends = convert_to_tokens(text, tokenizer)
    offset_mapping = [(0, 0)] + [(s, e + 1) for s, e in zip(starts, ends)] + [(0, 0)]
    return [CLS] + tokens + [SEP], offset_mapping


def search(pattern: list, sequence: list) -> int:
    """First index of sub-list ``pattern`` in ``sequence``, else -1.

    Parity: data_utils.py:163-171.
    """
    n = len(pattern)
    for i in range(len(sequence)):
        if sequence[i : i + n] == pattern:
            return i
    return -1


def search_spo_index(
    tokens: list[str],
    subject_sub_tokens: list[str],
    object_sub_tokens: list[str],
) -> tuple[int, int]:
    """Locate subject/object token spans, longest-entity-first.

    The longer entity is matched first and its window becomes forbidden for the
    shorter one (overlap-avoidance); ties go object-first. Parity:
    data_utils.py:114-161.
    """
    subject_start, object_start = -1, -1
    forbidden = None
    if len(subject_sub_tokens) > len(object_sub_tokens):
        for i in range(len(tokens) - len(subject_sub_tokens) + 1):
            if tokens[i : i + len(subject_sub_tokens)] == subject_sub_tokens:
                subject_start = i
                forbidden = i
                break
        for i in range(len(tokens) - len(object_sub_tokens) + 1):
            if tokens[i : i + len(object_sub_tokens)] == object_sub_tokens:
                if forbidden is None:
                    object_start = i
                    break
                elif i < forbidden or i >= forbidden + len(subject_sub_tokens):
                    object_start = i
                    break
    else:
        for i in range(len(tokens) - len(object_sub_tokens) + 1):
            if tokens[i : i + len(object_sub_tokens)] == object_sub_tokens:
                object_start = i
                forbidden = i
                break
        for i in range(len(tokens) - len(subject_sub_tokens) + 1):
            if tokens[i : i + len(subject_sub_tokens)] == subject_sub_tokens:
                if forbidden is None:
                    subject_start = i
                    break
                elif i < forbidden or i >= forbidden + len(object_sub_tokens):
                    subject_start = i
                    break
    return subject_start, object_start
