"""StandardAnalyzer-equivalent analysis chain as pure, batch-friendly functions.

Replicates the reference chain StandardTokenizer -> StandardFilter ->
LowerCaseFilter -> StopFilter:
  /root/reference/src/Lucene.Net.Core/Analysis/Standard/StandardAnalyzer.cs:107-117
  grammar: /root/reference/src/Lucene.Net.Core/Analysis/Standard/StandardTokenizerImpl.jflex:97-155
  /root/reference/src/Lucene.Net.Core/Analysis/Standard/StandardFilter.cs:51-80
  /root/reference/src/Lucene.Net.Core/Analysis/StopFilter.cs:128-146
  /root/reference/src/Lucene.Net.Core/Analysis/StopAnalyzer.cs:134 (33 stopwords)
  maxTokenLength 255: StandardAnalyzer.cs:124; overlong tokens are skipped and
  accumulate position increments: StandardTokenizer.cs:159-204
  ACRONYM_DEP -> HOST with trailing '.' removed: StandardTokenizer.cs:182-193

Tokenization is maximal munch over the rule set with rule-order tie-break
(JFlex semantics). Notable consequences encoded in the conformance tests:
  - ``foo_bar`` splits into ``foo``, ``bar`` ('_' is not a letter, and NUM
    requires a digit segment), but ``x86_64`` is ONE NUM token.
  - ``System.IO.TextReader`` is one HOST token.
  - ``U.S.A.`` is an ACRONYM whose dots are stripped -> ``usa``.
  - ``O'Reilly's`` keeps the inner apostrophe, loses the possessive -> ``o'reilly``.

The per-cluster lexer result is memoized (head identifiers repeat massively in
source code), so the hot path in ``map_batches`` stages is dictionary lookups.
An index build analyzes a shard's whole whitespace-token dictionary at once
(``analyze_token_dictionary``): plain ASCII alphanumeric and dotted tokens are
classified, lowercased and stop-filtered in Arrow, and only the rest reach the
Python lexer.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "ENGLISH_STOP_WORDS",
    "DEFAULT_MAX_TOKEN_LENGTH",
    "tokenize_raw",
    "analyze",
    "analyze_with_positions",
    "analyze_token_dictionary",
    "Analyzer",
]

# The 33-word default English stop set (StopAnalyzer.cs:134).
ENGLISH_STOP_WORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)

DEFAULT_MAX_TOKEN_LENGTH = 255

# --- character classes ------------------------------------------------------
# CJ: Chinese/Japanese ranges; LETTER = unicode letter minus CJ; THAI block.
_CJ = (
    "\u3100-\u312f\u3040-\u309F\u30A0-\u30FF\u31F0-\u31FF"
    "\u3300-\u337f\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\uff65-\uff9f"
)
def _mark_class() -> str:
    """Glued-character class (Unicode categories Mn/Mc/Me + Cf, BMP) —
    UAX#29 WB4 ignores (Extend | Format | ZWJ) mid-word, as in the
    reference's StandardTokenizer (UAX29) grammar that every language
    analyzer uses (StandardAnalyzer.cs chain), so Devanagari matras, Arabic
    harakat, Hebrew points AND zero-width (non-)joiners — pervasive in
    Hindi/Persian orthography — do not split tokens. (ClassicTokenizer
    WOULD split there — Character.isLetter excludes marks — but mid-word
    splits of Indic/Arabic text are the classic grammar's known defect,
    and the reference's own analyzers avoid it by using the UAX#29
    tokenizer.) Generated from the runtime Unicode DB: ~15 ms once per
    process."""
    import unicodedata

    out: list[list[int]] = []
    prev: list[int] | None = None
    for cp in range(0x10000):
        # U+200B ZERO WIDTH SPACE is Cf but Word_Break=Other in UAX#29 —
        # it SEPARATES words (pervasive in scraped web text); excluding it
        # keeps 'foo​bar' as two tokens like the reference tokenizer
        if cp == 0x200B:
            continue
        if unicodedata.category(chr(cp)) in ("Mn", "Mc", "Me", "Cf"):
            if prev is not None and cp == prev[1] + 1:
                prev[1] = cp
            else:
                prev = [cp, cp]
                out.append(prev)
    return "".join(chr(a) + (("-" + chr(b)) if b > a else "") for a, b in out)


_M = _mark_class()
_L0 = rf"(?:(?![{_CJ}])[^\W\d_])"          # bare {LETTER} (Character.isLetter)
_L = rf"(?:{_L0}[{_M}]*)"                  # {LETTER} + glued Extend marks
_AN_CH = rf"(?:[฀-๙]|(?![{_CJ}])[^\W_][{_M}]*)"  # (LETTER|digit)+marks | THAI
_AN = rf"{_AN_CH}+"                         # {ALPHANUM}
_ALPHA = rf"{_L}+"                          # {ALPHA}
_HD = rf"(?:{_L}|\d)*\d(?:{_L}|\d)*"        # {HAS_DIGIT}
_P = r"[_\-/.,]"                            # {P}

_RULES: list[tuple[str, str]] = [
    # (type, pattern) in JFlex rule order (= tie-break priority order).
    ("<ALPHANUM>", _AN),
    ("<APOSTROPHE>", rf"{_ALPHA}(?:'{_ALPHA})+"),
    ("<ACRONYM>", rf"{_L}\.(?:{_L}\.)+"),
    ("<COMPANY>", rf"{_ALPHA}[&@]{_ALPHA}"),
    ("<EMAIL>", rf"{_AN}(?:[._-]{_AN})*@{_AN}(?:[.-]{_AN})+"),
    ("<HOST>", rf"{_AN}(?:\.{_AN})+"),
    # NUM's six branches are evaluated separately: maximal munch must take the
    # longest across branches, which a single first-match alternation misses.
    ("<NUM>", rf"{_AN}{_P}{_HD}(?:{_P}{_AN}{_P}{_HD})+"),
    ("<NUM>", rf"{_HD}{_P}{_AN}(?:{_P}{_HD}{_P}{_AN})+"),
    ("<NUM>", rf"{_AN}(?:{_P}{_HD}{_P}{_AN})+"),
    ("<NUM>", rf"{_HD}(?:{_P}{_AN}{_P}{_HD})+"),
    ("<NUM>", rf"{_AN}{_P}{_HD}"),
    ("<NUM>", rf"{_HD}{_P}{_AN}"),
    ("<ACRONYM_DEP>", rf"{_AN}\.(?:{_AN}\.)+"),
]
_COMPILED = [(t, re.compile(p)) for t, p in _RULES]

# Tie-break priority by jflex listing order (lower = wins on equal length).
_PRIORITY = {
    "<ALPHANUM>": 0,
    "<APOSTROPHE>": 1,
    "<ACRONYM>": 2,
    "<COMPANY>": 3,
    "<EMAIL>": 4,
    "<HOST>": 5,
    "<NUM>": 6,
    "<ACRONYM_DEP>": 8,
}

# A "cluster" is a maximal run of characters that can participate in any
# non-CJ rule; tokens never span cluster boundaries, so we lex cluster-wise
# and memoize. CJ chars are single-char tokens of their own.
_CLUSTER_RE = re.compile(rf"(?:{_AN_CH}|['&@_\-/.,])+|[{_CJ}]")
_CJ_RE = re.compile(rf"[{_CJ}]")
_SIMPLE_RE = re.compile(rf"{_AN}\Z")


def _lex_cluster_uncached(s: str) -> tuple[tuple[str, str], ...]:
    """Maximal-munch lex of one cluster -> ((text, type), ...)."""
    out: list[tuple[str, str]] = []
    i, n = 0, len(s)
    while i < n:
        best_len = 0
        best_pri = 99
        best_type = ""
        for typ, rx in _COMPILED:
            m = rx.match(s, i)
            if m:
                length = m.end() - i
                pri = _PRIORITY[typ]
                if length > best_len or (length == best_len and pri < best_pri):
                    best_len = length
                    best_pri = pri
                    best_type = typ
        if best_len:
            out.append((s[i : i + best_len], best_type))
            i += best_len
        else:
            i += 1  # ignore (punctuation with no rule)
    return tuple(out)


@lru_cache(maxsize=1_000_000)
def _lex_cluster(s: str) -> tuple[tuple[str, str], ...]:
    if _SIMPLE_RE.match(s):  # fast path: plain ALPHANUM run
        return ((s, "<ALPHANUM>"),)
    return _lex_cluster_uncached(s)


def tokenize_raw(text: str) -> list[tuple[str, str]]:
    """StandardTokenizer output: [(token_text, token_type), ...].

    ACRONYM_DEP is reported as HOST with the trailing '.' removed
    (replaceInvalidAcronym semantics, StandardTokenizer.cs:182-188).
    maxTokenLength filtering happens in analyze(), which needs skip counts.
    """
    out: list[tuple[str, str]] = []
    for m in _CLUSTER_RE.finditer(text):
        chunk = m.group()
        if len(chunk) == 1 and _CJ_RE.match(chunk):
            out.append((chunk, "<CJ>"))
            continue
        for tok, typ in _lex_cluster(chunk):
            if typ == "<ACRONYM_DEP>":
                out.append((tok[:-1], "<HOST>"))
            else:
                out.append((tok, typ))
    return out


def _standard_filter(tok: str, typ: str) -> str:
    """StandardFilter: strip possessive 's from APOSTROPHE, dots from ACRONYM."""
    if typ == "<APOSTROPHE>" and len(tok) >= 2 and tok[-2] == "'" and tok[-1] in "sS":
        return tok[:-2]
    if typ == "<ACRONYM>":
        return tok.replace(".", "")
    return tok


def analyze_with_positions(
    text: str,
    stop_words: frozenset[str] = ENGLISH_STOP_WORDS,
    max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
) -> tuple[list[str], list[int]]:
    """Full chain -> (tokens, position_increments).

    Overlong tokens (tokenizer) and stop words (StopFilter) are dropped, with
    their position increments accumulated onto the next kept token.
    """
    tokens: list[str] = []
    incrs: list[int] = []
    pending = 1
    for tok, typ in tokenize_raw(text):
        if len(tok) > max_token_length:
            pending += 1  # StandardTokenizer.cs:202-203
            continue
        term = _standard_filter(tok, typ).lower()
        if term in stop_words:
            pending += 1  # StopFilter.cs:142
            continue
        tokens.append(term)
        incrs.append(pending)
        pending = 1
    return tokens, incrs


@lru_cache(maxsize=1_000_000)
def _analyze_cluster(
    cluster: str,
    stop_words: frozenset[str],
    max_token_length: int,
    fold: bool = False,
    stem: str | None = None,
    case: str | None = None,
) -> tuple[str, ...]:
    """Fully-processed terms of one cluster (StandardFilter + lowercase +
    [ASCIIFolding] + stop + [PorterStem] + length cutoff), memoized — the
    whole filter chain runs once per distinct cluster, so the indexing hot
    path is findall + dict hits + list extend. Filter order matches the
    reference EnglishAnalyzer: fold after lowercase, stop before stem."""
    if len(cluster) == 1 and _CJ_RE.match(cluster):
        return (cluster,)  # CJ single-char token, never a stopword
    stem_fn = case_fn = None
    if fold or stem or case:
        from .stem import CASE_FOLDS, STEMMERS, ascii_fold

        stem_fn = STEMMERS[stem] if stem else None
        case_fn = CASE_FOLDS[case] if case else None
    out = []
    for tok, typ in _lex_cluster(cluster):
        if typ == "<ACRONYM_DEP>":
            tok, typ = tok[:-1], "<HOST>"
        if len(tok) > max_token_length:
            continue
        filtered = _standard_filter(tok, typ)
        term = case_fn(filtered) if case_fn is not None else filtered.lower()
        if not term:
            continue  # language case-fold stopped the token (e.g. Irish h/n/t)
        if fold:
            term = ascii_fold(term)
        if term in stop_words:
            continue
        if stem_fn is not None:
            term = stem_fn(term)
        out.append(term)
    return tuple(out)


@lru_cache(maxsize=1_000_000)
def _analyze_cluster_positions(
    text: str,
    stop_words: frozenset[str],
    max_token_length: int,
    fold: bool = False,
    stem: str | None = None,
    case: str | None = None,
) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """(terms, relative_positions, positions_consumed) for one
    whitespace-free chunk (may contain several clusters / CJ chars).

    Every raw tokenizer token consumes one position (stopwords and overlong
    tokens included — their increments accumulate), so a kept term's position
    is the index of its raw token. Needed for phrase/span scoring.
    """
    stem_fn = case_fn = None
    if fold or stem or case:
        from .stem import CASE_FOLDS, STEMMERS, ascii_fold

        stem_fn = STEMMERS[stem] if stem else None
        case_fn = CASE_FOLDS[case] if case else None
    terms: list[str] = []
    rel: list[int] = []
    pos = 0
    for m in _CLUSTER_RE.finditer(text):
        chunk = m.group()
        if len(chunk) == 1 and _CJ_RE.match(chunk):
            terms.append(chunk)
            rel.append(pos)
            pos += 1
            continue
        for tok, typ in _lex_cluster(chunk):
            if typ == "<ACRONYM_DEP>":
                tok, typ = tok[:-1], "<HOST>"
            if len(tok) <= max_token_length:
                filtered = _standard_filter(tok, typ)
                term = case_fn(filtered) if case_fn is not None else filtered.lower()
                if fold:
                    term = ascii_fold(term)
                if term and term not in stop_words:
                    if stem_fn is not None:
                        term = stem_fn(term)
                    terms.append(term)
                    rel.append(pos)
            pos += 1
    return tuple(terms), tuple(rel), pos


# plain-dict memo for the default analyzer config: dict.get is ~20x cheaper
# than an lru_cache call, and this sits in the per-token hot path of every
# index build (bounded; head clusters repeat massively in source code)
_DEFAULT_CACHE: dict[str, tuple[str, ...]] = {}
_DEFAULT_CACHE_MAX = 2_000_000


def analyze(
    text: str,
    stop_words: frozenset[str] = ENGLISH_STOP_WORDS,
    max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
) -> list[str]:
    """Final index terms of a document field; len(result) is the field length
    used for norm encoding (post-stop-filter kept-token count)."""
    tokens: list[str] = []
    if stop_words is ENGLISH_STOP_WORDS and max_token_length == DEFAULT_MAX_TOKEN_LENGTH:
        cache_get = _DEFAULT_CACHE.get
        extend = tokens.extend
        for chunk in _CLUSTER_RE.findall(text):
            terms = cache_get(chunk)
            if terms is None:
                terms = _analyze_cluster(chunk, stop_words, max_token_length)
                if len(_DEFAULT_CACHE) < _DEFAULT_CACHE_MAX:
                    _DEFAULT_CACHE[chunk] = terms
            extend(terms)
        return tokens
    for chunk in _CLUSTER_RE.findall(text):
        tokens.extend(_analyze_cluster(chunk, stop_words, max_token_length))
    return tokens


_LD_RE = re.compile(r"[^\W_]+", re.UNICODE)  # letter-or-digit runs
# Java Character.toLowerCase is per-char (1:1): U+0130 'İ' -> 'i' (Python
# str.lower() expands it to 'i' + combining dot) and U+03A3 'Σ' -> 'σ'
# unconditionally (Python lowers a word-final Σ to final sigma 'ς') —
# pre-map both so the LowerCaseFilter analog matches the reference chain.
_JAVA_LOWER = str.maketrans({"İ": "i", "Σ": "σ"})


@lru_cache(maxsize=1_000_000)
def _fold_ld_term(run: str) -> str:
    from .stem import ascii_fold

    return ascii_fold(run.translate(_JAVA_LOWER).lower())


def _ld_terms_scan(text: str) -> list[str]:
    """Letter-or-digit runs -> per-char Java lowercase -> ASCII fold, for
    the contrib Analysis.Ext kinds. Uncached scan over arbitrary-length
    text (whole documents ride through here); the per-RUN fold is cached."""
    return [_fold_ld_term(m.group()) for m in _LD_RE.finditer(text)]


@lru_cache(maxsize=1_000_000)
def _letter_digit_terms(token: str) -> tuple[str, ...]:
    """Cached per whitespace token — the unit of the hot indexing path,
    which repeats massively across a corpus (same memoization contract as
    _analyze_cluster_positions)."""
    return tuple(_ld_terms_scan(token))


class Analyzer:
    """Configurable analyzer (tokenizer chain as a picklable callable).

    kind: 'standard' (default), 'english' (standard chain + PorterStemFilter,
    the EnglishAnalyzer analog — reference
    Analysis.Common/Analysis/En/PorterStemFilter.cs:26), 'german' / 'french' /
    'spanish' (standard chain + the corresponding Savoy light/minimal
    stemmer — Analysis.Common/Analysis/{De,Fr,Es}/*LightStemmer.cs analogs;
    pass the language's stop list via stop_words), 'whitespace', 'simple'
    (letter runs, lowercased), or 'keyword' (whole input, unchanged).
    ascii_fold inserts an ASCIIFoldingFilter after lowercasing (reference
    Analysis.Common/Analysis/Miscellaneous/ASCIIFoldingFilter.cs).
    """

    def __init__(
        self,
        kind: str = "standard",
        stop_words: frozenset[str] | None = ENGLISH_STOP_WORDS,
        max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH,
        ascii_fold: bool = False,
    ):
        _lang_stems = {
            "english": "porter",
            "german": "german",
            "french": "french",
            "spanish": "spanish",
            # Snowball family (functions/snowball.py — SnowballFilter.cs:30
            # analogs): Porter2 English, Italian, Russian
            "english_snowball": "porter2",
            "italian": "italian",
            "russian": "russian",
            "swedish": "swedish",
            "norwegian": "norwegian",
            "danish": "danish",
            "dutch": "dutch",
            "portuguese": "portuguese",
            "spanish_snowball": "spanish_snowball",
            "german_snowball": "german_snowball",
            "german2": "german2",
            "finnish_snowball": "finnish_snowball",
            "hungarian_snowball": "hungarian_snowball",
            "lovins": "lovins",
            # Kraaij-Pohlmann Dutch (reference SnowballAnalyzer("Kp"),
            # contrib/Snowball/SF/Snowball/Ext/KpStemmer.cs): clean-room
            # re-derivation in functions/kp.py
            "dutch_kp": "kp",
            "french_snowball": "french_snowball",
            "arabic": "arabic",
            "indonesian": "indonesian",
            "hindi": "hindi",
            "czech": "czech",
            "bulgarian": "bulgarian",
            "finnish": "finnish",
            "hungarian": "hungarian",
            "persian": "persian",
            "latvian": "latvian",
            "greek": "greek",
            "sorani": "sorani",
            "romanian": "romanian",
            "brazilian": "brazilian",
            "galician": "galician",
            "galician_minimal": "galician_minimal",
            "turkish": "turkish_snowball",
            "irish": None,
            # Ca/Eu/Hy analyzer shells (reference Analysis/{Ca,Eu,Hy}/*.cs):
            # original light stemmers — the Snowball sources are absent from
            # the reference tree; provenance in functions/ca_eu_hy.py.
            # Catalan adds the tree-verified elision set via _lang_case.
            "catalan": "catalan",
            "basque": "basque",
            "armenian": "armenian",
        }
        # kinds whose chain replaces plain str.lower() with a language case
        # fold (reference Tr/TurkishLowerCaseFilter.cs + ApostropheFilter.cs,
        # Ga/IrishLowerCaseFilter.cs + hyphenation stop + article elision)
        _lang_case = {"turkish": "turkish", "irish": "irish", "catalan": "catalan",
                      "hindi": "hindi"}
        # contrib/Core/Analysis/Ext/Analysis.Ext.cs analogs:
        #   letter_digit = UnaccentedWordAnalyzer (LetterOrDigitTokenizer ->
        #   LowerCase -> ASCIIFolding), single_char = SingleCharTokenAnalyzer
        #   (same chain, then one token PER CHAR, each its own position)
        if kind not in (
            "standard", "whitespace", "simple", "keyword",
            "letter_digit", "single_char", "chinese", *_lang_stems,
        ):
            raise ValueError(f"unknown analyzer kind: {kind}")
        self.kind = kind
        if kind == "chinese" and stop_words is ENGLISH_STOP_WORDS:
            # ChineseFilter hardcodes its own 30-word list
            # (ChineseFilter.cs:51); identity check against the parameter
            # default so only a caller who did NOT pass stop_words gets it
            from .chinese import CHINESE_STOP_WORDS

            stop_words = CHINESE_STOP_WORDS
        self.stop_words = stop_words if stop_words is not None else frozenset()
        self.max_token_length = max_token_length
        self.fold = ascii_fold
        self.stem = _lang_stems.get(kind)
        self.case = _lang_case.get(kind)
        # SimpleAnalyzer = LetterTokenizer (Character.isLetter — marks DO
        # split here, unlike the UAX#29 standard grammar above)
        self._simple_re = re.compile(rf"{_L0}+")

    def __call__(self, text: str) -> list[str]:
        if self.kind == "letter_digit":
            return _ld_terms_scan(text)
        if self.kind == "single_char":
            return [c for tok in _ld_terms_scan(text) for c in tok]
        if self.kind == "chinese":
            from .chinese import chinese_terms

            return list(chinese_terms(text, self.stop_words))
        if self.kind not in ("whitespace", "simple", "keyword"):
            if not self.fold and not self.stem and not self.case:
                return analyze(text, self.stop_words, self.max_token_length)
            tokens: list[str] = []
            for chunk in _CLUSTER_RE.findall(text):
                tokens.extend(
                    _analyze_cluster(
                        chunk, self.stop_words, self.max_token_length, self.fold,
                        self.stem, self.case,
                    )
                )
            return tokens
        if self.kind == "whitespace":
            return text.split()
        if self.kind == "simple":
            return [m.group().lower() for m in self._simple_re.finditer(text)]
        return [text]  # keyword

    def analyze_positions(self, ws_token: str) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        """(terms, relative positions, positions consumed) for one
        whitespace-delimited token — the position-aware unit of the fast
        indexing path (every raw token consumes one position)."""
        if self.kind == "letter_digit":
            terms = _letter_digit_terms(ws_token)
            return terms, tuple(range(len(terms))), len(terms)
        if self.kind == "chinese":
            # surviving tokens occupy consecutive positions (the reference
            # filter drops tokens without adjusting position increments)
            from .chinese import chinese_terms

            terms = chinese_terms(ws_token, self.stop_words)
            return terms, tuple(range(len(terms))), len(terms)
        if self.kind == "single_char":
            terms = tuple(
                c for tok in _letter_digit_terms(ws_token) for c in tok
            )
            return terms, tuple(range(len(terms))), len(terms)
        if self.kind not in ("whitespace", "simple", "keyword"):
            return _analyze_cluster_positions(
                ws_token, self.stop_words, self.max_token_length, self.fold,
                self.stem, self.case,
            )
        if self.kind == "whitespace":
            # pc.utf8_split_whitespace emits '' for leading/trailing whitespace;
            # str.split() (the reference WhitespaceTokenizer analog) never does,
            # so empty ws tokens contribute nothing — no term, no position.
            if not ws_token:
                return (), (), 0
            return (ws_token,), (0,), 1
        if self.kind == "simple":
            terms = tuple(m.group().lower() for m in self._simple_re.finditer(ws_token))
            return terms, tuple(range(len(terms))), len(terms)
        raise NotImplementedError(f"positions unsupported for analyzer kind {self.kind!r}")

    def analyze_text_positions(self, text: str) -> tuple[list[str], list[int]]:
        """(terms, absolute positions) for a full text under this analyzer.

        Positions count raw tokens (stopwords/overlong included), matching the
        index-side position assignment of the fast build path, so phrase
        queries parsed with any analyzer line up with segments built with the
        same analyzer (QueryParserBase.GetFieldQuery position semantics).
        """
        if self.kind == "keyword":
            return [text], [0]
        terms: list[str] = []
        positions: list[int] = []
        base = 0
        for ws_tok in text.split():
            ts, rels, consumed = self.analyze_positions(ws_tok)
            terms.extend(ts)
            positions.extend(base + r for r in rels)
            base += consumed
        return terms, positions

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "stop_words": sorted(self.stop_words),
            "max_token_length": self.max_token_length,
            "ascii_fold": self.fold,
        }


# A whitespace token of ASCII letters and digits, or of such runs joined by
# single dots, lexes as one token under the standard grammar: one ALPHANUM,
# or one HOST (it spans the whole token and wins every tie; the ACRONYM forms
# that drop their dots need a trailing dot). Its term is its lowercased text
# (ASCII folding leaves it as it is) unless that is a stop word or the token
# is overlong, and it consumes one position either way.
_ARROW_TOKEN = r"^[A-Za-z0-9]+(?:\.[A-Za-z0-9]+)*$"


def analyze_token_dictionary(
    analyzer: Analyzer, tokens: pa.Array
) -> tuple[np.ndarray, pa.Array, np.ndarray, np.ndarray]:
    """``analyzer.analyze_positions`` over a dictionary of whitespace tokens,
    as one CSR: (offsets, terms, relative positions, positions consumed).
    Token i yields ``terms[offsets[i]:offsets[i + 1]]`` at the matching
    relative positions and consumes ``consumed[i]`` positions.

    Under the standard chain (kind 'standard': no stemmer, no language case
    fold) the tokens of ``_ARROW_TOKEN`` are lowercased, stop-filtered and
    length-filtered in Arrow; every other token, and every token of another
    kind, goes through ``analyze_positions`` one at a time."""
    n = len(tokens)
    if analyzer.kind == "standard":
        fast = pc.match_substring_regex(tokens, _ARROW_TOKEN).to_numpy(zero_copy_only=False)
    else:
        fast = np.zeros(n, dtype=bool)
    fast_idx = np.flatnonzero(fast)
    slow_idx = np.flatnonzero(~fast)
    lowered = pc.ascii_lower(tokens.take(fast_idx))
    stops = pa.array(sorted(analyzer.stop_words), type=lowered.type)
    keep = pc.invert(pc.or_(
        pc.greater(pc.binary_length(lowered), analyzer.max_token_length),
        pc.is_in(lowered, value_set=stops),
    ))
    kept = keep.to_numpy(zero_copy_only=False)

    counts = np.zeros(n, dtype=np.int64)
    counts[fast_idx] = kept
    consumed = np.ones(n, dtype=np.int64)
    slow_terms: list[str] = []
    slow_rels: list[int] = []
    for i, tok in zip(slow_idx.tolist(), tokens.take(slow_idx).to_pylist()):
        terms, rels, consumed[i] = analyzer.analyze_positions(tok)
        counts[i] = len(terms)
        slow_terms.extend(terms)
        slow_rels.extend(rels)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    # CSR slot of every produced term: a kept Arrow token's one term sits at
    # its token's offset, a Python token's terms run on from its offset
    slow_counts = counts[slow_idx]
    slow_first = np.cumsum(slow_counts) - slow_counts
    slow_dest = np.repeat(offsets[slow_idx] - slow_first, slow_counts) + np.arange(len(slow_terms))
    dest = np.concatenate((offsets[fast_idx[kept]], slow_dest))
    src = np.empty(dest.size, dtype=np.int64)
    src[dest] = np.arange(dest.size)
    values = pa.concat_arrays([lowered.filter(keep), pa.array(slow_terms, type=lowered.type)])
    rels = np.zeros(dest.size, dtype=np.int64)
    rels[slow_dest] = slow_rels
    return offsets, values.take(src), rels, consumed
