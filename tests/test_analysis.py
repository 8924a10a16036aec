"""Analyzer conformance vectors derived from the jflex grammar
(StandardTokenizerImpl.jflex:97-155) + a brute-force maximal-munch oracle."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_net_ray.functions import analysis as an
from lucene_net_ray.functions.analysis import (
    Analyzer,
    analyze,
    analyze_with_positions,
    tokenize_raw,
)

# (input, expected [(token, type)]) — derived by hand from the grammar.
TOKENIZER_VECTORS = [
    ("hello world", [("hello", "<ALPHANUM>"), ("world", "<ALPHANUM>")]),
    ("U.S.A.", [("U.S.A.", "<ACRONYM>")]),
    ("U.S.A", [("U.S.A", "<HOST>")]),
    ("AT&T", [("AT&T", "<COMPANY>")]),
    ("Excite@Home", [("Excite@Home", "<COMPANY>")]),
    ("dev@example.com", [("dev@example.com", "<EMAIL>")]),
    ("System.IO.TextReader", [("System.IO.TextReader", "<HOST>")]),
    ("a.b.c", [("a.b.c", "<HOST>")]),
    ("3.14", [("3.14", "<HOST>")]),  # HOST listed before NUM, equal length
    ("x86_64", [("x86_64", "<NUM>")]),
    ("foo_bar", [("foo", "<ALPHANUM>"), ("bar", "<ALPHANUM>")]),
    ("v1.2.3", [("v1.2.3", "<HOST>")]),  # dots only -> HOST wins over NUM at equal length
    ("127.0.0.1", [("127.0.0.1", "<HOST>")]),
    ("don't", [("don't", "<APOSTROPHE>")]),
    ("O'Reilly's", [("O'Reilly's", "<APOSTROPHE>")]),
    ("i18n utf8", [("i18n", "<ALPHANUM>"), ("utf8", "<ALPHANUM>")]),
    # NUM can out-munch HOST when non-dot separators extend it
    ("1.2-a", [("1.2-a", "<NUM>")]),
    # ... and HOST out-munches NUM when dots carry further
    ("1.2.a.b", [("1.2.a.b", "<HOST>")]),
    ("src/module2/File3.cs", [("src/module2/File3", "<NUM>"), ("cs", "<ALPHANUM>")]),
    # ACRONYM_DEP -> HOST with trailing dot removed
    ("a1.b2.", [("a1.b2", "<HOST>")]),
    ("one,2", [("one,2", "<NUM>")]),
    ("quick brown-fox", [("quick", "<ALPHANUM>"), ("brown", "<ALPHANUM>"), ("fox", "<ALPHANUM>")]),
    ("", []),
    ("...", []),
]


@pytest.mark.parametrize("text,expected", TOKENIZER_VECTORS)
def test_tokenizer_vectors(text, expected):
    assert tokenize_raw(text) == expected


def test_standard_filter_and_lowercase():
    assert analyze("U.S.A.") == ["usa"]
    assert analyze("O'Reilly's") == ["o'reilly"]
    assert analyze("Don'T") == ["don't"]
    assert analyze("FooBar FOO") == ["foobar", "foo"]


def test_stop_filter_and_positions():
    toks, incrs = analyze_with_positions("the quick a fox")
    assert toks == ["quick", "fox"]
    assert incrs == [2, 2]
    toks, incrs = analyze_with_positions("quick the the the fox")
    assert incrs == [1, 4]


def test_all_33_stopwords_dropped():
    text = (
        "a an and are as at be but by for if in into is it no not of on or such "
        "that the their then there these they this to was will with"
    )
    assert analyze(text) == []


def test_max_token_length_skips_and_counts_position():
    long_tok = "x" * 256
    toks, incrs = analyze_with_positions(f"alpha {long_tok} beta")
    assert toks == ["alpha", "beta"]
    assert incrs == [1, 2]
    assert analyze("y" * 255) == ["y" * 255]


def test_field_length_is_post_stop_count():
    assert len(analyze("the quick brown fox is here")) == 4  # the/is dropped


# --- brute-force maximal-munch oracle vs the fast cluster lexer -----------

_RULES = [(t, re.compile(p + r"\Z")) for t, p in an._RULES]


def _oracle_lex(s: str):
    out = []
    i, n = 0, len(s)
    while i < n:
        best = None  # (len, priority, type)
        for length in range(n - i, 0, -1):
            seg = s[i : i + length]
            for typ, rx in _RULES:
                if rx.fullmatch(seg):
                    pri = an._PRIORITY[typ]
                    if best is None or length > best[0] or (length == best[0] and pri < best[1]):
                        if best is None or length >= best[0]:
                            best = (length, pri, typ)
            if best is not None:
                break  # longest found (scanning lengths descending)
        if best:
            out.append((s[i : i + best[0]], best[2]))
            i += best[0]
        else:
            i += 1
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=list("ab1._-/,'&@ ") + ["Z", "9"],
        min_size=0,
        max_size=18,
    )
)
def test_fast_lexer_matches_bruteforce_oracle(s):
    fast = [
        (tok, typ) if typ != "<ACRONYM_DEP>" else (tok, typ)
        for tok, typ in _concat_clusters(s)
    ]
    assert fast == _oracle_lex_text(s)


def _concat_clusters(s):
    out = []
    for m in an._CLUSTER_RE.finditer(s):
        out.extend(an._lex_cluster_uncached(m.group()))
    return out


def _oracle_lex_text(s):
    out = []
    for m in an._CLUSTER_RE.finditer(s):
        out.extend(_oracle_lex(m.group()))
    return out


def test_analyzer_kinds():
    assert Analyzer("whitespace")("The quick FOX") == ["The", "quick", "FOX"]
    assert Analyzer("simple")("Foo3Bar baz") == ["foo", "bar", "baz"]
    assert Analyzer("keyword")("The quick FOX") == ["The quick FOX"]


# --- token-dictionary analysis (the build's bulk path) vs analyze_positions
DICT_TOKENS = [
    "The", "AND", "a", "tHe", "IS", "it", "foo", "Foo", "x", "0", "123", "007", "x86",
    "a" * 255, "a" * 256, "a." * 127 + "a", "a." * 127 + "ab", "abcd", "abcde", "a.bc", "a.bcd",
    "", "_", "foo_bar", "x86_64", "__init__", "O'Neil's", "don't",
    "U.S.A", "U.S.A.", "u.s.a", "a.b.", ".a", "a.", "a..b", "1.2-a", "The.And", "foo.THE",
    "System.IO.TextReader", "org.chea.di", "dev@example.com", "www.example.com",
    "127.0.0.1", "10.0.0.255", "İstanbul", "straße", "STRASSE", "caf\u00e9", "cafe\u0301",
    "e\u0301", "\u0301", "ภาษาไทย", "日本語", "テスト", "１２３", "Ａｂｃ", "x|1.5", "AT&T", "(paren)",
]
DICT_ANALYZERS = {
    "default": Analyzer(),
    "no_stops": Analyzer(stop_words=None),
    "max4": Analyzer(max_token_length=4),
    "dotted_stops": Analyzer(stop_words=frozenset({"foo.the", "x86", "a"})),
    "fold": Analyzer(ascii_fold=True),
    "english": Analyzer(kind="english"),
    "whitespace": Analyzer(kind="whitespace"),
    "simple": Analyzer(kind="simple"),
}


def _per_token_csr(analyzer, tokens):
    offsets, terms, rels, consumed = [0], [], [], []
    for tok in tokens:
        ts, rs, c = analyzer.analyze_positions(tok)
        terms.extend(ts)
        rels.extend(rs)
        consumed.append(c)
        offsets.append(len(terms))
    return offsets, terms, rels, consumed


def _dictionary_csr(analyzer, tokens):
    import pyarrow as pa

    offsets, terms, rels, consumed = an.analyze_token_dictionary(analyzer, pa.array(tokens, type=pa.string()))
    return offsets.tolist(), terms.to_pylist(), rels.tolist(), consumed.tolist()


@pytest.mark.parametrize("name", sorted(DICT_ANALYZERS))
def test_token_dictionary_equals_per_token_path(name, monkeypatch):
    analyzer = DICT_ANALYZERS[name]
    expected = _per_token_csr(analyzer, DICT_TOKENS)
    seen = []
    per_token = analyzer.analyze_positions
    monkeypatch.setattr(analyzer, "analyze_positions", lambda t: seen.append(t) or per_token(t))
    assert _dictionary_csr(analyzer, DICT_TOKENS) == expected
    arrow_class = re.compile(an._ARROW_TOKEN)
    if analyzer.kind == "standard":  # the Python lexer sees only the tokens outside the class
        assert seen == [t for t in DICT_TOKENS if not arrow_class.match(t)]
        assert "org.chea.di" not in seen and "x86_64" in seen
    else:
        assert seen == DICT_TOKENS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=list("aZ09._'-@&İßé日Ａ\u0301"), max_size=10), max_size=12))
def test_token_dictionary_equals_per_token_path_random(tokens):
    for analyzer in (DICT_ANALYZERS["default"], DICT_ANALYZERS["max4"]):
        assert _dictionary_csr(analyzer, tokens) == _per_token_csr(analyzer, tokens)
