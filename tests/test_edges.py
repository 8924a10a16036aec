"""Edge cases + randomized engine-vs-oracle property test."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import BooleanClause, BooleanQuery, TermQuery, parse_query
from lucene_net_ray.state.checkindex import check_index


def test_stopword_only_and_empty_docs(tmp_path):
    docs = ["the and of", "", "real content here", "a an", "   "]
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": docs}), idx, target_rows_per_segment=10)
    check_index(meta)
    s = Searcher(meta, use_actors=False)
    oracle = OracleIndex(docs)
    assert s.count(TermQuery(term="content")) == 1
    hits = s.search(TermQuery(term="content"), k=5)
    expected = oracle.top_k(TermQuery(term="content"), 5)
    assert [d for d, _ in hits] == [d for d, _ in expected]
    assert np.float32(hits[0][1]) == np.float32(expected[0][1])
    assert s.count(TermQuery(term="the")) == 0  # stopwords never indexed


def test_unicode_and_cjk_content(tmp_path):
    docs = ["naïve café résumé", "日本 語 テスト", "mixed 日本 content", "ascii only doc"]
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": docs}), idx, target_rows_per_segment=10)
    check_index(meta)
    s = Searcher(meta, use_actors=False)
    oracle = OracleIndex(docs)
    for term in ["naïve", "café", "日", "content", "mixed"]:
        q = TermQuery(term=term)
        assert s.count(q) == oracle.count(q), term
        hits = s.search(q, k=5)
        expected = oracle.top_k(q, 5)
        assert [d for d, _ in hits] == [d for d, _ in expected], term
        for (d1, s1), (d2, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)


def test_single_doc_corpus(tmp_path):
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": ["only doc"]}), idx)
    s = Searcher(meta, use_actors=False)
    assert s.search(TermQuery(term="doc"), k=5)[0][0] == 0


VOCAB = ["aa", "bb", "cc", "dd", "the", "a", "x.y", "u_1", "don't", "A.B.", "z9"]


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=0, max_size=12).map(" ".join),
        min_size=2,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=3),
)
def test_random_corpora_engine_equals_oracle(tmp_path_factory, docs, qsel):
    idx = str(tmp_path_factory.mktemp("hyp_idx"))
    meta = build_index_from_table(pa.table({"content": docs}), idx, target_rows_per_segment=7)
    s = Searcher(meta, use_actors=False)
    oracle = OracleIndex(docs)
    queries = [
        TermQuery(term="aa"),
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="aa"), "MUST"),
                              BooleanClause(TermQuery(term="bb"), "MUST"))),
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="cc"), "SHOULD"),
                              BooleanClause(TermQuery(term="z9"), "SHOULD"))),
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="aa"), "MUST"),
                              BooleanClause(TermQuery(term="dd"), "MUST_NOT"))),
    ]
    q = queries[qsel]
    hits = s.search(q, k=10)
    expected = oracle.top_k(q, 10)
    assert [d for d, _ in hits] == [d for d, _ in expected]
    for (d1, s1), (d2, s2) in zip(hits, expected):
        assert np.float32(s1) == np.float32(s2)
    assert s.count(q) == oracle.count(q)


# --- fast (Arrow ws-split + token-dictionary analysis) vs slow (per-doc
# analyze) build-path equivalence: the invariant whose CJK violation was a
# real bug. The vocabulary mixes tokens the dictionary path analyzes in Arrow
# with tokens only the Python lexer can, so each doc exercises both.

GNARLY = ["foo", "don't", "U.S.A.", "U.S.A", "x86_64", "a.b.c", "日本", "テスト", "the", "The",
          "AND", "(paren)", "semi;colon", "dash-ed", "", "café", "x" * 260, "1.2-a", "007",
          "a" * 255, "a" * 256, "a." * 127 + "ab", "foo_bar", "O'Neil's", "dev@example.com",
          "org.chea.di", "127.0.0.1", "İstanbul", "straße", "ภาษาไทย", "cafe\u0301", "１２３",
          "foo|0.5", "The|2", "U.S.A|1.5", "x|y", "日本|3"]


def _strip_payloads(doc: str, delimiter: str) -> str:
    """``doc`` with each whitespace token's float payload suffix removed
    (the DelimitedPayloadTokenFilter rule of ``build_segment``)."""
    out = []
    for tok in doc.split(" "):
        head, sep, tail = tok.rpartition(delimiter)
        if sep:
            try:
                float(tail)
                tok = head
            except ValueError:
                pass
        out.append(tok)
    return " ".join(out)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from(GNARLY), min_size=0, max_size=8).map(" ".join),
                min_size=1, max_size=10))
def test_fast_build_path_equals_analyze(tmp_path_factory, docs):
    from collections import Counter, defaultdict

    import pyarrow.parquet as pq

    from lucene_net_ray.functions.analysis import analyze, analyze_with_positions
    from lucene_net_ray.state.segment import SegmentReader, build_segment

    builds = [("freqs", None), ("positions", None), ("offsets", None), ("positions", "|")]
    for options, delimiter in builds:
        td = str(tmp_path_factory.mktemp("fastslow"))
        build_segment(pa.table({"content": docs}), seg_id=0, doc_base=0, out_dir=td,
                      index_options=options, payload_delimiter=delimiter)
        texts = [_strip_payloads(d, delimiter) if delimiter else d for d in docs]
        r = SegmentReader(td + "/seg000000")
        docs_tbl = pq.read_table(td + "/seg000000/docs.parquet")
        # field lengths match the reference analyzer chain doc by doc
        for i, d in enumerate(texts):
            assert docs_tbl.column("field_len")[i].as_py() == len(analyze(d)), (options, d)
        # postings reconstruct each doc's term multiset, and positions each
        # term's positions (a kept term sits at the index of its raw token)
        per_doc: dict[int, Counter] = {i: Counter() for i in range(len(docs))}
        pos_doc: dict[int, dict] = {i: defaultdict(list) for i in range(len(docs))}
        for t in r.terms:
            dids, tfs = r.postings(str(t))
            for did, tf in zip(dids.tolist(), tfs.tolist()):
                per_doc[did][str(t)] = tf
            if options != "freqs":
                pdids, _tfs, flat, occ = r.positions(str(t))
                for j, did in enumerate(pdids.tolist()):
                    pos_doc[did][str(t)] = flat[occ[j] : occ[j + 1]].tolist()
        for i, d in enumerate(texts):
            assert per_doc[i] == Counter(analyze(d)), (options, d)
            if options != "freqs":
                terms, incrs = analyze_with_positions(d)
                want = defaultdict(list)
                for term, pos in zip(terms, np.cumsum(incrs) - 1):
                    want[term].append(int(pos))
                assert pos_doc[i] == want, (options, d)


def test_whitespace_analyzer_no_empty_terms(tmp_path):
    """pc.utf8_split_whitespace emits '' for leading/trailing whitespace; the
    fast build path must not index it (ADVICE r1: '' term with df=1, norm off
    by one field-length)."""
    from lucene_net_ray.state.segment import SegmentReader, build_segment

    docs = [" x  y ", "x y", "  ", "z"]
    td = str(tmp_path)
    build_segment(
        pa.table({"content": docs}), seg_id=0, doc_base=0, out_dir=td,
        analyzer=__import__("lucene_net_ray.functions.analysis", fromlist=["Analyzer"]).Analyzer(kind="whitespace"),
    )
    r = SegmentReader(td + "/seg000000")
    assert "" not in set(r.terms.tolist())
    import pyarrow.parquet as pq
    lens = pq.read_table(td + "/seg000000/docs.parquet", columns=["field_len"]).column("field_len").to_pylist()
    assert lens == [len(d.split()) for d in docs]


def test_phrase_parse_respects_analyzer(tmp_path):
    """ADVICE r1: quoted phrases must analyze with the passed analyzer, not
    the standard chain (whitespace keeps case + stopwords)."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.query import PhraseQuery, parse_query

    q = parse_query('"The Quick FOX"', analyzer=Analyzer(kind="whitespace"))
    assert isinstance(q, PhraseQuery)
    assert q.terms == ("The", "Quick", "FOX")
    # standard chain still lowercases and drops the stopword, with a gap
    q2 = parse_query('"The Quick FOX"')
    assert q2.terms == ("quick", "fox")
    assert q2.term_positions() == (1, 2)


def test_msm_exceeding_should_count_matches_nothing(tmp_path):
    """ADVICE r1: minNrShouldMatch > optional clause count matches nothing."""
    docs = ["alpha beta", "alpha gamma", "beta gamma"]
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": docs}), idx)
    s = Searcher(meta, use_actors=False)
    q = BooleanQuery(
        clauses=(
            BooleanClause(TermQuery(term="alpha"), "MUST"),
            BooleanClause(TermQuery(term="beta"), "SHOULD"),
        ),
        min_should_match=2,
    )
    assert s.count(q) == 0
    assert s.search(q, k=5) == []
    # msm == shoulds still works
    q_ok = BooleanQuery(
        clauses=(
            BooleanClause(TermQuery(term="alpha"), "MUST"),
            BooleanClause(TermQuery(term="beta"), "SHOULD"),
        ),
        min_should_match=1,
    )
    assert s.count(q_ok) == 1


def test_unknown_field_raises(tmp_path):
    """ADVICE r1: 'title:foo' must not silently search the content field."""
    docs = ["alpha beta"]
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": docs}), idx)
    s = Searcher(meta, use_actors=False)
    with pytest.raises(ValueError, match="title"):
        s.search(parse_query("title:alpha"), k=5)
    assert s.count(TermQuery(field="content", term="alpha")) == 1


def test_clean_corpus_pipeline(tmp_path):
    import pyarrow.parquet as pq
    import ray.data

    from lucene_net_ray.stages.clean import clean_corpus

    texts = ["the good long content is here with words"] * 3 + [
        "the unique document one is here to stay",
        "the unique document two is here to stay",
        "!!! ??? ...",  # no alphanumerics, no stopwords -> quality ~0
    ]
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))), "text": texts}),
        str(src / "d.parquet"),
    )
    out = str(tmp_path / "cleaned")
    res = clean_corpus(str(src), out, min_quality=0.1, dedup=True)
    assert res["rows_in"] == 6
    cleaned = ray.data.read_parquet(out).take_all()
    ids = sorted(r["doc_id"] for r in cleaned)
    # dup texts collapse to doc 0; punctuation-only doc dropped by quality
    assert ids == [0, 3, 4]
    assert res["rows_kept"] == 3
    assert all("quality" in r for r in cleaned)


def test_regexp_query(tmp_path):
    """RegexpQuery: anchored regex over the term dict, constant-score rewrite
    (reference Search/RegexpQuery.cs:49)."""
    from lucene_net_ray.query import PrefixQuery, RegexpQuery

    docs = ["spark spork talk", "spk speak walking", "nothing here", "spook spk zoo"]
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(pa.table({"content": docs}), idx, target_rows_per_segment=2)
    s = Searcher(meta, use_actors=False)
    assert s.count(RegexpQuery(pattern="sp[a-z]*k")) == 3  # docs 0,1,3
    assert s.count(RegexpQuery(pattern="z.*")) == 1
    assert s.count(RegexpQuery(pattern="sp.*")) == s.count(PrefixQuery(prefix="sp"))
    # anchored: 'alk' matches nothing even though walk/talk contain it
    assert s.count(RegexpQuery(pattern="alk")) == 0
    # parser syntax + boolean composition
    assert s.count(parse_query("+/sp[a-z]*k/ -zoo")) == 2
    hits = s.search(RegexpQuery(pattern="sp[a-z]*k", boost=2.5), k=5)
    assert all(np.float32(sc) == np.float32(2.5) for _, sc in hits)  # constant score
