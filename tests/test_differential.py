"""Differential test: seeded random query trees, six index layouts, one oracle.

Each tree mixes nested booleans (MUST / SHOULD / MUST_NOT, min_should_match,
boosts), term, exact-phrase and sloppy-phrase leaves, prefix and wildcard
expansions, DisMax and ConstantScore. Every tree must give the same top-k
(doc ids in order, float32 scores bit for bit) and the same count on:

  * the in-process ``Searcher`` over a 1-segment index
  * the in-process ``Searcher`` over a multi-segment index of the same docs
  * the actor-backed ``Searcher`` (2 segment-group actors, the serving
    default) over that multi-segment index
  * ``MergedSearcher`` over the merged multi-segment index
  * ``ShardedMergedSearcher`` with 2 range actors over that merged index
  * ``MultiFieldSearcher`` (2 groups) over a two-field index of the same docs,
    whose ``content`` field is the corpus and whose ``title`` field holds
    other text, so per-field stats must not mix

and the same as ``oracle.OracleIndex``. One more layout, over its own corpus
and oracle, has two segment groups with disjoint vocabularies, so most
queries skip a group (``can_match``); its in-process and actor searchers
must still equal the oracle, and on every layout a group that ``can_match``
rules out must return no hits and count 0. The oracle has no fuzzy path, so a
fuzzy tree is first rewritten by the searcher (every fuzzy leaf, at any
depth, becomes its index-wide term expansion) and the term-only tree goes to
the oracle. A fuzzy leaf wrapped in a non-boolean node must score exactly as
the bare leaf does.

``batch_search`` scores a whole batch at once per reader, so on every
layout, and on one more with tombstones, a seeded batch of flat ORs and
ineligible shapes must give each query exactly ``search``'s hits.
"""

import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.merge import MergedSearcher, ShardedMergedSearcher, merge_index
from lucene_net_ray.pipelines.multifield import MultiFieldSearcher, build_multi_field_index
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import (
    BooleanClause,
    BooleanQuery,
    ConstantScoreQuery,
    BoostingQuery,
    DisjunctionMaxQuery,
    FilteredQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
    QueryFilter,
    TermQuery,
    WildcardQuery,
)
from lucene_net_ray.state.deletes import write_deletes

# shared prefixes so prefix/wildcard/fuzzy leaves expand to several terms;
# no English stopwords, so analyzed tokens are exactly these words
VOCAB = (
    "alp alpha alpine alps bravo brave brass charlie chart charm delta "
    "deltas dell echo echoes foxtrot fox golf gold hotel hot india indigo "
    "kilo kite lima lime mike mild oscar papa paper quebec romeo sierra"
).split()
N_DOCS = 240
K = 15


def _corpus(seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** 0.9 for i in range(len(VOCAB))]  # Zipf-ish
    return [
        " ".join(rng.choices(VOCAB, weights, k=rng.randint(3, 14)))
        for _ in range(N_DOCS)
    ]


class _TreeGen:
    """Seeded random query trees over the corpus vocabulary. Phrases are cut
    from real docs so they match; sloppy phrases use distinct terms (the
    oracle's sloppy path has no repeated-term handling)."""

    def __init__(self, docs: list[str], seed: int, fuzzy: bool = False):
        self.rng = random.Random(seed)
        self.toks = [d.split() for d in docs]
        self.fuzzy = fuzzy

    def boost(self, choices=(1.0, 1.0, 1.0, 2.0, 0.5)) -> float:
        return self.rng.choice(choices)

    def phrase(self) -> PhraseQuery:
        rng = self.rng
        toks = rng.choice([t for t in self.toks if len(t) >= 3])
        n = rng.randint(2, 3)
        i = rng.randrange(len(toks) - n + 1)
        terms = toks[i : i + n]
        if rng.random() < 0.5 or len(set(terms)) < len(terms):
            return PhraseQuery(terms=tuple(terms), boost=self.boost())
        if rng.random() < 0.3:
            terms = terms[::-1]
        return PhraseQuery(terms=tuple(terms), slop=rng.randint(1, 3), boost=self.boost())

    def leaf(self):
        rng = self.rng
        kinds = ["term"] * 4 + ["phrase"] * 2 + ["prefix", "wildcard"]
        if self.fuzzy:
            kinds += ["fuzzy"] * 3
        kind = rng.choice(kinds)
        word = rng.choice(VOCAB)
        if kind == "term":
            return TermQuery(term=word, boost=self.boost((1.0, 1.0, 2.5, 0.5)))
        if kind == "phrase":
            return self.phrase()
        if kind == "prefix":
            return PrefixQuery(prefix=word[: rng.randint(1, 3)], boost=self.boost())
        if kind == "wildcard":
            pat = rng.choice([word[:2] + "*", word[0] + "?" + word[2:], "*" + word[-2:]])
            return WildcardQuery(pattern=pat, boost=self.boost())
        typo = list(word)
        typo[rng.randrange(len(typo))] = rng.choice("aeiouxz")
        return FuzzyQuery(
            term="".join(typo), max_edits=rng.randint(1, 2), prefix_length=rng.randint(0, 1)
        )

    def tree(self, depth: int = 3):
        rng = self.rng
        if depth == 0 or rng.random() < 0.3:
            return self.leaf()
        kind = rng.choice(["bool", "bool", "bool", "dismax", "const"])
        if kind == "dismax":
            return DisjunctionMaxQuery(
                disjuncts=tuple(self.tree(depth - 1) for _ in range(rng.randint(2, 3))),
                tie_breaker=rng.choice([0.0, 0.1, 0.5, 1.0]),
                boost=self.boost(),
            )
        if kind == "const":
            return ConstantScoreQuery(query=self.tree(depth - 1), boost=self.boost((1.0, 3.0)))
        occurs = rng.choices(["MUST", "SHOULD", "MUST_NOT"], [0.35, 0.45, 0.2], k=rng.randint(1, 4))
        n_should = occurs.count("SHOULD")
        msm = rng.randint(0, n_should + 1) if n_should and rng.random() < 0.4 else 0
        return BooleanQuery(
            clauses=tuple(BooleanClause(self.tree(depth - 1), o) for o in occurs),
            min_should_match=msm,
            boost=self.boost(),
        )


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    docs = _corpus()
    table = pa.table({"content": docs})
    one = str(tmp_path_factory.mktemp("one_seg"))
    build_index_from_table(table, one, target_rows_per_segment=10_000, index_options="positions")
    multi = str(tmp_path_factory.mktemp("multi_seg"))
    meta = build_index_from_table(table, multi, target_rows_per_segment=60, index_options="positions")
    assert len(meta.segment_dirs) >= 3
    merged = str(tmp_path_factory.mktemp("merged"))
    merge_index(multi, merged, bucket_size=2)
    sharded = ShardedMergedSearcher(merged, num_actors=2)
    assert len(sharded._actors) == 2
    src = tmp_path_factory.mktemp("mf_src")
    titles = [" ".join(d.split()[::-2]) for d in docs]
    pq.write_table(table.append_column("title", pa.array(titles)), str(src / "docs.parquet"), row_group_size=60)
    mf = str(tmp_path_factory.mktemp("multi_field"))
    build_multi_field_index(
        str(src), mf, fields=("content", "title"), target_rows_per_segment=60, index_options="positions"
    )
    searchers = {
        "searcher_1seg": Searcher(one, use_actors=False),
        "searcher_multiseg": Searcher(multi, use_actors=False),
        "searcher_actors": Searcher(multi, num_actors=2),
        "merged": MergedSearcher(merged),
        "sharded_merged": sharded,
        "multi_field": MultiFieldSearcher(mf, num_actors=2),
    }
    return docs, OracleIndex(docs), searchers


def _same(got, want, label):
    assert [d for d, _ in got] == [d for d, _ in want], label
    for (_, s1), (_, s2) in zip(got, want):
        assert np.float32(s1) == np.float32(s2), label


@pytest.mark.parametrize("seed", range(6))
def test_random_trees_match_oracle_on_every_layout(layouts, seed):
    docs, oracle, searchers = layouts
    gen = _TreeGen(docs, seed=1000 + seed)
    hit_trees = 0
    for i in range(30):
        q = gen.tree()
        want = oracle.top_k(q, K)
        want_count = oracle.count(q)
        hit_trees += bool(want)
        for name, s in searchers.items():
            label = f"seed={seed} tree={i} layout={name} q={q!r}"
            _same(s.search(q, k=K), want, label)
            assert s.count(q) == want_count, label
    assert hit_trees >= 10  # the generator must produce mostly-matching trees


@pytest.mark.parametrize("seed", range(2))
def test_random_fuzzy_trees_agree_across_layouts(layouts, seed):
    docs, _, searchers = layouts
    gen = _TreeGen(docs, seed=2000 + seed, fuzzy=True)
    base_name, base = next(iter(searchers.items()))
    for i in range(25):
        q = gen.tree()
        want, want_count = base.search(q, k=K), base.count(q)
        for name, s in searchers.items():
            label = f"seed={seed} tree={i} layout={name} vs {base_name} q={q!r}"
            _same(s.search(q, k=K), want, label)
            assert s.count(q) == want_count, label


@pytest.mark.parametrize("seed", range(2))
def test_random_fuzzy_trees_match_oracle_after_rewrite(layouts, seed):
    docs, oracle, searchers = layouts
    gen = _TreeGen(docs, seed=3000 + seed, fuzzy=True)
    base = searchers["searcher_1seg"]
    for i in range(25):
        q = gen.tree()
        rq, _stats = base._rewrite_and_stats(q)
        want, want_count = oracle.top_k(rq, K), oracle.count(rq)
        for name, s in searchers.items():
            label = f"seed={seed} tree={i} layout={name} q={q!r}"
            _same(s.search(q, k=K), want, label)
            assert s.count(q) == want_count, label


FUZZY_LEAVES = (
    FuzzyQuery(term="alpho", max_edits=1),
    FuzzyQuery(term="bravx", max_edits=2, prefix_length=1),
    FuzzyQuery(term="chatm", max_edits=1, boost=2.0),
)


@pytest.mark.parametrize("leaf", FUZZY_LEAVES, ids=lambda f: f.term)
def test_fuzzy_leaf_under_non_boolean_nodes(layouts, leaf):
    _, _, searchers = layouts
    wrapped = {
        "dismax": DisjunctionMaxQuery(disjuncts=(leaf,), tie_breaker=0.0),
        "boosting": BoostingQuery(match=leaf, context=TermQuery(term="absentterm"), demote=0.5),
        "filtered": FilteredQuery(query=leaf, filter=QueryFilter(query=MatchAllDocsQuery())),
    }
    for name, s in searchers.items():
        bare = s.search(leaf, k=K)
        assert bare and all(score > 0 for _, score in bare), name
        for kind, q in wrapped.items():
            label = f"layout={name} wrapper={kind} leaf={leaf!r}"
            _same(s.search(q, k=K), bare, label)
            assert s.count(q) == s.count(leaf), label


def _disjoint_corpus(seed: int = 11) -> list[str]:
    """Four 60-doc blocks drawn alternately from the even and the odd
    VOCAB words, so segments 0 and 2 (group 0 of two) share no term with
    segments 1 and 3 (group 1); shared prefixes span both halves."""
    rng = random.Random(seed)
    halves = (VOCAB[0::2], VOCAB[1::2])
    return [
        " ".join(rng.choices(halves[block % 2], k=rng.randint(3, 14)))
        for block in range(4)
        for _ in range(60)
    ]


@pytest.fixture(scope="module")
def disjoint(tmp_path_factory):
    docs = _disjoint_corpus()
    root = str(tmp_path_factory.mktemp("disjoint"))
    meta = build_index_from_table(
        pa.table({"content": docs}), root, target_rows_per_segment=60, index_options="positions"
    )
    assert len(meta.segment_dirs) == 4
    searchers = {
        "in_process": Searcher(root, num_actors=2, use_actors=False),
        "actors": Searcher(root, num_actors=2),
    }
    _terms, _dfs, present = searchers["in_process"]._df_table["content"]
    held = np.unpackbits(present, axis=1, count=2)
    assert (held.sum(axis=1) == 1).all() and held[:, 0].any() and held[:, 1].any()
    return docs, OracleIndex(docs), searchers


@pytest.mark.parametrize("seed", range(3))
def test_random_trees_match_oracle_on_disjoint_groups(disjoint, seed):
    docs, oracle, searchers = disjoint
    gen = _TreeGen(docs, seed=4000 + seed)
    skipped = {name: s.fanout["shards_skipped"] for name, s in searchers.items()}
    for i in range(30):
        q = gen.tree()
        want, want_count = oracle.top_k(q, K), oracle.count(q)
        for name, s in searchers.items():
            label = f"seed={seed} tree={i} layout={name} q={q!r}"
            _same(s.search(q, k=K), want, label)
            assert s.count(q) == want_count, label
    for name, s in searchers.items():
        assert s.fanout["shards_skipped"] > skipped[name], name


@pytest.mark.parametrize("seed", range(3))
def test_groups_ruled_out_hold_no_hits(layouts, disjoint, seed):
    """Soundness of can_match over random trees, fuzzy leaves included
    (after the rewrite): wherever it rules a group out, that group's own
    top_k and count return nothing."""
    docs, _, searchers = layouts
    d_docs, _, d_searchers = disjoint
    cases = [
        (docs, searchers["searcher_multiseg"]),
        (docs, searchers["multi_field"]),
        (d_docs, d_searchers["in_process"]),
    ]
    ruled_out = 0
    for tree_docs, s in cases:
        gen = _TreeGen(tree_docs, seed=5000 + seed, fuzzy=True)
        for i in range(30):
            q, stats = s._rewrite_and_stats(gen.tree())
            reach = s._can_match_shards(q)
            for g, group in enumerate(s.groups):
                if g not in reach:
                    ruled_out += 1
                    label = f"seed={seed} tree={i} group={g} q={q!r}"
                    assert group.top_k(q, stats, K) == [] and group.count(q, stats) == 0, label
    assert ruled_out >= 10


@pytest.fixture(scope="module")
def tombstoned(tmp_path_factory):
    """The layouts' corpus over 4 segments with every 7th doc deleted, in
    process and on 2 group actors."""
    root = str(tmp_path_factory.mktemp("tombstoned"))
    build_index_from_table(pa.table({"content": _corpus()}), root, target_rows_per_segment=60, index_options="positions")
    write_deletes(root, list(range(3, N_DOCS, 7)))
    return {"tombstoned_in_process": Searcher(root, num_actors=2, use_actors=False), "tombstoned_actors": Searcher(root, num_actors=2)}


def _or(*leaves, msm=0, boost=1.0):
    return BooleanQuery(clauses=tuple(BooleanClause(x, "SHOULD") for x in leaves), min_should_match=msm, boost=boost)


def _bulk_batch(docs: list[str], seed: int) -> list[tuple[str, object]]:
    """A seeded batch for batch_search: flat ORs of terms (some repeated,
    some boosted, some absent from the index) and bare terms, which the
    batch kernel scores, mixed with shapes it hands to top_k."""
    rng = random.Random(seed)
    words = VOCAB + ["zyzzyva", "qwxz"]

    def term(absent=False):
        word = rng.choice(["zyzzyva", "qwxz"] if absent else words)
        return TermQuery(term=word, boost=rng.choice((1.0, 1.0, 2.5, 0.5)))

    fixed = [
        TermQuery(term="alpha"),
        TermQuery(term="zyzzyva"),  # absent: no hits
        _or(TermQuery(term="bravo"), TermQuery(term="alpha"), TermQuery(term="bravo")),  # repeated term
        _or(TermQuery(term="lima", boost=2.5), TermQuery(term="oscar", boost=0.5), TermQuery(term="lima")),
        _or(term(absent=True), term(absent=True)),  # no term present
        _or(TermQuery(term="alpha"), term(absent=True), msm=1),
        _or(TermQuery(term="romeo"), TermQuery(term="sierra")),  # rare terms: fewer than k hits
        TermQuery(term="bravo", boost=0.0),  # scores 0 and still matches
        TermQuery(term="bravo", boost=-0.0),  # scores -0.0, not 0.0's
        TermQuery(term="alpha", boost=-1.0),  # every score below an unmatched doc's 0
        _or(TermQuery(term="alpha", boost=-1.0), TermQuery(term="bravo")),  # some scores below 0
        # shapes the kernel does not take
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="alpha"), "MUST"), BooleanClause(TermQuery(term="bravo"), "SHOULD"))),
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="alpha"), "SHOULD"), BooleanClause(TermQuery(term="bravo"), "MUST_NOT"))),
        _or(TermQuery(term="alpha"), TermQuery(term="bravo"), TermQuery(term="charlie"), msm=2),
        _or(TermQuery(term="alpha"), TermQuery(term="bravo"), boost=2.0),
        PhraseQuery(terms=tuple(docs[0].split()[:2])),
    ]
    gen = _TreeGen(docs, seed=seed)
    drawn = []
    for _ in range(28):
        kind = rng.random()
        if kind < 0.6:
            drawn.append(_or(*(term(absent=rng.random() < 0.1) for _ in range(rng.randint(1, 5)))))
        elif kind < 0.8:
            drawn.append(term())
        else:
            drawn.append(gen.tree(depth=2))
    batch = fixed + drawn
    rng.shuffle(batch)
    return [(f"q{i}", q) for i, q in enumerate(batch)]


def _bulk_layouts(layouts, disjoint, tombstoned):
    """(corpus, name, searcher) of every layout."""
    out = [(layouts[0], name, s) for name, s in layouts[2].items()]
    out += [(disjoint[0], f"disjoint_{name}", s) for name, s in disjoint[2].items()]
    return out + [(layouts[0], name, s) for name, s in tombstoned.items()]


def _batch_equals_search(docs, name, s, seed):
    batch = _bulk_batch(docs, seed)
    for k in (1, K, 1000):  # 1000: more than any query matches
        got = s.batch_search(batch, k=k)
        for qname, q in batch:
            want = [(d, repr(x)) for d, x in s.search(q, k=k)]
            assert [(d, repr(x)) for d, x in got[qname]] == want, f"layout={name} k={k} q={q!r}"


@pytest.mark.parametrize("seed", range(3))
def test_batch_search_equals_search_on_every_layout(layouts, disjoint, tombstoned, seed):
    """batch_search scores a batch at once per reader (shared term scores,
    one bucket table, one stats dict), yet every query's hits are exactly
    search's: the same docs in the same order and the same float32 scores,
    compared by repr."""
    for docs, name, s in _bulk_layouts(layouts, disjoint, tombstoned):
        _batch_equals_search(docs, name, s, 6000 + seed)


@pytest.mark.parametrize("cells", [1, 200])
def test_batch_search_small_budgets(layouts, disjoint, tombstoned, monkeypatch, cells):
    """Small memory budgets give the same hits: no bytes for shared term
    scores (they are dropped before every query, as once a large segment's
    pass the budget), and a batch table of one row per table (the
    per-query dense path of a very large segment) or of 3 rows on the
    60-doc segments, ranked whenever full. Only the in-process layouts see
    the patched budgets."""
    from lucene_net_ray.pipelines import scorer

    monkeypatch.setattr(scorer, "_BATCH_SCORE_BYTES", 0)
    monkeypatch.setattr(scorer, "_BATCH_CELLS", cells)
    for docs, name, s in _bulk_layouts(layouts, disjoint, tombstoned):
        if not s.use_actors:
            _batch_equals_search(docs, name, s, 6100)
