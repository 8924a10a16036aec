"""Levenshtein-automaton fuzzy expansion (FuzzyTermsEnum.cs:48 /
LevenshteinAutomata.cs:36 analog): the automaton walk must produce EXACTLY
the plain-DP match set, and on the merged layout it must expand fuzzy
queries without reading non-covering parts (manifest-bounds pruning)."""

import random

import numpy as np
import pytest

from lucene_net_ray.functions.lev_automaton import LevenshteinDFA
from lucene_net_ray.pipelines.scorer import (
    _edit_distances_vectorized,
    _fuzzy_matches_blocked,
    expand_multiterm,
)


def _dp_matches(base, terms, k):
    d = _edit_distances_vectorized(base, terms, k)
    return [str(t) for t in terms[d <= k]]


def test_next_valid_string_basics():
    dfa = LevenshteinDFA("abc", 1)
    # accepted strings are returned unchanged
    for s in ("abc", "ab", "abcd", "bc", "xbc", "abx"):
        assert dfa.next_valid_string(s) == s, s
    # rejected strings advance to the smallest accepted >= s
    assert dfa.next_valid_string("abd") == "abd"  # substitution c->d
    nxt = dfa.next_valid_string("zz")
    assert nxt is not None and nxt > "zz"
    # exhausted above the last accepted string
    assert LevenshteinDFA("a", 0).next_valid_string("b") is None


def test_exact_distance_zero():
    dfa = LevenshteinDFA("term", 0)
    terms = np.array(["te", "term", "terms", "zz"])
    assert dfa.matches_in_sorted(terms) == ["term"]


@pytest.mark.parametrize("k", [1, 2])
def test_walk_equals_dp_random_vocab(k):
    random.seed(42 + k)
    vocab = sorted(
        set(
            "".join(random.choice("abcdef") for _ in range(random.randint(1, 9)))
            for _ in range(3000)
        )
    )
    terms = np.array(vocab)
    for _ in range(25):
        base = "".join(random.choice("abcdef") for _ in range(random.randint(1, 8)))
        dfa = LevenshteinDFA(base, k)
        assert dfa.matches_in_sorted(terms) == _dp_matches(base, terms, k), base


@pytest.mark.parametrize("k", [1, 2])
def test_blocked_hybrid_equals_dp(k):
    random.seed(7 + k)
    vocab = sorted(
        set(
            "".join(random.choice("abcdefghijklmnop") for _ in range(random.randint(2, 11)))
            for _ in range(20000)
        )
    )
    terms = np.array(vocab)
    for base in ("abcdefg", "ponm", "aaaa", "nopqrs"):
        dfa = LevenshteinDFA(base, k)
        matched: dict[str, int] = {}
        _fuzzy_matches_blocked(dfa, base, terms, k, matched, block=512)
        d = _edit_distances_vectorized(base, terms, k)
        want = {str(t): int(x) for t, x in zip(terms[d <= k], d[d <= k])}
        assert matched == want, base


def test_can_match_range_pruning():
    dfa = LevenshteinDFA("qqqzz", 1)
    # narrow ranges far from the neighborhood are vetoed
    assert not dfa.can_match_range("aaa", "aar")
    assert not dfa.can_match_range("zza", "zzb")
    # ranges containing the base (or a 1-edit neighbor) are kept
    assert dfa.can_match_range("qqa", "qqz")
    assert dfa.can_match_range("pqqqzz", "pr")  # front-insert neighbor


def test_merged_fuzzy_uses_automaton_pruning(tmp_path):
    """Unbounded fuzzy (prefix_length=0) on the merged layout: no vocab
    materialization AND non-covering parts are never read."""
    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.merge import MergedIndexReader, merge_index
    from lucene_net_ray.query import FuzzyQuery
    from lucene_net_ray.sources.corpus import generate_corpus
    from lucene_net_ray.state.segment import SegmentReader
    from lucene_net_ray.state.index import IndexMeta

    corpus = generate_corpus(400, seed=33)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=100)
    merged = str(tmp_path / "merged")
    merge_index(idx, merged, bucket_size=2)

    r = MergedIndexReader(merged)
    q = FuzzyQuery(field="content", term="query", max_edits=1, prefix_length=0)
    got = dict(expand_multiterm(r, q))
    # parity with the segmented expansion (DP path over resident dicts)
    seg_matches: dict[str, float] = {}
    for d in IndexMeta(idx).segment_dirs:
        seg_matches.update(dict(expand_multiterm(SegmentReader(d), q)))
    assert got == {t: b for t, b in sorted(seg_matches.items())} or set(got) == set(seg_matches)
    assert "query" in got
    # scale guarantees: vocabulary never materialized, and the automaton
    # veto skipped at least one part (the dict spans a..z prefixes while a
    # 1-edit neighborhood of "query" cannot cover them all)
    assert r._terms_cache is None
    assert len(r.parts.entries) > 2
    assert r.parts.parts_read < len(r.parts.entries)
