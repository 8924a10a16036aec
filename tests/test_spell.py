"""Classic SpellChecker + string distances (Suggest/Spell analogs; mirrors
Lucene TestSpellChecker / TestJaroWinklerDistance / TestNGramDistance hit
shapes)."""

import pyarrow as pa
import pytest
import ray.data

from lucene_net_ray.pipelines.spell import (
    SpellChecker,
    jaro_winkler_distance,
    levenstein_distance,
    ngram_distance,
)

WORDS = [
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "twenty", "twenty-one", "world", "working", "word", "wording",
]


@pytest.fixture(scope="module")
def checker(tmp_path_factory):
    tbl = pa.table({"word": WORDS, "freq": [i + 1 for i in range(len(WORDS))]})
    return SpellChecker(
        ray.data.from_arrow(tbl),
        store_dir=str(tmp_path_factory.mktemp("spell")),
        freq_column="freq",
    )


def test_distances_identity_and_symmetry():
    for fn in (levenstein_distance, jaro_winkler_distance, ngram_distance):
        assert fn("word", "word") == 1.0
        assert fn("", "") == 1.0
        assert abs(fn("kitten", "sitting") - fn("sitting", "kitten")) < 1e-6
        assert 0.0 <= fn("abc", "xyz") <= 1.0


def test_levenstein_known_value():
    # kitten -> sitting: 3 edits over max len 7
    assert abs(levenstein_distance("kitten", "sitting") - (1 - 3 / 7)) < 1e-9


def test_jaro_winkler_known_values():
    # the canonical Winkler examples
    assert abs(jaro_winkler_distance("martha", "marhta") - 0.9611) < 1e-3
    assert abs(jaro_winkler_distance("dwayne", "duane") - 0.84) < 1e-2
    assert jaro_winkler_distance("abc", "abc") == 1.0
    assert jaro_winkler_distance("abc", "xyz") == 0.0


def test_ngram_distance_orders_by_similarity():
    assert ngram_distance("word", "word") == 1.0
    assert ngram_distance("word", "wird") > ngram_distance("word", "xyzzy")


def test_suggest_similar_basic(checker):
    got = checker.suggest_similar("fvie", 2)
    assert got and got[0][0] == "five"
    # tow->two is 2 Levenshtein edits over len 3 (0.33 < default 0.5
    # accuracy, faithfully filtered); admit it by relaxing accuracy
    got = checker.suggest_similar("tow", 2, accuracy=0.3)
    assert "two" in [w for w, _ in got]
    got = checker.suggest_similar("wrod", 3)
    assert got[0][0] == "word"


def test_suggest_never_suggests_itself(checker):
    got = checker.suggest_similar("word", 5)
    assert "word" not in [w for w, _ in got]


def test_suggest_accuracy_gate(checker):
    assert checker.suggest_similar("zzzzqqq", 5) == []
    # loose accuracy admits weaker candidates than the default 0.5
    loose = checker.suggest_similar("wrking", 5, accuracy=0.3)
    tight = checker.suggest_similar("wrking", 5, accuracy=0.9)
    assert len(loose) >= len(tight)
    assert "working" in [w for w, _ in loose]


def test_suggest_min_freq_gate(checker):
    # 'wording' (freq 16) passes a high freq gate; 'word' (freq 15) passes
    # too, but 'one' (freq 1) never would
    got = checker.suggest_similar("wordin", 5, min_freq=16)
    assert [w for w, _ in got] == ["wording"]


def test_from_searcher_dictionary(tmp_path):
    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.search import Searcher

    tbl = pa.table({"content": ["alpha beta gamma", "alpha delta", "beta gamma"]})
    idx = str(tmp_path / "idx")
    build_index_from_table(tbl, idx, target_rows_per_segment=2)
    s = Searcher(idx, use_actors=False)
    sc = SpellChecker.from_searcher(s, store_dir=str(tmp_path / "spell"))
    got = sc.suggest_similar("alpah", 2)
    assert got and got[0][0] == "alpha"


def test_spell_store_routes_not_scans(tmp_path):
    words = [f"word{i:04d}" for i in range(2000)]
    tbl = pa.table({"word": words})
    sc = SpellChecker(
        ray.data.from_arrow(tbl).repartition(8), store_dir=str(tmp_path / "sp")
    )
    n_parts = len(sc._store.entries)
    assert n_parts >= 4
    sc._store.parts_read = 0
    got = sc.suggest_similar("word1999x", 2)
    assert got and got[0][0] == "word1999"
    # ~a dozen gram reads, each covering a part or two — never the store
    assert sc.parts_read < 3 * n_parts
