"""AnalyzingSuggester + WordBreakSpellChecker analogs."""

import gc
import glob
import os

import pyarrow as pa
import pytest
import ray.data

from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.pipelines.suggest import (
    AnalyzingSuggester,
    suggest_word_breaks,
    suggest_word_combinations,
)


def test_analyzing_suggester():
    rows = [
        {"suggestion": "The Big Lebowski", "weight": 90},
        {"suggestion": "Big Fish", "weight": 70},
        {"suggestion": "big trouble", "weight": 50},
        {"suggestion": "Smallville", "weight": 99},
    ]
    sg = AnalyzingSuggester(ray.data.from_items(rows))
    # 'the' is a stopword: analyzed key of "The Big Lebowski" starts with 'big'
    got = sg.lookup("big", k=3)
    assert got == [("The Big Lebowski", 90), ("Big Fish", 70), ("big trouble", 50)]
    # analyzed lookup: case/stopwords in the prefix are normalized too
    assert sg.lookup("The BIG", k=2) == [("The Big Lebowski", 90), ("Big Fish", 70)]
    assert sg.lookup("zzz") == []


def test_word_break_spellchecker(tmp_path):
    docs = ["lucene net engine", "net search engine", "whole lucenenet word here"]
    idx = str(tmp_path / "idx")
    build_index_from_table(pa.table({"content": docs}), idx)
    s = Searcher(idx, use_actors=False)
    # 'lucenenet' splits into in-dictionary 'lucene' + 'net'
    breaks = suggest_word_breaks(s, "lucenenet")
    assert breaks and breaks[0][0] == ("lucene", "net")
    # adjacent 'lucene net' combines into the in-dictionary 'lucenenet'
    combos = suggest_word_combinations(s, ["lucene", "net", "engine"])
    assert combos and combos[0][0] == "lucenenet"
    assert suggest_word_breaks(s, "qqqqqq") == []


def test_freetext_suggester_backoff():
    """FreeTextSuggester analog: highest-order context wins; unseen contexts
    back off with ALPHA; partial trailing token filters by prefix."""
    from lucene_net_ray.pipelines.suggest import FreeTextSuggester

    rows = [
        {"text": "foo bar baz"},
        {"text": "foo bar boo"},
        {"text": "foo bar baz"},
        {"text": "qux bar zap"},
    ]
    sg = FreeTextSuggester(ray.data.from_items(rows), grams=3)
    # trigram context "foo bar" -> baz (2/3) over boo (1/3)
    got = sg.lookup("foo bar ", k=3)
    assert [t for t, _ in got][:2] == ["baz", "boo"]
    assert abs(got[0][1] - 2 / 3) < 1e-9
    # zap only follows "qux bar": after "foo bar" it appears via backoff to
    # the bigram "bar *" context, weighted by ALPHA
    zap = dict(got).get("zap")
    assert zap is not None and zap < got[1][1]
    # partial token filters: "foo b" -> completions of b* after "foo"
    got2 = sg.lookup("foo b", k=5)
    assert [t for t, _ in got2][:1] == ["bar"]
    assert all(t.startswith("b") for t, _ in got2)
    # unseen context backs off to unigrams
    got3 = sg.lookup("unseen words here zz", k=2)
    assert got3 == [] or all(t.startswith("zz") for t, _ in got3)
    got4 = sg.lookup("totally unseen ", k=2)
    assert len(got4) == 2  # unigram fallback still suggests something


# ---------------------------------------------------------------------------
# infix suggesters (parquet-backed, token-range-routed)
# ---------------------------------------------------------------------------

def _infix_fixture(tmp_path, cls=None, **kw):
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingInfixSuggester

    cls = cls or AnalyzingInfixSuggester
    tbl = pa.table(
        {
            "suggestion": [
                "a penny saved is a penny earned",
                "lend me your ear",
                "pay it forward",
                "penny wise pound foolish",
            ],
            "weight": [10, 8, 5, 7],
        }
    )
    return cls(
        ray.data.from_arrow(tbl),
        store_dir=str(tmp_path / "infix"),
        analyzer=Analyzer(stop_words=None),
        **kw,
    )


def test_infix_prefix_matches_any_token(tmp_path):
    """Mirrors AnalyzingInfixSuggesterTest.testBasic: 'ear' prefix-matches a
    token ANYWHERE in the suggestion, ranked by weight desc."""
    s = _infix_fixture(tmp_path)
    got = s.lookup("ear", k=10, do_highlight=True)
    assert [(r["surface"], r["weight"]) for r in got] == [
        ("a penny saved is a penny earned", 10),
        ("lend me your ear", 8),
    ]
    assert got[0]["highlighted"] == "a penny saved is a penny <b>ear</b>ned"
    assert got[1]["highlighted"] == "lend me your <b>ear</b>"


def test_infix_trailing_separator_means_exact(tmp_path):
    """'ear ' (trailing space) is an EXACT term — 'earned' no longer matches
    (reference: lastToken endOffset < key length -> TermQuery)."""
    s = _infix_fixture(tmp_path)
    got = s.lookup("ear ", k=10)
    assert [r["surface"] for r in got] == ["lend me your ear"]


def test_infix_all_terms_required_vs_should(tmp_path):
    s = _infix_fixture(tmp_path)
    # MUST: both 'penny' and prefix 'ear' -> only the proverb
    got = s.lookup("penny ear", k=10)
    assert [r["surface"] for r in got] == ["a penny saved is a penny earned"]
    # SHOULD: any term matches, still weight-ordered
    got = s.lookup("penny ear", k=10, all_terms_required=False)
    assert [r["surface"] for r in got] == [
        "a penny saved is a penny earned",
        "lend me your ear",
        "penny wise pound foolish",
    ]


def test_infix_highlight_exact_token_bolds_whole_word(tmp_path):
    s = _infix_fixture(tmp_path)
    got = s.lookup("penny ", k=1, do_highlight=True)
    assert got[0]["highlighted"] == "a <b>penny</b> saved is a <b>penny</b> earned"


def test_infix_lookup_routes_not_scans(tmp_path):
    """Laziness: with a many-part token store, a lookup touches only the
    parts whose [min,max] token range covers the query token."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingInfixSuggester

    words = [f"word{i:03d} tail{i % 7}" for i in range(400)]
    tbl = pa.table({"suggestion": words, "weight": list(range(400))})
    s = AnalyzingInfixSuggester(
        ray.data.from_arrow(tbl).repartition(8),
        store_dir=str(tmp_path / "many"),
        analyzer=Analyzer(stop_words=None),
    )
    n_parts = len(s._tokens.entries)
    assert n_parts >= 4  # the store actually is partitioned
    before = s.parts_read
    got = s.lookup("word399 ", k=3)
    assert [r["surface"] for r in got] == ["word399 tail0"]
    # one token -> covering token parts + suggestion fetch, never all parts
    assert s.parts_read - before < n_parts


def test_infix_reopen_from_disk(tmp_path):
    """The store is the durable artifact: a fresh suggester object opens the
    directory without the dataset and serves identical results."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingInfixSuggester

    s1 = _infix_fixture(tmp_path)
    s2 = AnalyzingInfixSuggester(
        store_dir=str(tmp_path / "infix"), analyzer=Analyzer(stop_words=None)
    )
    assert s2.lookup("pen", k=5) == s1.lookup("pen", k=5)


def test_blended_infix_position_blend(tmp_path):
    """BlendedInfixSuggester: equal weights rank by the matched token's
    position (POSITION_LINEAR: weight*(1-0.10*pos))."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import BlendedInfixSuggester

    tbl = pa.table(
        {
            "suggestion": [
                "star wars episode five",
                "the wars of roses history",
                "civil wars inside stories",
            ],
            "weight": [10, 10, 10],
        }
    )
    s = BlendedInfixSuggester(
        ray.data.from_arrow(tbl),
        store_dir=str(tmp_path / "blend"),
        analyzer=Analyzer(stop_words=None),
    )
    got = s.lookup("wars", k=3)
    # positions of 'wars': 1 (star), 1 (the wars...), 1 (civil) -> all pos 1?
    # 'the wars' analyzed without stops: the=0, wars=1; star=0, wars=1;
    # civil=0, wars=1 -> tie; use distinct positions instead via 2nd lookup
    assert all(abs(r["score"] - 10 * 0.9) < 1e-9 for r in got)
    got = s.lookup("episode", k=3)
    assert [r["surface"] for r in got] == ["star wars episode five"]
    assert abs(got[0]["score"] - 10 * (1 - 0.10 * 2)) < 1e-9
    # reciprocal blender
    s2 = BlendedInfixSuggester(
        store_dir=str(tmp_path / "blend"),
        analyzer=Analyzer(stop_words=None),
        blender_type="position_reciprocal",
    )
    got = s2.lookup("episode", k=3)
    assert abs(got[0]["score"] - 10 / 3.0) < 1e-9


def test_prefix_suggesters_route_not_scan(tmp_path):
    """Round-4 storage move: Analyzing/Fuzzy/FreeText suggesters live on
    key-sorted parquet, not driver arrays — a lookup touches only parts whose
    key range covers the query prefix."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingSuggester, FreeTextSuggester

    tbl = pa.table(
        {
            "suggestion": [f"word{i:03d} extra" for i in range(400)],
            "weight": list(range(400)),
        }
    )
    s = AnalyzingSuggester(
        ray.data.from_arrow(tbl).repartition(8),
        store_dir=str(tmp_path / "an"),
        analyzer=Analyzer(stop_words=None),
    )
    n_parts = len(s._store.entries)
    assert n_parts >= 4
    s._store.parts_read = 0
    got = s.lookup("word399", k=3)
    assert got and got[0][0] == "word399 extra"
    assert s.parts_read < n_parts

    docs = pa.table({"text": [f"alpha{i % 50} beta{i % 50} gamma{i % 50}" for i in range(400)]})
    f = FreeTextSuggester(
        ray.data.from_arrow(docs).repartition(8),
        store_dir=str(tmp_path / "ft"),
        analyzer=Analyzer(stop_words=None),
    )
    n_parts = len(f._store.entries)
    assert n_parts >= 2
    f._store.parts_read = 0
    got = f.lookup("alpha7 bet")
    assert got and got[0][0] == "beta7"
    assert f.parts_read < 3 * n_parts  # a few routed reads, not full scans


def test_prefix_suggesters_reopen_from_disk(tmp_path):
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingSuggester, FuzzySuggester

    tbl = pa.table({"suggestion": ["lend me your ear", "pay it forward"], "weight": [8, 5]})
    a1 = AnalyzingSuggester(
        ray.data.from_arrow(tbl), store_dir=str(tmp_path / "st"),
        analyzer=Analyzer(stop_words=None),
    )
    a2 = AnalyzingSuggester(store_dir=str(tmp_path / "st"), analyzer=Analyzer(stop_words=None))
    assert a2.lookup("lend", k=2) == a1.lookup("lend", k=2) == [("lend me your ear", 8)]
    fz = FuzzySuggester(store_dir=str(tmp_path / "st"), analyzer=Analyzer(stop_words=None))
    assert fz.lookup("lond", k=2) == [("lend me your ear", 8)]


def test_infix_contexts_filter(tmp_path):
    """Lookup(key, contexts, ...) semantics: only suggestions tagged with an
    intersecting context label return; fetch stays weight-ordered."""
    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingInfixSuggester

    tbl = pa.table(
        {
            "suggestion": ["lend me your ear", "earned income", "early bird", "ear ring"],
            "weight": [10, 9, 8, 7],
            "cat": [["books"], ["finance"], ["books", "idioms"], ["jewelry"]],
        }
    )
    s = AnalyzingInfixSuggester(
        ray.data.from_arrow(tbl),
        store_dir=str(tmp_path / "ctx"),
        analyzer=Analyzer(stop_words=None),
        contexts_column="cat",
    )
    all_hits = s.lookup("ear", k=10)
    assert [r["weight"] for r in all_hits] == [10, 9, 8, 7]
    books = s.lookup("ear", k=10, contexts={"books"})
    assert [r["surface"] for r in books] == ["lend me your ear", "early bird"]
    multi = s.lookup("ear", k=10, contexts={"finance", "jewelry"})
    assert [r["surface"] for r in multi] == ["earned income", "ear ring"]
    assert s.lookup("ear", k=10, contexts={"nonexistent"}) == []
    import pytest as _pt

    s2 = AnalyzingInfixSuggester(
        ray.data.from_arrow(tbl.select(["suggestion", "weight"])),
        store_dir=str(tmp_path / "noctx"),
        analyzer=Analyzer(stop_words=None),
    )
    with _pt.raises(ValueError):
        s2.lookup("ear", contexts={"books"})


def test_crashed_build_does_not_poison_rebuild(tmp_path):
    """A build that died after writing part files but before committing its
    manifest leaves them in parts/; the rebuild must not serve them."""
    import pyarrow.parquet as pq

    d = tmp_path / "st"
    (d / "parts").mkdir(parents=True)
    pq.write_table(
        pa.table({"key": ["ghost entry"], "surface": ["Ghost Entry"], "weight": [99]}),
        d / "parts" / "crashed_000000.parquet",
    )
    rows = [{"suggestion": "good entry", "weight": 5}]
    sg = AnalyzingSuggester(ray.data.from_items(rows), store_dir=str(d))
    assert sg.lookup("ghost") == []
    assert sg.lookup("good") == [("good entry", 5)]
    assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "parts"]


def test_infix_crashed_build_does_not_poison_rebuild(tmp_path):
    """The same for the infix suggester's tokens/ and suggestions/ stores."""
    import pyarrow.parquet as pq

    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.pipelines.suggest import AnalyzingInfixSuggester

    d = tmp_path / "infix"
    (d / "tokens").mkdir(parents=True)
    (d / "suggestions").mkdir()
    pq.write_table(
        pa.table({"token": ["ghost"], "pos": [0], "sid": [7], "weight": [99]}),
        d / "tokens" / "crashed_000000.parquet",
    )
    pq.write_table(
        pa.table({"sid": [7], "surface": ["Ghost Entry"], "weight": [99]}),
        d / "suggestions" / "crashed_000000.parquet",
    )
    tbl = pa.table({"suggestion": ["good entry"], "weight": [5]})
    s = AnalyzingInfixSuggester(
        ray.data.from_arrow(tbl), store_dir=str(d), analyzer=Analyzer(stop_words=None)
    )
    assert s.lookup("ghost", k=3) == []
    assert [r["surface"] for r in s.lookup("entry", k=3)] == ["good entry"]


def _own_store_cases():
    from lucene_net_ray.pipelines.spell import SpellChecker
    from lucene_net_ray.pipelines.suggest import FreeTextSuggester, FuzzySuggester

    sugg = [{"suggestion": "big fish", "weight": 7}, {"suggestion": "small fry", "weight": 3}]
    return {
        "analyzing": (AnalyzingSuggester, sugg, "lnr_suggest_"),
        "fuzzy": (FuzzySuggester, sugg, "lnr_suggest_"),
        "freetext": (FreeTextSuggester, [{"text": "foo bar baz"}, {"text": "foo bar"}], "lnr_freetext_"),
        "spell": (SpellChecker, [{"word": "word"}, {"word": "world"}], "lnr_spell_"),
    }


@pytest.mark.parametrize("kind", ["analyzing", "fuzzy", "freetext", "spell"])
def test_own_store_is_removed_with_the_object(kind, tmp_path):
    """A store made without ``store_dir`` is removed once its object is
    collected; a caller's ``store_dir`` stays."""
    cls, rows, prefix = _own_store_cases()[kind]
    before = set(glob.glob(f"/tmp/{prefix}*"))
    obj = cls(ray.data.from_items(rows))
    made = set(glob.glob(f"/tmp/{prefix}*")) - before
    assert len(made) == 1
    (store,) = made
    assert os.path.exists(os.path.join(store, "manifest.json"))
    del obj
    gc.collect()
    assert not os.path.exists(store)

    given = str(tmp_path / "store")
    obj = cls(ray.data.from_items(rows), store_dir=given)
    del obj
    gc.collect()
    assert os.path.exists(os.path.join(given, "manifest.json"))
