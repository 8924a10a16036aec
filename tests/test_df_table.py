"""The searcher's global term table: df for every (field, term) of a
segmented index, gathered once from the segment groups, so a point query is
one fan-out.

  * the table is keyed by the index's field; its df equals the oracle's for
    every term, with several segments per group, and is 0 for absent terms
  * df counts deleted docs (Lucene's docFreq does until a merge), so a
    delete_by_query leaves it unchanged
  * an actor-backed ``Searcher.search`` makes exactly one fan-out per query
    after the first (the top_k call)
  * ``QueryEvalStage`` over adopted group handles loads the table once, at
    construction, and its batches make no stats fan-out
  * results are identical on the in-process, actor, merged and range-sharded
    merged layouts (the last two keep no table and gather df per query)
  * a group actor killed between two searches restarts and answers the same
"""

import random

import pyarrow as pa
import pytest
import ray

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.merge import MergedSearcher, ShardedMergedSearcher, merge_index
from lucene_net_ray.pipelines.search import QueryEvalStage, Searcher
from lucene_net_ray.query import TermQuery, parse_query
from lucene_net_ray.state.deletes import delete_by_query

VOCAB = "alpha alpine bravo brass charlie delta echo foxtrot golf hotel india kilo lima".split()
QUERIES = [
    "alpha",
    "alpha bravo",
    "+charlie -delta",
    "\"echo foxtrot\"",
    "alp*",
    "golf~1 india",
    "uniq7 uniq55 kilo",
    "zyzzyva",
    "zyzzyva lima",
]
ABSENT = ["", "a", "zyzzyva", "alphab", "uniq", "zzz", "ü"]


def _corpus(n: int = 160, seed: int = 3) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choices(VOCAB, k=rng.randint(2, 9)) + [f"uniq{i}"]) for i in range(n)]


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    docs = _corpus()
    root = tmp_path_factory.mktemp("df_table")
    meta = build_index_from_table(
        pa.table({"content": docs}), str(root / "idx"), target_rows_per_segment=20, index_options="positions"
    )
    assert len(meta.segment_dirs) >= 6
    merged = str(root / "merged")
    merge_index(meta.index_dir, merged, bucket_size=2)
    return meta, merged, OracleIndex(docs)


def _count_calls(monkeypatch) -> dict:
    """Count Searcher._call fan-outs by shard method, on every searcher."""
    counts: dict[str, int] = {}
    real = Searcher._call

    def counted(self, method, *args):
        counts[method] = counts.get(method, 0) + 1
        return real(self, method, *args)

    monkeypatch.setattr(Searcher, "_call", counted)
    return counts


@pytest.mark.parametrize(
    "use_actors,num_actors", [(False, 2), (True, 2), (False, 5)], ids=["in_process", "actors", "uneven_groups"]
)
def test_table_df_equals_oracle(index, use_actors, num_actors):
    meta, _merged, oracle = index
    s = Searcher(meta, num_actors=num_actors, use_actors=use_actors)
    if not use_actors:  # several segments per group; with 5 groups, some hold one
        sizes = {len(g.readers) for g in s.groups}
        assert min(sizes) == 1 < max(sizes) if num_actors == 5 else min(sizes) >= 3
    assert list(s._df_table) == ["content"]  # one table per field
    terms, dfs = s._df_table["content"]
    assert terms.tolist() == oracle.vocab
    assert dfs.tolist() == [oracle.df[t] for t in oracle.vocab]
    probe = oracle.vocab + ABSENT
    assert s._stats_for_terms(probe) == {t: oracle.df.get(t, 0) for t in probe}
    assert s._stats_for_terms([]) == {}


def test_df_counts_deleted_docs(tmp_path):
    docs = _corpus(60, seed=5)
    oracle = OracleIndex(docs)
    meta = build_index_from_table(pa.table({"content": docs}), str(tmp_path / "idx"), target_rows_per_segment=15)
    before = Searcher(meta.index_dir, num_actors=2, use_actors=False)
    n_alpha = before.count(TermQuery(term="alpha"))
    assert delete_by_query(meta.index_dir, TermQuery(term="alpha")) == n_alpha > 0
    after = Searcher(meta.index_dir, num_actors=2, use_actors=False)
    assert after.count(TermQuery(term="alpha")) == 0
    probe = oracle.vocab + ABSENT
    assert after._stats_for_terms(probe) == {t: oracle.df.get(t, 0) for t in probe}
    assert after._stats_for_terms(["alpha"]) == before._stats_for_terms(["alpha"]) == {"alpha": n_alpha}


def test_actor_search_is_one_fanout_per_query(index, monkeypatch):
    meta, _merged, _oracle = index
    want = Searcher(meta, num_actors=2, use_actors=False)
    s = Searcher(meta, num_actors=2)
    for searcher in (want, s):
        searcher.search(parse_query("alpha"), k=5)  # loads the table
    counts = _count_calls(monkeypatch)
    plain = [q for q in QUERIES if "~" not in q]  # a fuzzy leaf adds its expand fan-out
    for text in plain:
        q = parse_query(text)
        assert s.search(q, k=10) == want.search(q, k=10), text
    assert counts == {"top_k": 2 * len(plain)}  # both searchers: one top_k each, nothing else


def test_query_eval_stage_loads_table_once(index, monkeypatch):
    meta, _merged, _oracle = index
    handles = Searcher(meta, num_actors=2).groups
    counts = _count_calls(monkeypatch)
    stage = QueryEvalStage(meta.index_dir, k=5, group_handles=handles)
    assert counts == {"term_dfs": 1}
    local = Searcher(meta, num_actors=2, use_actors=False)
    for lo in (0, 4):
        batch = pa.table({"query_id": list(range(lo, lo + 4)), "query": QUERIES[lo : lo + 4]})
        out = stage(batch).to_pylist()
        for qid, text in enumerate(QUERIES[lo : lo + 4], lo):
            got = [(r["doc_id"], r["score"]) for r in out if r["query_id"] == qid]
            assert got == local.search(parse_query(text), k=5), text
    assert counts["term_dfs"] == 2  # the stage's one load, and the local searcher's
    assert counts["top_k_many"] == 2 and "term_stats" not in counts


def test_results_identical_across_layouts(index):
    meta, merged, _oracle = index
    layouts = {
        "in_process": Searcher(meta, num_actors=2, use_actors=False),
        "actors": Searcher(meta, num_actors=2),
        "merged": MergedSearcher(merged),
        "sharded_merged": ShardedMergedSearcher(merged, num_actors=2),
    }
    assert layouts["actors"]._df_table is not None
    assert layouts["merged"]._df_table is None and layouts["sharded_merged"]._df_table is None
    for text in QUERIES:
        q = parse_query(text)
        got = {name: s.search(q, k=10) for name, s in layouts.items()}
        assert len({repr(v) for v in got.values()}) == 1, (text, got)
        counts = {name: s.count(q) for name, s in layouts.items()}
        assert len(set(counts.values())) == 1, (text, counts)


def test_killed_group_actor_restarts(index):
    """A serving actor killed between two searches restarts from its
    constructor arguments, and the next search returns the same hits."""
    meta, merged, _oracle = index
    queries = [parse_query(t) for t in ("alpha bravo", "\"echo foxtrot\"")]
    s = Searcher(meta, num_actors=2)
    before = [s.search(q, k=10) for q in queries]
    ray.kill(s.groups[0], no_restart=False)
    assert [s.search(q, k=10) for q in queries] == before

    sharded = ShardedMergedSearcher(merged, num_actors=2)
    before = [sharded.search(q, k=10) for q in queries]
    ray.kill(sharded._actors[0], no_restart=False)
    for cache in (sharded.reader._post, sharded.reader._pos, sharded.reader._stats):
        cache.clear()  # so the search has to reach the restarted actor
    assert [sharded.search(q, k=10) for q in queries] == before
