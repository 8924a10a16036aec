"""The engine names that perfbench's traced runs wrap (``Tracer.wrap`` in
perfbench/spans.py) must stay reachable from a search. A rename or a bypass
then fails here, not in the benchmark:

  * ``Searcher._gather_df`` as an instance attribute
  * ``merge_top_docs``, looked up as a global of pipelines/search.py
  * ``MergedSearcher(dir).reader.term_stats`` and ``.postings``
  * ``codec.decode_postings``

``FuzzySet.may_contain_many`` is wrapped too, but nothing on the serving path
reaches it: a build writes no Bloom sets, and df comes from the searcher's
term table or from the shards' term dicts.
"""

import pyarrow as pa

from lucene_net_ray.functions import codec
from lucene_net_ray.functions.bloom import FuzzySet
from lucene_net_ray.pipelines import search as search_mod
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.merge import MergedSearcher, merge_index
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import parse_query
from perfbench.spans import Tracer

DOCS = [f"alpha beta word{i % 7} gamma{i % 3}" if i % 4 else f"beta delta word{i % 5}" for i in range(60)]


def test_perfbench_hooks_are_reached_and_change_nothing(tmp_path):
    idx, merged = str(tmp_path / "idx"), str(tmp_path / "merged")
    meta = build_index_from_table(pa.table({"content": DOCS}), idx, target_rows_per_segment=20)
    assert len(meta.segment_dirs) >= 2
    merge_index(idx, merged)
    q = parse_query("alpha delta word3")
    want = Searcher(meta, use_actors=False).search(q, k=8)
    assert want

    for use_actors in (False, True):
        s = Searcher(meta, num_actors=2, use_actors=use_actors)
        tr = Tracer()
        with (
            tr.wrap(s, "_gather_df", "df_gather"),
            tr.wrap(FuzzySet, "may_contain_many", "bloom"),
            tr.wrap(search_mod, "merge_top_docs", "merge"),
            tr.wrap(codec, "decode_postings", "decode"),
        ):
            got = s.search(q, k=8)
        assert got == want, use_actors
        hooks = {"df_gather", "merge"} | ({"decode"} if not use_actors else set())
        assert hooks <= set(tr.counts()), (use_actors, tr.counts())

    ms = MergedSearcher(merged)
    tr = Tracer()
    with (
        tr.wrap(ms.reader, "term_stats", "lookup"),
        tr.wrap(ms.reader, "postings", "postings"),
        tr.wrap(codec, "decode_postings", "decode"),
    ):
        got = ms.search(q, k=8)
    assert got == want
    assert {"lookup", "postings", "decode"} <= set(tr.counts()), tr.counts()
