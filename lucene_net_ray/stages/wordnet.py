"""WordNet contrib analog: Syns2Index + SynExpand/SynLookup.

Reference surface (semantics, not code):
  /root/reference/src/contrib/WordNet/Syns2Index/Syns2Index.cs — parse the
  WordNet prolog ``wn_s.pl`` (lines ``s(synset_id, w_num, 'word', ss_type,
  sense_number, tag_count).``), group words by synset, and build a synonym
  lookup keyed by word whose value is every OTHER word sharing any synset
  with it (single-word synsets contribute nothing; multi-word collocations
  are skipped).
  /root/reference/src/contrib/WordNet/SynExpand/SynExpand.cs — expand a
  query: analyze it, keep the original terms as SHOULD clauses, and append
  one boosted SHOULD TermQuery per synonym, deduplicating against every
  word already in the query (the shared ``already`` set spans the whole
  query, so two query words with a common synonym emit it once).
  /root/reference/src/contrib/WordNet/SynLookup/SynLookup.cs — list the
  synonyms of one word.

Ray-Data-first: the prolog parse + synset self-join + per-word synonym
aggregation is a Dataset pipeline (flat_map parse -> groupby(synset) pair
emission -> groupby(word) distinct-collect); the finished table is
word-cardinality-sized (WordNet ~90k usable words) and broadcasts to
query-time consumers like any small-side lookup.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray

# s(100002137,1,'entity',n,1,11).
_S_LINE = re.compile(r"^s\(\s*(\d+)\s*,\s*\d+\s*,\s*'((?:[^']|'')*)'\s*,")


def parse_prolog_line(line: str) -> tuple[int, str] | None:
    """-> (synset_id, word) or None. Mirrors Syns2Index's filters: only
    ``s(...)`` facts; lowercased; multi-word collocations (WordNet joins
    them with '_' or spaces) are skipped."""
    m = _S_LINE.match(line)
    if not m:
        return None
    word = m.group(2).replace("''", "'").lower()
    if not word or "_" in word or " " in word or not word.isalpha():
        return None
    return int(m.group(1)), word


def syns_table_from_prolog(path: str) -> pa.Table:
    """Syns2Index analog: prolog file -> (word, syns sorted-list) table.

    Dataset pipeline, no driver-side parsing: parse batches of lines to
    (synset, word) pairs, emit within-synset word pairs per synset group,
    then collect each word's distinct synonyms.
    """
    ds = ray.data.read_text(path)

    def parse_batch(batch: pa.Table) -> pa.Table:
        syn_ids, words = [], []
        for line in batch.column("text").to_pylist():
            p = parse_prolog_line(line)
            if p is not None:
                syn_ids.append(p[0])
                words.append(p[1])
        return pa.table(
            {"synset": pa.array(syn_ids, pa.int64()), "word": pa.array(words)}
        )

    pairs = ds.map_batches(parse_batch, batch_format="pyarrow")

    def emit_pairs(group: pa.Table) -> pa.Table:
        ws = sorted(set(group.column("word").to_pylist()))
        if len(ws) < 2:
            return pa.table({"word": pa.array([], pa.string()), "syn": pa.array([], pa.string())})
        a, b = [], []
        for w in ws:
            for s in ws:
                if s != w:
                    a.append(w)
                    b.append(s)
        return pa.table({"word": pa.array(a), "syn": pa.array(b)})

    word_syn = pairs.groupby("synset").map_groups(emit_pairs, batch_format="pyarrow")

    def collect(group: pa.Table) -> pa.Table:
        w = group.column("word")[0].as_py()
        syns = sorted(set(group.column("syn").to_pylist()))
        return pa.table({"word": pa.array([w]), "syns": pa.array([syns], pa.list_(pa.string()))})

    out = word_syn.groupby("word").map_groups(collect, batch_format="pyarrow")
    parts = [ray.get(ref) for ref in out.to_arrow_refs()]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({"word": pa.array([], pa.string()),
                         "syns": pa.array([], pa.list_(pa.string()))})
    return pa.concat_tables(parts).sort_by("word")


class SynonymIndex:
    """Query-time synonym lookup + SynExpand. Word-cardinality-sized state;
    for bigger tables route through the sorted-parts store of the
    suggesters (state/sorted_parts.py)."""

    def __init__(self, table: pa.Table):
        words = table.column("word").to_pylist()
        syns = table.column("syns").to_pylist()
        self._syns = dict(zip(words, [list(s) for s in syns]))

    @classmethod
    def from_prolog(cls, path: str) -> "SynonymIndex":
        return cls(syns_table_from_prolog(path))

    def lookup(self, word: str) -> list[str]:
        """SynLookup analog."""
        return list(self._syns.get(word.lower(), []))

    def expand(self, query_text: str, *, field: str = "content",
               boost: float = 0.9, analyzer=None):
        """SynExpand.Expand analog -> BooleanQuery of SHOULD clauses:
        the analyzed original terms (boost 1), then each term's synonyms at
        ``boost``, deduplicated across the WHOLE query (the reference's
        shared ``already`` list)."""
        from ..functions.analysis import Analyzer
        from ..query import SHOULD, BooleanClause, BooleanQuery, TermQuery

        a = analyzer or Analyzer()
        already: set[str] = set()
        top: list[str] = []
        for w in a(query_text):
            if w not in already:
                already.add(w)
                top.append(w)
        clauses = []
        for w in top:
            clauses.append(BooleanClause(TermQuery(field=field, term=w), SHOULD))
            for syn in self._syns.get(w, []):
                if syn in already:
                    continue
                already.add(syn)
                tq = TermQuery(field=field, term=syn, boost=boost if boost > 0 else 1.0)
                clauses.append(BooleanClause(tq, SHOULD))
        return BooleanQuery(clauses=tuple(clauses))
