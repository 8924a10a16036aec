"""Okapi BM25 exactly as the reference computes it, including float32 rounding.

Reference: /root/reference/src/Lucene.Net.Core/Search/Similarities/BM25Similarity.cs
  idf:        :68-71   ln(1 + (N - df + 0.5)/(df + 0.5)), then cast to float32
  avgdl:      :92-103  float32(sumTotalTermFreq / (double) maxDoc)
  cache[256]: :232-236 float32(k1 * ((1-b) + b * NORM_TABLE[i] / avgdl))
  weight:     :338-343 idf * queryBoost * topLevelBoost   (queryNorm ignored)
  WeightValue::259     weight * (k1 + 1)
  score:      :264-269 WeightValue * freq / (freq + cache[normByte])

All multiplies/divides happen in float32 (C# float arithmetic); we use numpy
float32 ops at the same points so scores are bit-identical run to run and
rank-identical to the reference.

The classes here are the Similarity plug-ins of ``pipelines.scorer.SegmentScorer``
(Search/Similarities/Similarity.cs): ``Similarity`` is the shared surface,
``BM25`` the default, ``SimilarityBase`` the LM/DFR/IB pattern.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .norms import NORM_TABLE

K1_DEFAULT = np.float32(1.2)
B_DEFAULT = np.float32(0.75)


def idf(df: int, max_doc: int) -> np.float32:
    """float32(ln(1 + (N - df + 0.5) / (df + 0.5)))."""
    return np.float32(math.log(1.0 + (max_doc - df + 0.5) / (df + 0.5)))


def avg_field_length(sum_total_term_freq: int, max_doc: int) -> np.float32:
    if sum_total_term_freq <= 0:
        return np.float32(1.0)
    return np.float32(sum_total_term_freq / float(max_doc))


def norm_cache(avgdl: np.float32, k1: np.float32 = K1_DEFAULT, b: np.float32 = B_DEFAULT) -> np.ndarray:
    """cache[i] = k1 * ((1 - b) + b * decode(i) / avgdl), float32 each op."""
    k1 = np.float32(k1)
    b = np.float32(b)
    dl = NORM_TABLE  # float32[256]
    with np.errstate(over="ignore", invalid="ignore"):
        cache = (k1 * ((np.float32(1.0) - b) + (b * dl).astype(np.float32) / np.float32(avgdl))).astype(np.float32)
    return cache


@functools.lru_cache(maxsize=256)
def _shared_norm_cache(avgdl: float, k1: float, b: float) -> np.ndarray:
    """norm_cache, built once per (avgdl, k1, b) and shared read-only by
    every BM25 bound to stats with that avgdl (serving binds one per segment
    and query)."""
    cache = norm_cache(np.float32(avgdl), np.float32(k1), np.float32(b))
    cache.flags.writeable = False
    return cache


def term_weight_value(term_idf: np.float32, boost: float = 1.0, k1: np.float32 = K1_DEFAULT) -> np.float32:
    """weight * (k1 + 1) with weight = idf * boost (topLevelBoost folded in)."""
    w = np.float32(np.float32(term_idf) * np.float32(boost))
    return np.float32(w * (np.float32(k1) + np.float32(1.0)))


def score_tf(
    tfs: np.ndarray, norm_bytes: np.ndarray, weight_value: np.float32, cache: np.ndarray
) -> np.ndarray:
    """Vectorized per-doc term score: WeightValue * tf / (tf + cache[normb])."""
    tf32 = tfs.astype(np.float32)
    c = cache[norm_bytes]
    return ((np.float32(weight_value) * tf32) / (tf32 + c)).astype(np.float32)


def block_max_score(max_tf: np.ndarray, min_normb: np.ndarray, weight_value: np.float32, cache: np.ndarray) -> np.ndarray:
    """Upper bound on any doc's score within a block: maximize tf, minimize dl.

    tf/(tf+c) is increasing in tf and decreasing in c, so using the block's
    max tf together with the smallest cache value (largest norm byte = shortest
    decoded length... cache is increasing in decoded length dl, and dl is
    decreasing in the norm byte, so cache[max byte] is the minimum) yields a
    valid upper bound even if no single doc attains both.
    """
    tf32 = max_tf.astype(np.float32)
    c = cache[min_normb]
    return ((np.float32(weight_value) * tf32) / (tf32 + c)).astype(np.float32)


class Similarity:
    """The per-term math of ``SegmentScorer``; the query algebra is the
    scorer's, the same for every similarity. A similarity provides

      bind(stats)                  a copy reading one query's index-global stats
      weight(terms, boost, qnorm)  the weight of a term, or of a phrase's or a
                                   span's term set, times the query's queryNorm
                                   where the similarity has one
      score(weight, freqs, docids, reader)  float32 per-doc scores

    and three optional hooks, None where the reference's value is 1 or
    absent: ``query_norm(sum_sq)`` with ``norm_value(terms, boost)`` (the
    squared weight it sums), ``coord(overlap, max_overlap)``, and the WAND
    per-block upper bound ``block_bound(weight, max_tf, min_normb)``.
    """

    query_norm = coord = block_bound = None

    def bind(self, stats: dict) -> "Similarity":
        out = copy.copy(self)
        out.stats = stats
        return out


class BM25(Similarity):
    """BM25Similarity: queryNorm and coord are 1, so neither hook is defined;
    the only similarity with a WAND bound."""

    def __init__(self, k1: float = K1_DEFAULT, b: float = B_DEFAULT):
        self.k1, self.b = np.float32(k1), np.float32(b)

    def bind(self, stats: dict) -> "BM25":
        out = super().bind(stats)
        avgdl = avg_field_length(stats["sum_ttf"], stats["max_doc"])
        out.cache = _shared_norm_cache(float(avgdl), float(self.k1), float(self.b))
        return out

    def weight(self, terms, boost: float = 1.0, qnorm=None) -> np.float32:
        """idf * boost * (k1 + 1), idf summed in float32 over ``terms`` in
        order (the IdfExplain loop). A lone term with df <= 0 weighs 0."""
        df, n = self.stats["df"], self.stats["max_doc"]
        if len(terms) == 1:
            d = df.get(terms[0], 0)
            if d <= 0:
                return np.float32(0.0)
            idf_sum = idf(d, n)
        else:
            idf_sum = np.float32(0.0)
            for t in terms:
                idf_sum = np.float32(idf_sum + idf(df.get(t, 0), n))
        return term_weight_value(idf_sum, boost, self.k1)

    def score(self, weight, freqs, docids, reader) -> np.ndarray:
        return score_tf(freqs, reader.norms[docids], weight, self.cache)

    def block_bound(self, weight, max_tf, min_normb) -> np.ndarray:
        return block_max_score(max_tf, min_normb, weight, self.cache)


class SimilarityBase(Similarity):
    """SimilarityBase.cs pattern (LM, DFR, IB): queryNorm and coord are 1; a
    term set scores as the float32 sum of its terms' scores
    (MultiSimilarity). Subclasses define ``term_scores(term, freqs,
    norm_bytes, boost)`` from ``self.stats``."""

    def weight(self, terms, boost: float = 1.0, qnorm=None):
        return boost, tuple(terms)

    def score(self, weight, freqs, docids, reader) -> np.ndarray:
        boost, terms = weight
        nb = reader.norms[docids]
        out = np.zeros(docids.size, dtype=np.float32)
        for t in terms:
            out = (out + self.term_scores(t, freqs, nb, boost)).astype(np.float32)
        return out
