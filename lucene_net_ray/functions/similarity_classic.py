"""Classic TF-IDF (Lucene DefaultSimilarity) as an alternative Similarity.

Reference: /root/reference/src/Lucene.Net.Core/Search/Similarities/DefaultSimilarity.cs:119-160
  tf         = sqrt(freq)                      (float32)
  idf        = ln(N / (df + 1)) + 1            (float32)
  lengthNorm = byte315 round-trip of 1/sqrt(fieldLength) — SAME norm byte as
               BM25, decoded with Byte315ToFloat directly
  queryWeight = idf * boost; queryNorm = 1/sqrt(sum of squared queryWeights)
  per-term doc score = tf(d) * idf * (queryWeight * queryNorm) * norm(d)
  coord       = overlap / maxOverlap, multiplied into boolean sums

``Classic`` and ``SweetSpot`` are the SegmentScorer plug-ins (SURVEY.md §2.8):
queryNorm is computed once per top-level query, coord per boolean.
"""

from __future__ import annotations

import math

import numpy as np

from .norms import byte315_to_float
from .similarity import Similarity

# decoded lengthNorm per norm byte (float32 table, like TFIDF's NORM_TABLE)
CLASSIC_NORM_TABLE = np.array([byte315_to_float(i) for i in range(256)], dtype=np.float32)


def classic_idf(df: int, max_doc: int) -> np.float32:
    return np.float32(math.log(max_doc / (df + 1.0)) + 1.0)


def classic_tf(freq: np.ndarray) -> np.ndarray:
    return np.sqrt(freq.astype(np.float32), dtype=np.float32)


def query_norm(sum_squared_weights: float) -> np.float32:
    if sum_squared_weights <= 0:
        return np.float32(1.0)
    return np.float32(1.0 / math.sqrt(sum_squared_weights))


def coord(overlap: np.ndarray, max_overlap: int) -> np.ndarray:
    return (overlap.astype(np.float32) / np.float32(max_overlap)).astype(np.float32)


# --- SweetSpotSimilarity (reference Misc/SweetSpotSimilarity.cs) ------------
# lengthNorm plateaus at 1/sqrt(1)=1 inside [ln_min, ln_max] and falls off
# with `steepness` outside; tf has a baseline (flat then sqrt) and a
# hyperbolic variant. Our doc store keeps EXACT field lengths, so the norm is
# computed from field_len at query time instead of the byte-quantized norm
# (strictly more precise than the reference's encoded byte).


def sweetspot_length_norm(
    field_lens: np.ndarray, ln_min: int = 1, ln_max: int = 1, steepness: float = 0.5
) -> np.ndarray:
    l = field_lens.astype(np.float32)
    val = steepness * (np.abs(l - ln_min) + np.abs(l - ln_max) - (ln_max - ln_min)) + 1.0
    return (1.0 / np.sqrt(val)).astype(np.float32)


def sweetspot_baseline_tf(freq: np.ndarray, base: float = 0.0, tf_min: float = 0.0) -> np.ndarray:
    tf = freq.astype(np.float32)
    out = np.where(
        tf <= tf_min, np.float32(base), np.sqrt(tf + base * base - tf_min, dtype=np.float32)
    ).astype(np.float32)
    out[tf == 0] = np.float32(0.0)
    return out


def sweetspot_hyperbolic_tf(
    freq: np.ndarray,
    h_min: float = 0.0,
    h_max: float = 2.0,
    h_base: float = np.e,
    h_xoffset: float = 10.0,
) -> np.ndarray:
    tf = freq.astype(np.float64)
    x = tf - h_xoffset
    pb, nb = np.power(h_base, x), np.power(h_base, -x)
    out = h_min + ((h_max - h_min) / 2.0) * ((pb - nb) / (pb + nb) + 1.0)
    out = out.astype(np.float32)
    out[tf == 0] = np.float32(0.0)
    return out


class Classic(Similarity):
    """DefaultSimilarity: score = tf(freq) * idf * (queryWeight * queryNorm)
    * norm, with queryWeight = idf * boost and idf summed over a term set."""

    def weight(self, terms, boost: float = 1.0, qnorm=None):
        """(idf, queryWeight), the latter times ``qnorm`` when given."""
        n, df = self.stats["max_doc"], self.stats["df"]
        w_idf = np.float32(0.0)
        for t in terms:
            w_idf = np.float32(w_idf + classic_idf(df.get(t, 0), n))
        qw = np.float32(w_idf * np.float32(boost))
        return w_idf, qw if qnorm is None else np.float32(qw * qnorm)

    def norm_value(self, terms, boost: float = 1.0) -> float:
        qw = float(self.weight(terms, boost)[1])
        return qw * qw

    def query_norm(self, sum_sq: float) -> np.float32:
        return query_norm(sum_sq)

    coord = staticmethod(coord)

    def tf(self, freqs):
        return classic_tf(freqs)

    def doc_norms(self, reader, docids):
        return CLASSIC_NORM_TABLE[reader.norms[docids]]

    def score(self, weight, freqs, docids, reader) -> np.ndarray:
        w_idf, value = weight
        return (self.tf(freqs) * w_idf * value * self.doc_norms(reader, docids)).astype(np.float32)


class SweetSpot(Classic):
    """SweetSpotSimilarity: Classic with a plateaued length norm from the
    EXACT stored field_len (the reference quantizes through the norm byte;
    documented deviation, strictly more precise) and a baseline or
    hyperbolic tf."""

    def __init__(self, ln_min=1, ln_max=1, steepness=0.5, tf_base=0.0, tf_min=0.0, hyperbolic=None):
        self.ln_min, self.ln_max, self.steepness = ln_min, ln_max, steepness
        self.tf_base, self.tf_min, self.hyperbolic = tf_base, tf_min, hyperbolic

    def tf(self, freqs):
        if self.hyperbolic is not None:
            return sweetspot_hyperbolic_tf(freqs, **self.hyperbolic)
        return sweetspot_baseline_tf(freqs, self.tf_base, self.tf_min)

    def doc_norms(self, reader, docids):
        lens = np.asarray(reader.doc_values("field_len"), dtype=np.float32)[docids]
        return sweetspot_length_norm(lens, self.ln_min, self.ln_max, self.steepness)
