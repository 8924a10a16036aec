"""Language-model similarities: LM-Dirichlet and LM-Jelinek-Mercer.

Reference: /root/reference/src/Lucene.Net.Core/Search/Similarities/
LMDirichletSimilarity.cs (Score: boost * (ln(1 + tf/(mu*p_c)) +
ln(mu/(dl+mu))), clipped at 0; mu default 2000) and
LMJelinekMercerSimilarity.cs (boost * ln(1 + ((1-lambda)*tf/dl) /
(lambda*p_c)), lambda default 0.1), with the collection model of
LMSimilarity.DefaultCollectionModel: p_c(w) = (ttf+1)/(total_tokens+1).
docLen is the byte315-decoded field length (SimilarityBase.DecodeNormValue),
identical to BM25's decoded norm, so these plug into the same index with no
rebuild. Math in float64, final cast to float32 at the reference's point.
"""

from __future__ import annotations

import numpy as np

from .norms import NORM_TABLE
from .similarity import SimilarityBase

DEFAULT_MU = 2000.0
DEFAULT_LAMBDA = 0.1


def collection_probability(ttf: int, total_tokens: int) -> float:
    """LMSimilarity.DefaultCollectionModel.ComputeProbability."""
    return (ttf + 1.0) / (total_tokens + 1.0)


def lm_dirichlet_scores(
    tfs: np.ndarray, norm_bytes: np.ndarray, ttf: int, total_tokens: int,
    boost: float = 1.0, mu: float = DEFAULT_MU,
) -> np.ndarray:
    p_c = collection_probability(ttf, total_tokens)
    dl = NORM_TABLE[norm_bytes].astype(np.float64)
    s = np.float32(boost) * (
        np.log1p(tfs.astype(np.float64) / (mu * p_c)) + np.log(mu / (dl + mu))
    ).astype(np.float32)
    return np.maximum(s, np.float32(0.0)).astype(np.float32)


def lm_jelinek_mercer_scores(
    tfs: np.ndarray, norm_bytes: np.ndarray, ttf: int, total_tokens: int,
    boost: float = 1.0, lam: float = DEFAULT_LAMBDA,
) -> np.ndarray:
    p_c = collection_probability(ttf, total_tokens)
    dl = NORM_TABLE[norm_bytes].astype(np.float64)
    s = np.float32(boost) * np.log1p(
        ((1.0 - lam) * tfs.astype(np.float64) / dl) / (lam * p_c)
    ).astype(np.float32)
    return np.maximum(s, np.float32(0.0)).astype(np.float32)


class LMDirichlet(SimilarityBase):
    """LMDirichletSimilarity; stats need "sum_ttf" and per-term "ttf"."""

    def __init__(self, mu: float = DEFAULT_MU):
        self.mu = mu

    def term_scores(self, term, freqs, norm_bytes, boost):
        ttf = self.stats["ttf"].get(term, 0)
        return lm_dirichlet_scores(freqs, norm_bytes, ttf, self.stats["sum_ttf"], boost, self.mu)


class LMJelinekMercer(SimilarityBase):
    """LMJelinekMercerSimilarity; stats need "sum_ttf" and per-term "ttf"."""

    def __init__(self, lam: float = DEFAULT_LAMBDA):
        self.lam = lam

    def term_scores(self, term, freqs, norm_bytes, boost):
        ttf = self.stats["ttf"].get(term, 0)
        return lm_jelinek_mercer_scores(freqs, norm_bytes, ttf, self.stats["sum_ttf"], boost, self.lam)
