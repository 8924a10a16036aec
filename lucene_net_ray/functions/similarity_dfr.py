"""DFR and IB similarities (SimilarityBase framework analogs).

References:
  DFRSimilarity  /root/reference/src/Lucene.Net.Core/Search/Similarities/DFRSimilarity.cs
                 score = boost * BasicModel(tfn) * AfterEffect(tfn), with
                 tfn from the Normalization.
  BasicModelIn   BasicModelIn.cs:  tfn * log2((N+1)/(df+0.5))
  BasicModelIne  BasicModelIne.cs: tfn * log2((N+1)/(ne+0.5)),
                 ne = N*(1-((N-1)/N)^ttf)
  AfterEffectL   AfterEffectL.cs:  1/(1+tfn)
  AfterEffectB   AfterEffectB.cs:  (ttf+1)/(df*(tfn+1))
  NormalizationH1 NormalizationH1.cs: c * tf * avgdl/dl
  NormalizationH2 NormalizationH2.cs: tf * log2(1 + c*avgdl/dl)
  IBSimilarity   IBSimilarity.cs: score = boost * Distribution(tfn, lambda)
  LambdaDF       LambdaDF.cs:  (df+1)/(N+1)
  LambdaTTF      LambdaTTF.cs: (ttf+1)/(N+1)
  DistributionLL DistributionLL.cs:  -ln(lambda/(tfn+lambda))
  DistributionSPL DistributionSPL.cs: -ln((pow(lambda, tfn/(tfn+1)) - lambda)/(1-lambda))

docLen is the byte315-decoded field length (SimilarityBase.DecodeNormValue —
same bytes as BM25, no index rebuild). Math in float64, cast to float32 at
the reference's return point; SimilarityBase clamps at 0.
"""

from __future__ import annotations

import numpy as np

from .norms import NORM_TABLE
from .similarity import SimilarityBase

LOG2 = np.log(2.0)


def _tfn(tfs: np.ndarray, norm_bytes: np.ndarray, avgdl: float, normalization: str, c: float) -> np.ndarray:
    dl = NORM_TABLE[norm_bytes].astype(np.float64)
    tf = tfs.astype(np.float64)
    if normalization == "H1":
        return c * tf * (avgdl / dl)
    if normalization == "H2":
        return tf * np.log1p(c * avgdl / dl) / LOG2
    raise ValueError(f"unknown normalization {normalization}")


def dfr_scores(
    tfs: np.ndarray,
    norm_bytes: np.ndarray,
    *,
    df: int,
    ttf: int,
    max_doc: int,
    avgdl: float,
    boost: float = 1.0,
    basic_model: str = "In",
    after_effect: str = "L",
    normalization: str = "H2",
    c: float = 1.0,
) -> np.ndarray:
    tfn = _tfn(tfs, norm_bytes, avgdl, normalization, c)
    if basic_model == "In":
        info = tfn * (np.log((max_doc + 1.0) / (df + 0.5)) / LOG2)
    elif basic_model == "Ine":
        ne = max_doc * (1.0 - ((max_doc - 1.0) / max_doc) ** ttf)
        info = tfn * (np.log((max_doc + 1.0) / (ne + 0.5)) / LOG2)
    elif basic_model == "G":
        # BasicModelG.cs: geometric approximation of Bose-Einstein
        F = ttf + 1.0
        lam = F / (max_doc + F)
        info = np.log2(lam + 1.0) + tfn * np.log2((1.0 + lam) / lam)
    elif basic_model == "P":
        # BasicModelP.cs: Poisson with Stirling's approximation
        lam = (ttf + 1.0) / (max_doc + 1.0)
        log2e = 1.0 / LOG2
        info = (
            tfn * np.log2(tfn / lam)
            + (lam + 1.0 / (12.0 * tfn) - tfn) * log2e
            + 0.5 * np.log2(2.0 * np.pi * tfn)
        )
    elif basic_model == "D":
        # BasicModelD.cs: divergence approximation of the binomial
        F = ttf + 1.0
        phi = tfn / F
        nphi = 1.0 - phi
        p = 1.0 / (max_doc + 1.0)
        Dv = phi * np.log2(phi / p) + nphi * np.log2(nphi / (1.0 - p))
        info = Dv * F + 0.5 * np.log2(1.0 + 2.0 * np.pi * tfn * nphi)
    elif basic_model == "Be":
        # BasicModelBE.cs: limiting form of Bose-Einstein
        F = ttf + 1.0
        N = float(max_doc)

        def _f(n, m):
            return (m + 0.5) * np.log2(n / m) + (n - m) * np.log2(n)

        info = (
            -np.log2((N - 1.0) * np.e)
            + _f(N + F - 1.0, N + F - tfn - 2.0)
            - _f(F, F - tfn)
        )
    else:
        raise ValueError(f"unknown basic model {basic_model}")
    if after_effect == "L":
        gain = 1.0 / (1.0 + tfn)
    elif after_effect == "B":
        gain = (ttf + 1.0) / (df * (tfn + 1.0))
    else:
        raise ValueError(f"unknown after effect {after_effect}")
    s = (np.float64(boost) * gain * info).astype(np.float32)
    return np.maximum(s, np.float32(0.0))


def ib_scores(
    tfs: np.ndarray,
    norm_bytes: np.ndarray,
    *,
    df: int,
    ttf: int,
    max_doc: int,
    avgdl: float,
    boost: float = 1.0,
    distribution: str = "LL",
    lambda_model: str = "DF",
    normalization: str = "H2",
    c: float = 1.0,
) -> np.ndarray:
    tfn = _tfn(tfs, norm_bytes, avgdl, normalization, c)
    if lambda_model == "DF":
        lam = (df + 1.0) / (max_doc + 1.0)
    elif lambda_model == "TTF":
        lam = (ttf + 1.0) / (max_doc + 1.0)
    else:
        raise ValueError(f"unknown lambda {lambda_model}")
    if distribution == "LL":
        val = -np.log(lam / (tfn + lam))
    elif distribution == "SPL":
        val = -np.log((np.power(lam, tfn / (tfn + 1.0)) - lam) / (1.0 - lam))
    else:
        raise ValueError(f"unknown distribution {distribution}")
    s = (np.float64(boost) * val).astype(np.float32)
    return np.maximum(s, np.float32(0.0))


class DFR(SimilarityBase):
    """DFRSimilarity; ``cfg`` holds dfr_scores' basic_model / after_effect /
    normalization / c. Stats need per-term "df" and "ttf", max_doc, sum_ttf."""

    formula = staticmethod(dfr_scores)

    def __init__(self, **cfg):
        self.cfg = cfg

    def term_scores(self, term, freqs, norm_bytes, boost):
        st = self.stats
        return self.formula(
            freqs, norm_bytes, df=st["df"].get(term, 0), ttf=st["ttf"].get(term, 0),
            max_doc=st["max_doc"], avgdl=st["sum_ttf"] / st["max_doc"], boost=boost, **self.cfg,
        )


class IB(DFR):
    """IBSimilarity; ``cfg`` holds ib_scores' distribution / lambda_model /
    normalization / c."""

    formula = staticmethod(ib_scores)
