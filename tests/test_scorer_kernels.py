"""The scorer's two hot kernels against the code they replaced, kept here as
the reference: the disjunction accumulator (np.unique + np.add.at) and the
top-k selection (a full lexsort). Both must agree bit for bit."""

import numpy as np
import pytest

from lucene_net_ray.pipelines import scorer
from lucene_net_ray.pipelines.scorer import _disjunction_sum, top_k_order


def _reference_disjunction_sum(clauses):
    docs = np.unique(np.concatenate([d for d, _ in clauses])) if clauses else np.empty(0, dtype=np.int64)
    acc = np.zeros(docs.size, dtype=np.float64)
    cnt = np.zeros(docs.size, dtype=np.int32)
    for d, s in clauses:
        if d.size == 0:
            continue
        idx = np.searchsorted(docs, d)
        np.add.at(acc, idx, s.astype(np.float64))
        np.add.at(cnt, idx, 1)
    return docs, acc, cnt


def _random_scores(rng, n: int) -> np.ndarray:
    """float32 scores of mixed sign and magnitude (LM scores are negative),
    with exact zeros, -0.0 and values whose float64 sums depend on order."""
    kind = rng.integers(0, 4)
    if kind == 0:
        s = rng.random(n) * 20
    elif kind == 1:
        s = -rng.random(n) * 5
    elif kind == 2:
        s = rng.choice([0.0, -0.0, 1e-7, 3.0, 1e7, -1e7], size=n)
    else:
        s = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 8, size=n)
    return s.astype(np.float32)


def _random_clauses(rng, max_doc: int, n_clauses: int, fill: float):
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.binomial(max_doc, fill))
        d = np.sort(rng.choice(max_doc, size=size, replace=False)).astype(np.int64)
        clauses.append((d, _random_scores(rng, size)))
    return clauses


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.astype(g.dtype).view(np.uint8))


@pytest.mark.parametrize("slots", [None, 0, 10**12], ids=["auto", "sparse", "dense"])
def test_disjunction_sum_matches_add_at(slots, monkeypatch):
    """Random clause sets, dense and sparse, through the chosen path (the
    default choice, or one path forced by the slots-per-posting constant)."""
    if slots is not None:
        monkeypatch.setattr(scorer, "_DENSE_SLOTS_PER_POSTING", slots)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        max_doc = int(rng.choice([1, 7, 300, 5_000, 60_000]))
        fill = float(rng.choice([0.0001, 0.01, 0.2, 0.9]))
        clauses = _random_clauses(rng, max_doc, int(rng.integers(1, 6)), fill)
        got = _disjunction_sum(clauses)
        assert got[0].dtype == np.int64 and got[1].dtype == np.float64 and got[2].dtype == np.int32
        _assert_bitwise(got, _reference_disjunction_sum(clauses))


def test_disjunction_sum_paths_both_taken():
    """The default threshold sends a full clause to the table and a few
    docids spread over a large range to the sorted union; both are exact."""
    rng = np.random.default_rng(7)
    dense = _random_clauses(rng, 1_000, 3, 0.5)
    sparse = [(np.array([3, 90_000], dtype=np.int64), np.float32([1.5, 2.5])),
              (np.array([90_000, 1_000_000], dtype=np.int64), np.float32([0.25, -1.0]))]
    for clauses in (dense, sparse):
        _assert_bitwise(_disjunction_sum(clauses), _reference_disjunction_sum(clauses))


@pytest.mark.parametrize("slots", [0, 10**12], ids=["sparse", "dense"])
def test_disjunction_sum_empty_and_zero_weight_clauses(slots, monkeypatch):
    monkeypatch.setattr(scorer, "_DENSE_SLOTS_PER_POSTING", slots)
    e = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
    docs, sums, counts = _disjunction_sum([])
    assert docs.size == sums.size == counts.size == 0
    docs, sums, counts = _disjunction_sum([e, e])
    assert docs.size == sums.size == counts.size == 0
    # a clause of weight 0 (a term absent from the global stats) scores 0.0
    # but its docs still match: they count toward min_should_match
    a = (np.array([1, 4, 6], dtype=np.int64), np.float32([2.0, 3.0, 4.0]))
    zero = (np.array([4, 5], dtype=np.int64), np.zeros(2, dtype=np.float32))
    clauses = [a, e, zero]
    docs, sums, counts = _disjunction_sum(clauses)
    assert docs.tolist() == [1, 4, 5, 6]
    assert sums.tolist() == [2.0, 3.0, 0.0, 4.0]
    assert counts.tolist() == [1, 2, 1, 1]
    _assert_bitwise((docs, sums, counts), _reference_disjunction_sum(clauses))


def _reference_top_k(docs, scores, k):
    return np.lexsort((docs, -scores))[:k]


_SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 2.5, -2.5]


def _random_top_k_case(rng):
    n = int(rng.integers(0, 60))
    kind = rng.integers(0, 6)
    if kind == 0:  # all tied
        scores = np.full(n, rng.choice([0.0, 1.5, -3.0]))
    elif kind == 1:  # few distinct values: ties at the k-th score
        scores = rng.integers(0, 4, size=n).astype(np.float64)
    elif kind == 2:  # negative LM-style scores
        scores = -rng.random(n) * 10
    elif kind == 3:  # specials: NaN, +-inf, -0.0
        scores = rng.choice(_SPECIAL, size=n)
    elif kind == 4:  # specials without NaN: the partition path
        scores = rng.choice([s for s in _SPECIAL if not np.isnan(s)], size=n)
    else:
        scores = rng.standard_normal(n)
    dtype = rng.choice([np.float32, np.float64])
    docs = rng.permutation(n * 3)[:n].astype(np.int64)
    if rng.random() < 0.2 and n:  # repeated docids: the sort's stability shows
        docs = rng.integers(0, max(1, n // 3), size=n).astype(np.int64)
    k = int(rng.integers(0, n + 4))
    return docs, scores.astype(dtype), k


def test_top_k_order_matches_full_lexsort():
    rng = np.random.default_rng(99)
    for _ in range(3_000):
        docs, scores, k = _random_top_k_case(rng)
        got = top_k_order(docs, scores, k)
        want = _reference_top_k(docs, scores, k)
        assert np.array_equal(got, want), (docs, scores, k)


@pytest.mark.parametrize(
    "scores, k",
    [
        ([1.0, 1.0, 1.0, 1.0], 2),  # all tied: lowest docids win
        ([3.0, 2.0, 2.0, 2.0, 1.0], 2),  # tie at the k-th score
        ([-0.5, -0.1, -2.0, -0.1], 3),  # negative scores
        ([0.0, -0.0, 0.0, -0.0], 3),  # -0.0 ties with 0.0
        ([np.inf, 1.0, -np.inf, np.inf], 2),
        ([np.nan, 1.0, 2.0, np.nan], 3),  # NaN sorts last
        ([np.nan, np.nan], 1),
        ([2.0, 1.0], 5),  # k beyond the size
        ([2.0, 1.0], 0),
    ],
)
def test_top_k_order_edge_cases(scores, k):
    docs = np.array([7, 3, 5, 1, 9][: len(scores)], dtype=np.int64)
    s = np.array(scores, dtype=np.float32)
    assert np.array_equal(top_k_order(docs, s, k), _reference_top_k(docs, s, k))
