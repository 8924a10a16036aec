"""Seeded Zipf-vocabulary source-code corpus and query streams.

The corpus is what the engine indexes; the query streams are what it serves.
Everything is a pure function of ``(seed, Params)``: the same seed gives the
same Parquet bytes and the same queries.

Vocabulary. ``Params.vocab`` generated identifiers ranked by a Zipf law with
exponent ``Params.zipf_s``. The first ranks are source-code keywords
(``public``, ``import``...), the rest are syllable identifiers in the shapes
the StandardTokenizer grammar distinguishes (FIXTURES.md section 1): CamelCase
(``FooBar``), lower-case, dotted HOST names (``org.foo.bar``) and NUM-rule
mixed tokens (``v1.2.3``, ``x86_64``). Every vocabulary entry analyzes to
exactly one index term and no two entries to the same term, so the
generator knows each term's exact document frequency and the corpus's
``sum_ttf`` without running the analyzer. The 33 English stopwords are
interleaved at ``Params.stop_rate``; they never become terms.

Document lengths are log-normal (mean ``Params.mean_len`` tokens).

Queries use only plain ``[a-z0-9]`` terms, picked by their generated df:

  rare  1 <= df <= RARE_MAX_DF, drawn without replacement from the tail, so
        nearly every rare query term is new to the searcher's df cache
  mid   RARE_MAX_DF < df <= max_doc / 4
  head  the keywords (df near max_doc)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np

GENERATOR_VERSION = 1

KEYWORDS = ["public", "import", "class", "void", "return", "static", "new", "int"]
STOPWORDS = (
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)
RARE_MAX_DF = 200
_CONS = "b c d f g h j k l m n p r s t v w z br ch cl dr fl gr kr pl pr sh st th tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
LANGS = ["csharp", "python", "java", "markdown"]


@dataclasses.dataclass(frozen=True)
class Params:
    docs: int = 50_000
    vocab: int = 300_000
    zipf_s: float = 1.07
    mean_len: float = 90.0
    len_sigma: float = 0.7
    stop_rate: float = 0.15
    rows_per_group: int = 5_000

    def key(self, seed: int) -> str:
        blob = json.dumps([GENERATOR_VERSION, seed, dataclasses.asdict(self)], sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:16]


def _syllables() -> list[str]:
    return [c + v for c in _CONS for v in _VOWELS]


def make_vocab(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct surface forms; entry ``i`` is the word of Zipf rank ``i``.

    Distinctness is by lower-cased form, which is what the analyzer indexes.
    Shapes: ~6% dotted HOST names, ~4% NUM tokens, the rest identifiers of
    2-4 syllables, a third of them CamelCase.
    """
    syl = _syllables()
    seen = set(KEYWORDS) | set(STOPWORDS)
    words = list(KEYWORDS)
    while len(words) < n:
        m = int((n - len(words)) * 1.3) + 64
        parts = rng.integers(0, len(syl), size=(m, 4))
        nsyl = rng.integers(2, 5, size=m)
        shape = rng.random(m)
        nums = rng.integers(0, 100, size=(m, 3))
        for i in range(m):
            ps = [syl[j] for j in parts[i, : nsyl[i]]]
            s = shape[i]
            if s < 0.06:  # HOST: org.foo.barbaz
                w = "org." + ps[0] + "." + "".join(ps[1:])
            elif s < 0.08:  # NUM: v1.2.3-like version strings
                w = f"{ps[0][0]}{nums[i, 0]}.{nums[i, 1]}.{nums[i, 2]}"
            elif s < 0.10:  # NUM: x86_64-like (a '_' between digit runs stays one token)
                w = f"{''.join(ps[:2])}{nums[i, 0]}_{nums[i, 1]}"
            elif s < 0.43:  # CamelCase
                w = "".join(p.capitalize() for p in ps)
            else:
                w = "".join(ps)
            low = w.lower()
            if low in seen:
                continue
            seen.add(low)
            words.append(w)
            if len(words) == n:
                break
    return words


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


@dataclasses.dataclass
class Corpus:
    """A generated corpus plus the facts the benchmark checks against."""

    params: Params
    seed: int
    contents: list[str]
    vocab: list[str]
    df: np.ndarray  # per vocabulary rank, exact
    sum_ttf: int
    content_bytes: int

    @property
    def max_doc(self) -> int:
        return len(self.contents)

    @property
    def distinct_terms(self) -> int:
        return int(np.count_nonzero(self.df))

    def table(self):
        import pyarrow as pa

        n = self.max_doc
        rng = np.random.default_rng([self.seed, 1])
        lang = rng.integers(0, len(LANGS), size=n)
        repo = rng.integers(0, 300, size=n)
        return pa.table(
            {
                "repo": [f"org{r % 30}/proj{r}" for r in repo],
                "path": [f"src/module{i % 97}/File{i}.txt" for i in range(n)],
                "lang": [LANGS[i] for i in lang],
                "content": self.contents,
            }
        )


def generate(params: Params, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 0])
    vocab = make_vocab(rng, params.vocab)
    n = params.docs
    mu = np.log(params.mean_len) - params.len_sigma**2 / 2
    lens = np.clip(np.rint(rng.lognormal(mu, params.len_sigma, size=n)), 1, 4000).astype(np.int64)
    total = int(lens.sum())
    ranks = np.searchsorted(_zipf_cdf(params.vocab, params.zipf_s), rng.random(total), side="right")
    ranks = np.minimum(ranks, params.vocab - 1)
    is_stop = rng.random(total) < params.stop_rate
    stop_pick = rng.integers(0, len(STOPWORDS), size=total)

    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    term_ranks = ranks[~is_stop]
    pairs = np.unique(doc_of[~is_stop] * params.vocab + term_ranks)
    df = np.bincount(pairs % params.vocab, minlength=params.vocab).astype(np.int64)

    flat = np.asarray(vocab, dtype=object)[ranks]
    flat[is_stop] = np.asarray(STOPWORDS, dtype=object)[stop_pick[is_stop]]
    offs = np.concatenate(([0], np.cumsum(lens))).tolist()
    flat_l = flat.tolist()
    contents = [" ".join(flat_l[offs[i] : offs[i + 1]]) for i in range(n)]
    content_bytes = sum(len(c.encode()) for c in contents)
    return Corpus(params, seed, contents, vocab, df, int(term_ranks.size), content_bytes)


def _plain(word: str) -> bool:
    low = word.lower()
    return low.isascii() and low.isalnum()


@dataclasses.dataclass
class TermPools:
    rare: list[str]
    mid: list[str]
    head: list[str]


def term_pools(corpus: Corpus) -> TermPools:
    """Query-term pools by generated df, analyzed (lower-cased) form."""
    mid_max = max(RARE_MAX_DF + 1, corpus.max_doc // 4)
    rare, mid = [], []
    for r in range(len(KEYWORDS), len(corpus.vocab)):
        d = int(corpus.df[r])
        w = corpus.vocab[r]
        if d == 0 or not _plain(w):
            continue
        if d <= RARE_MAX_DF:
            rare.append(w.lower())
        elif d <= mid_max:
            mid.append(w.lower())
    return TermPools(rare=rare, mid=mid, head=list(KEYWORDS))


def hot_mid(pools: TermPools, seed: int, n: int = 48) -> list[str]:
    """One mid term from each of ``n`` equal slices of the mid pool, which is
    in rank (df-descending) order, so every seed's hot set has the same df
    profile."""
    rng = np.random.default_rng([seed, 3])
    edges = np.linspace(0, len(pools.mid), min(n, len(pools.mid)) + 1).astype(int)
    return [pools.mid[rng.integers(lo, hi)] for lo, hi in zip(edges, edges[1:]) if hi > lo]


def point_queries(pools: TermPools, n: int, seed: int) -> list[str]:
    """serve_point mix, in a fixed pattern of ten: five single rare terms,
    three ``+rare +head``, two ``rare mid``. Rare terms are drawn without
    replacement (while the pool lasts); head terms cycle through the
    keywords and mid terms through the hot set, so seeds differ only in
    which rare and mid terms they name."""
    rng = np.random.default_rng([seed, 2])
    rare = rng.permutation(len(pools.rare))
    mid = hot_mid(pools, seed)
    out = []
    for i in range(n):
        r = pools.rare[rare[i % len(rare)]]
        kind = i % 10
        if kind < 5:
            out.append(r)
        elif kind < 8:
            out.append(f"+{r} +{pools.head[i % len(pools.head)]}")
        else:
            out.append(f"{r} {mid[(i // 10) % len(mid)]}")
    return out


def bulk_queries(pools: TermPools, n: int, seed: int) -> list[str]:
    """serve_bulk: OR queries of one head term (cycling through the
    keywords) plus 1-3 (cycling) terms of the hot mid set (df > RARE_MAX_DF)."""
    rng = np.random.default_rng([seed, 4])
    hot = hot_mid(pools, seed)
    out = []
    for i in range(n):
        picks = rng.choice(len(hot), size=1 + i % 3, replace=False)
        out.append(" ".join([pools.head[i % len(pools.head)], *(hot[j] for j in picks)]))
    return out


def query_terms(q: str) -> list[str]:
    return [t.lstrip("+") for t in q.split()]


def query_properties(queries: list[str], df_of: dict[str, int], before: tuple[str, ...] | list[str] = ()) -> dict:
    """Cold share (first-seen terms / query terms) and mean df of query terms
    of ``queries``, served after ``before``."""
    seen = {t for q in before for t in query_terms(q)}
    n_terms = cold = 0
    dfs = []
    for q in queries:
        for t in query_terms(q):
            n_terms += 1
            dfs.append(df_of.get(t, 0))
            if t not in seen:
                seen.add(t)
                cold += 1
    return {
        "query_terms": n_terms,
        "cold_share": cold / max(1, n_terms),
        "mean_query_df": float(np.mean(dfs)) if dfs else 0.0,
    }


def df_lookup(corpus: Corpus) -> dict[str, int]:
    return {w.lower(): int(d) for w, d in zip(corpus.vocab, corpus.df) if d}


def cached_corpus(cache_dir: str, params: Params, seed: int, keep: int = 8) -> tuple[Corpus, str]:
    """Generate (or reuse) the corpus and its Parquet file under ``cache_dir``.

    Entries are keyed by (generator version, seed, params); the generated
    arrays are kept beside the Parquet so a hit skips generation entirely.
    At most ``keep`` entries are kept, oldest evicted first."""
    import pyarrow.parquet as pq

    key = params.key(seed)
    d = os.path.join(cache_dir, key)
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        os.utime(done)
        z = np.load(os.path.join(d, "facts.npz"), allow_pickle=False)
        contents = pq.read_table(os.path.join(d, "corpus", "part-0.parquet"), columns=["content"])
        corpus = Corpus(
            params, seed, contents.column("content").to_pylist(), z["vocab"].tolist(),
            z["df"], int(z["sum_ttf"]), int(z["content_bytes"]),
        )
        return corpus, os.path.join(d, "corpus")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(d, "corpus"))
    corpus = generate(params, seed)
    pq.write_table(corpus.table(), os.path.join(d, "corpus", "part-0.parquet"), row_group_size=params.rows_per_group)
    np.savez(
        os.path.join(d, "facts.npz"), vocab=np.asarray(corpus.vocab), df=corpus.df,
        sum_ttf=corpus.sum_ttf, content_bytes=corpus.content_bytes,
    )
    open(done, "w").close()
    entries = sorted(
        (os.path.getmtime(os.path.join(cache_dir, e, "_DONE")), e)
        for e in os.listdir(cache_dir)
        if os.path.exists(os.path.join(cache_dir, e, "_DONE"))
    )
    for _, e in entries[:-keep]:
        shutil.rmtree(os.path.join(cache_dir, e), ignore_errors=True)
    return corpus, os.path.join(d, "corpus")
