"""Query model + classic-syntax parser subset.

Query tree mirrors the reference's composable model (SURVEY.md §2.6):
  TermQuery      /root/reference/src/Lucene.Net.Core/Search/TermQuery.cs:50
  BooleanQuery   /root/reference/src/Lucene.Net.Core/Search/BooleanQuery.cs:118-132
                 (MUST / SHOULD / MUST_NOT occurs + minNrShouldMatch)
  PrefixQuery    /root/reference/src/Lucene.Net.Core/Search/PrefixQuery.cs:37
  TermRangeQuery /root/reference/src/Lucene.Net.Core/Search/TermRangeQuery.cs:44
  WildcardQuery  /root/reference/src/Lucene.Net.Core/Search/WildcardQuery.cs:45
  FuzzyQuery     /root/reference/src/Lucene.Net.Core/Search/FuzzyQuery.cs:57
  MatchAllDocsQuery, ConstantScoreQuery

Parser covers the classic syntax subset (QueryParser/Classic/QueryParser.cs:112):
terms, +must / -not prefixes, AND/OR/NOT, parentheses, field:term, te*t / te?t
wildcards, prefix*, fuzzy~N, [a TO b] ranges, ^boost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

MUST = "MUST"
SHOULD = "SHOULD"
MUST_NOT = "MUST_NOT"


@dataclass(frozen=True)
class Query:
    boost: float = 1.0


@dataclass(frozen=True)
class TermQuery(Query):
    field: str = "content"
    term: str = ""


@dataclass(frozen=True)
class BooleanClause:
    query: "Query"
    occur: str = SHOULD  # MUST | SHOULD | MUST_NOT


@dataclass(frozen=True)
class BooleanQuery(Query):
    clauses: tuple[BooleanClause, ...] = ()
    min_should_match: int = 0


@dataclass(frozen=True)
class PhraseQuery(Query):
    """Exact (slop=0) or sloppy phrase over consecutive positions.

    Reference: /root/reference/src/Lucene.Net.Core/Search/PhraseQuery.cs:51,
    ExactPhraseScorer.cs:26 (positions must align), SloppyPhraseScorer.cs:31.
    Scored through the same SimScorer with tf = phrase frequency and
    weight = SUM of the terms' idfs (BM25Similarity.IdfExplain over the term
    array, BM25Similarity.cs:205-222).
    """

    field: str = "content"
    terms: tuple[str, ...] = ()
    slop: int = 0
    # analyzed positions of the terms within the query (gaps where stopwords
    # were removed, like QueryParserBase.GetFieldQuery); () = consecutive
    positions: tuple[int, ...] = ()

    def term_positions(self) -> tuple[int, ...]:
        return self.positions if self.positions else tuple(range(len(self.terms)))


@dataclass(frozen=True)
class MultiPhraseQuery(Query):
    """Phrase where each position matches ANY of several terms — the
    MultiPhraseQuery analog (reference Search/MultiPhraseQuery.cs:47, built
    by QueryParser for synonym-expanded phrases). Scored like PhraseQuery:
    tf = phrase frequency over the per-position UNION of postings
    (UnionDocsAndPositionsEnum, MultiPhraseQuery.cs:521 — duplicate
    (doc,position) hits from terms co-located by a synonym filter are
    deduped here), weight = f32-summed idfs of EVERY term in declaration
    order (MultiPhraseWeight sums all TermStatistics, including df=0
    terms)."""

    field: str = "content"
    positions_terms: tuple[tuple[str, ...], ...] = ()
    slop: int = 0
    positions: tuple[int, ...] = ()  # analyzed positions; () = consecutive

    def term_positions(self) -> tuple[int, ...]:
        return self.positions if self.positions else tuple(range(len(self.positions_terms)))


@dataclass(frozen=True)
class DisjunctionMaxQuery(Query):
    """max(clause scores) + tie_breaker * sum(other matching clause scores)
    (reference Search/DisjunctionMaxQuery.cs:46)."""

    disjuncts: tuple[Query, ...] = ()
    tie_breaker: float = 0.0


@dataclass(frozen=True)
class PrefixQuery(Query):
    field: str = "content"
    prefix: str = ""
    max_expansions: int = 1024


@dataclass(frozen=True)
class TermRangeQuery(Query):
    field: str = "content"
    lower: str | None = None
    upper: str | None = None
    include_lower: bool = True
    include_upper: bool = True
    max_expansions: int = 1024


@dataclass(frozen=True)
class WildcardQuery(Query):
    field: str = "content"
    pattern: str = ""  # * = any run, ? = one char
    max_expansions: int = 1024


@dataclass(frozen=True)
class RegexpQuery(Query):
    """Regexp over the term dictionary, anchored at both ends like the
    reference (/root/reference/src/Lucene.Net.Core/Search/RegexpQuery.cs:49 —
    'Comparisons are fast' because the automaton only walks matching dict
    ranges; here: literal-prefix range scan + compiled-regex filter, the same
    plan as WildcardQuery). Pattern syntax is the Python ``re`` subset rather
    than Lucene's RegExp class; both anchor the whole term."""

    field: str = "content"
    pattern: str = ""
    max_expansions: int = 1024


@dataclass(frozen=True)
class FuzzyQuery(Query):
    field: str = "content"
    term: str = ""
    max_edits: int = 2  # FuzzyQuery.cs:59 caps at 2
    prefix_length: int = 0
    max_expansions: int = 50


@dataclass(frozen=True)
class MatchAllDocsQuery(Query):
    pass


@dataclass(frozen=True)
class FieldRangeFilter:
    """Docs-table predicate: lower <= docs[field] <= upper (None = unbounded).
    The idiomatic Arrow-side replacement for trie-coded NumericRangeQuery /
    NumericRangeFilter (reference Search/NumericRangeQuery.cs:174,
    Util/NumericUtils.cs:339) and for TermRangeFilter on stored fields.
    include_lower/include_upper mirror the reference filters' inclusive
    flags (TermRangeFilter.cs:41, NumericRangeQuery.cs:174)."""

    field: str = ""
    lower: object = None
    upper: object = None
    include_lower: bool = True
    include_upper: bool = True


@dataclass(frozen=True)
class QueryFilter:
    """A query used as a non-scoring filter — the QueryWrapperFilter analog
    (reference Search/QueryWrapperFilter.cs:31: 'the resulting Filter is
    cached'; here evaluation is already per-segment-batch so no cache is
    needed). TermsFilter (Queries/TermsFilter.cs) and BooleanFilter
    (Queries/BooleanFilter.cs) lower to this via terms_filter /
    boolean_filter."""

    query: "Query" = None


def terms_filter(field: str, terms: tuple[str, ...] | list[str]) -> QueryFilter:
    """TermsFilter analog (reference Queries/TermsFilter.cs:35): docs whose
    ``field`` contains ANY of the terms."""
    return QueryFilter(
        query=BooleanQuery(
            clauses=tuple(
                BooleanClause(TermQuery(field=field, term=t), SHOULD) for t in terms
            )
        )
    )


def boolean_filter(clauses: list[tuple[object, str]]) -> QueryFilter:
    """BooleanFilter analog (reference Queries/BooleanFilter.cs:30): SHOULD
    filters OR'd, the result NOT'd with MUST_NOT filters, AND'd with MUST
    filters. Only-MUST_NOT input matches the complement (the reference
    starts from a full bitset in that case) — reproduced by adding a
    MatchAll SHOULD clause. Each clause filter is a FieldRangeFilter or a
    QueryFilter."""
    bclauses = []
    n_should = n_must = 0
    for f, occur in clauses:
        if isinstance(f, QueryFilter):
            sub: Query = f.query
        elif isinstance(f, FieldRangeFilter):
            sub = FilteredQuery(query=MatchAllDocsQuery(), filter=f)
        else:
            raise TypeError(f"unsupported filter in boolean_filter: {f!r}")
        if occur == SHOULD:
            n_should += 1
        elif occur == MUST:
            n_must += 1
        bclauses.append(BooleanClause(sub, occur))
    if n_should == 0 and n_must == 0:
        bclauses.append(BooleanClause(MatchAllDocsQuery(), SHOULD))
    # unlike scoring BooleanQuery (shoulds optional when a must exists), the
    # filter requires >= 1 SHOULD to match whenever any were given
    msm = 1 if (n_should > 0 and n_must > 0) else 0
    return QueryFilter(query=BooleanQuery(clauses=tuple(bclauses), min_should_match=msm))


@dataclass(frozen=True)
class DuplicateFilter:
    """Query-time dedup by a stored key field — the DuplicateFilter analog
    (reference contrib/Queries/DuplicateFilter.cs:29): of all docs sharing a
    key value, only the first (lowest docID) or last survives; docs with a
    null key are excluded (the reference's PM_FULL_VALIDATION 'assume all
    are INvalid' start). Like the reference, dedup scope is one reader —
    per segment group here."""

    field: str = ""
    keep: str = "first"  # KM_USE_FIRST_OCCURRENCE | "last"


@dataclass(frozen=True)
class ChainedFilter:
    """Sequential filter combination — the ChainedFilter analog (reference
    contrib/Queries/ChainedFilter.cs:34): start from the first filter's doc
    set, then fold each subsequent (filter, op) with op in AND / OR /
    ANDNOT / XOR. Evaluated as sorted-docid set algebra in the scorer (no
    query-tree lowering, so XOR chains don't blow up the tree). Each
    element filter is a FieldRangeFilter, QueryFilter, DuplicateFilter or
    nested ChainedFilter; the first clause's op is ignored like the
    reference's initial result."""

    clauses: tuple = ()  # ((filter, "AND"|"OR"|"ANDNOT"|"XOR"), ...)


@dataclass(frozen=True)
class CachedFilter:
    """CachingWrapperFilter analog (reference
    Search/CachingWrapperFilter.cs:33): the wrapped filter's doc set is
    computed once per reader and memoized on the scorer (keyed by the
    frozen filter value), so repeated filtered queries skip re-evaluation."""

    filter: object = None


@dataclass(frozen=True)
class FilteredQuery(Query):
    """query scores, filter restricts (reference Search/FilteredQuery.cs:41).
    ``filter`` is a FieldRangeFilter (docs-table predicate), QueryFilter
    (posting-list predicate), DuplicateFilter, or a CachedFilter wrapping
    any of them."""

    query: "Query" = None
    filter: object = None


@dataclass(frozen=True)
class BoostingQuery(Query):
    """match-query scores; docs ALSO matching the context query get their
    score multiplied by ``demote`` (reference Queries/BoostingQuery.cs:41 —
    context matches never add docs, context boost is zeroed)."""

    match: "Query" = None
    context: "Query" = None
    demote: float = 0.0


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    query: Query = dc_field(default_factory=MatchAllDocsQuery)


# ---------------------------------------------------------------------------
# Classic-syntax parser subset
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() | (?P<rparen>\)) |
        (?P<and>AND\b) | (?P<or>OR\b) | (?P<not>NOT\b) |
        (?P<plus>\+) | (?P<minus>-) |
        (?P<range>\[[^\]]*\ TO\ [^\]]*\]) |
        (?P<phrase>(?:[^\s()+\-":][^\s()":]*:)?"[^"]*"(?:~\d+)?) |
        (?P<regex>[^\s()+\-/]*:?/[^/]+/) |
        (?P<atom>[^\s()+\-][^\s()]*)
    )""",
    re.VERBOSE,
)


class QueryParseError(ValueError):
    pass


def parse_query(
    s: str,
    default_field: str = "content",
    analyzer=None,
    *,
    analyze_multiterm: bool = False,
    allow_leading_wildcard: bool = True,
    extensions: dict | None = None,
) -> Query:
    """Parse the classic-syntax subset into a Query tree.

    Bare multi-term input produces a BooleanQuery of SHOULD clauses (the
    classic parser's default OR operator). The analyzer (default: standard)
    is applied to term text, like QueryParserBase.GetFieldQuery.

    ``analyze_multiterm=True`` is the AnalyzingQueryParser mode (reference
    QueryParser/Analyzing/AnalyzingQueryParser.cs:74-246): wildcard, prefix,
    fuzzy and range operands are ALSO passed through the analyzer — wildcard
    characters ``*``/``?`` survive, each non-wildcard chunk must analyze to
    exactly one token (multiple or zero tokens raise, mirroring
    AnalyzeSingleChunk), and leading wildcards raise unless
    ``allow_leading_wildcard`` (the mode flips its default to False, like
    the classic parser's allowLeadingWildcard).
    """
    from .functions.analysis import Analyzer

    analyzer = analyzer or Analyzer()
    tokens = _tokenize_query(s)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, None)

    def advance():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_or():
        left = parse_and()
        while peek()[0] == "or":
            advance()
            right = parse_and()
            left = _bool_join(left, right, SHOULD)
        return left

    def parse_and():
        left = parse_unary()
        while peek()[0] == "and":
            advance()
            right = parse_unary()
            left = _bool_join(left, right, MUST)
        return left

    def parse_unary():
        kind, _ = peek()
        if kind == "not":
            advance()
            inner = parse_unary()
            return BooleanQuery(
                clauses=(
                    BooleanClause(MatchAllDocsQuery(), MUST),
                    BooleanClause(inner, MUST_NOT),
                )
            )
        return parse_clause_seq()

    def parse_clause_seq():
        clauses: list[BooleanClause] = []
        while True:
            kind, text = peek()
            if kind in (None, "rparen", "and", "or", "not"):
                break
            occur = SHOULD
            if kind == "plus":
                advance()
                occur = MUST
                kind, text = peek()
            elif kind == "minus":
                advance()
                occur = MUST_NOT
                kind, text = peek()
            if kind == "lparen":
                advance()
                q = parse_or()
                if peek()[0] != "rparen":
                    raise QueryParseError("unbalanced parentheses")
                advance()
                q = _apply_boost_suffix(q)
            elif kind == "phrase":
                _, text = advance()
                field = default_field
                if not text.startswith('"'):
                    field, text = text.split(":", 1)
                q = _parse_phrase(text, field, analyzer)
                if q is None:
                    continue
                q = _apply_boost_suffix(q)
            elif kind == "regex":
                _, text = advance()
                field = default_field
                if not text.startswith("/"):
                    field, text = text.split(":", 1)
                q = RegexpQuery(field=field, pattern=text[1:-1])
            elif kind in ("atom", "range"):
                _, text = advance()
                q = _parse_atom(
                    text,
                    default_field,
                    analyzer,
                    analyze_multiterm=analyze_multiterm,
                    allow_leading_wildcard=allow_leading_wildcard,
                    extensions=extensions,
                )
                if q is None:
                    continue
            else:
                raise QueryParseError(f"unexpected token {kind}")
            clauses.append(BooleanClause(q, occur))
        if not clauses:
            raise QueryParseError("empty query")
        if len(clauses) == 1 and clauses[0].occur != MUST_NOT:
            return clauses[0].query
        return BooleanQuery(clauses=tuple(clauses))

    def _apply_boost_suffix(q):
        kind, text = peek()
        if kind == "atom" and text.startswith("^"):
            advance()
            try:
                return _with_boost(q, float(text[1:]))
            except ValueError as e:
                raise QueryParseError(f"bad boost {text}") from e
        return q

    q = parse_or()
    if pos[0] != len(tokens):
        raise QueryParseError(f"trailing input at token {pos[0]}")
    return q


def parse_query_analyzing(
    s: str,
    default_field: str = "content",
    analyzer=None,
    *,
    allow_leading_wildcard: bool = False,
) -> Query:
    """AnalyzingQueryParser analog (reference
    QueryParser/Analyzing/AnalyzingQueryParser.cs): classic syntax, but
    fuzzy/prefix/range/wildcard operands are also passed through the
    analyzer (wildcard characters survive; each chunk must analyze to one
    token). Leading wildcards are rejected by default, like the classic
    parser's allowLeadingWildcard=false."""
    return parse_query(
        s,
        default_field=default_field,
        analyzer=analyzer,
        analyze_multiterm=True,
        allow_leading_wildcard=allow_leading_wildcard,
    )


def parse_query_extendable(
    s: str,
    default_field: str = "content",
    analyzer=None,
    extensions: dict | None = None,
) -> Query:
    """ExtendableQueryParser analog (reference QueryParser/Ext/): classic
    syntax plus extension-field atoms ``field:key:term`` (or ``:key:term``
    for the default field). ``extensions`` maps extension keys to callables
    ``fn(ExtensionQuery) -> Query`` (the ParserExtension.Parse plug-point);
    unregistered keys and plain atoms fall through to classic behavior,
    exactly like the reference when GetExtension returns null."""
    return parse_query(
        s,
        default_field=default_field,
        analyzer=analyzer,
        extensions=extensions or {},
    )


def _tokenize_query(s: str) -> list[tuple[str, str]]:
    out = []
    i = 0
    while i < len(s):
        m = _TOKEN_RE.match(s, i)
        if not m or m.end() == i:
            if s[i].isspace():
                i += 1
                continue
            raise QueryParseError(f"cannot lex query at {i}: {s[i:]!r}")
        i = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    return out


def _analyze_single_chunk(analyzer, chunk: str) -> str:
    """AnalyzeSingleChunk analog (reference AnalyzingQueryParser.cs:190-246):
    the chunk must come out of the analyzer as exactly one token."""
    toks = analyzer(chunk)
    if not toks:
        raise QueryParseError(f'analyzer returned nothing for "{chunk}"')
    if len(toks) > 1:
        raise QueryParseError(
            f'analyzer created multiple terms for "{chunk}": {toks}'
        )
    return toks[0]


# gobble escaped chars or find a run of wildcard characters.
# Upstream-Java semantics (Pattern.compile("(\\\\.)|([?*]+)") — backslash
# + any char). The shipped reference's AnalyzingQueryParser.cs:35 carries
# the Sharpen-mangled "(\\.)" (a LITERAL DOT in C# regex), which loses
# escape handling entirely and instead treats '.' as a chunk separator —
# a port bug, not intended semantics, so we keep the Java behavior:
# 'foo\*bar' analyzes as one chunk with the '*' suppressed.
_WILDCARD_CHUNK_RE = re.compile(r"(\\.)|([?*]+)")


def _analyze_wildcard_operand(analyzer, text: str) -> str:
    """GetWildcardQuery analog: analyze each non-wildcard chunk, keep the
    ``*``/``?`` runs verbatim (reference AnalyzingQueryParser.cs:74-113)."""
    out: list[str] = []
    last = 0
    for m in _WILDCARD_CHUNK_RE.finditer(text):
        if m.group(1) is not None:
            continue  # escaped char rides along with its chunk
        if m.start() > last:
            out.append(_analyze_single_chunk(analyzer, text[last : m.start()]))
        out.append(m.group(2))
        last = m.end()
    if last < len(text):
        out.append(_analyze_single_chunk(analyzer, text[last:]))
    return "".join(out)


class ExtensionQuery(NamedTuple):
    """Argument handed to a ParserExtension callable (reference
    QueryParser/Ext/ExtensionQuery.cs): the resolved index field and the
    raw (unescaped) extension term."""

    field: str
    term: str


# an extension-field atom: `field:key:term` / `:key:term` — the key rides
# between the field symbol and the term, separated by the default ':'
# delimiter (reference Ext/Extensions.cs:139-152 SplitExtensionField)
_EXT_FIELD_RE = re.compile(r"^(?P<f>[^:]*):(?P<key>[^:]+):(?P<term>.+)$", re.DOTALL)


def _parse_atom(
    text: str,
    default_field: str,
    analyzer,
    *,
    analyze_multiterm: bool = False,
    allow_leading_wildcard: bool = True,
    extensions: dict | None = None,
) -> Query | None:
    field = default_field
    boost = 1.0
    if "^" in text:
        text, bs = text.rsplit("^", 1)
        boost = float(bs)
    if extensions:
        m = _EXT_FIELD_RE.match(text)
        if m and m.group("key") in extensions:
            # ExtendableQueryParser.GetFieldQuery analog (reference
            # Ext/ExtendableQueryParser.cs:135-147): resolve the key, hand
            # the (field, unescaped term) to the registered extension;
            # empty field symbol means the default field.
            eq = ExtensionQuery(
                field=m.group("f") or default_field,
                term=re.sub(r"\\(.)", r"\1", m.group("term")),
            )
            q = extensions[m.group("key")](eq)
            return _with_boost(q, boost) if boost != 1.0 else q
    if ":" in text:
        field, text = text.split(":", 1)

    def _term(raw: str) -> str:
        # multi-term operands bypass full analysis in the classic parser
        # (lowercased verbatim); the analyzing mode runs the analyzer and
        # requires a single output token (SetAnalyzeRangeTerms(true) for
        # ranges, GetPrefix/Fuzzy overrides for the rest).
        if analyze_multiterm:
            return _analyze_single_chunk(analyzer, raw)
        return raw.lower()

    if text.startswith("[") and text.endswith("]") and " TO " in text:
        lo, hi = text[1:-1].split(" TO ")
        lo = None if lo.strip() == "*" else _term(lo.strip())
        hi = None if hi.strip() == "*" else _term(hi.strip())
        return TermRangeQuery(boost=boost, field=field, lower=lo, upper=hi)
    m = re.match(r"^(.*)~(\d*)$", text)
    if m and m.group(1):
        edits = int(m.group(2)) if m.group(2) else 2
        return FuzzyQuery(boost=boost, field=field, term=_term(m.group(1)), max_edits=min(edits, 2))
    if "*" in text or "?" in text:
        if not allow_leading_wildcard and text[0] in "*?":
            raise QueryParseError(
                "'*' or '?' not allowed as first character in WildcardQuery "
                "unless allow_leading_wildcard is set"
            )
        if text.endswith("*") and "*" not in text[:-1] and "?" not in text:
            return PrefixQuery(boost=boost, field=field, prefix=_term(text[:-1]))
        if analyze_multiterm:
            pattern = _analyze_wildcard_operand(analyzer, text)
        else:
            pattern = text.lower()
        return WildcardQuery(boost=boost, field=field, pattern=pattern)
    terms = analyzer(text)
    if not terms:
        return None
    if len(terms) == 1:
        return TermQuery(boost=boost, field=field, term=terms[0])
    return BooleanQuery(
        boost=boost,
        clauses=tuple(BooleanClause(TermQuery(field=field, term=t), SHOULD) for t in terms),
    )


def _parse_phrase(text: str, field: str, analyzer) -> Query | None:
    slop = 0
    m = re.match(r'^"(.*)"(?:~(\d+))?$', text)
    body = m.group(1)
    if m.group(2):
        slop = int(m.group(2))
    terms, positions = analyzer.analyze_text_positions(body)
    if not terms:
        return None
    if len(terms) == 1:
        return TermQuery(field=field, term=terms[0])
    return PhraseQuery(field=field, terms=tuple(terms), slop=slop, positions=tuple(positions))


def parse_complex_phrase(
    s: str, default_field: str = "content", analyzer=None
) -> Query:
    """ComplexPhraseQueryParser subset (reference
    QueryParsers/ComplexPhrase/ComplexPhraseQueryParser.cs:49): a quoted
    phrase whose elements may be wildcards, prefixes, fuzzy terms or ranges,
    lowered to a SpanNearQuery of SpanTerm/SpanMultiTerm clauses.
    ``'"foo* ba?r"~2'`` or a bare ``'foo* bar'``. in_order = (slop == 0),
    matching the reference's rewrite. Evaluate with
    ``spans.span_search`` (which expands the multiterm clauses
    searcher-level, the SpanMultiTermQueryWrapper rewrite)."""
    from .functions.analysis import Analyzer
    from .pipelines.spans import SpanMultiTermQuery, SpanNearQuery, SpanTermQuery

    analyzer = analyzer or Analyzer()
    s = s.strip()
    slop = 0
    m = re.match(r'^"(.*)"(?:~(\d+))?$', s)
    if m:
        body = m.group(1)
        if m.group(2):
            slop = int(m.group(2))
    else:
        body = s
    clauses: list[Query] = []
    for raw in body.split():
        atom = _parse_atom(raw, default_field, analyzer)
        if atom is None:
            continue
        if isinstance(atom, TermQuery):
            clauses.append(SpanTermQuery(field=default_field, term=atom.term))
        elif isinstance(atom, (PrefixQuery, WildcardQuery, FuzzyQuery, TermRangeQuery, RegexpQuery)):
            clauses.append(SpanMultiTermQuery(field=default_field, query=atom))
        elif isinstance(atom, BooleanQuery):
            # analyzer split one ws token into several terms: nested exact near
            clauses.append(
                SpanNearQuery(
                    clauses=tuple(
                        SpanTermQuery(field=default_field, term=c.query.term)
                        for c in atom.clauses
                    ),
                    slop=0,
                    in_order=True,
                    field=default_field,
                )
            )
        else:
            raise ValueError(f"unsupported complex-phrase element: {raw!r}")
    if not clauses:
        raise ValueError(f"empty complex phrase: {s!r}")
    if len(clauses) == 1:
        return clauses[0]
    return SpanNearQuery(
        clauses=tuple(clauses), slop=slop, in_order=(slop == 0), field=default_field
    )


def parse_surround(
    s: str, default_field: str = "content", analyzer=None
) -> Query:
    """Surround query-parser subset (reference QueryParsers/Surround/ —
    Parser/QueryParser.cs distance syntax): proximity operators ``W``
    (ordered) and ``N`` (unordered) with an optional distance prefix
    (``3W``, ``5N``; default distance 1 = adjacent), ``OR``, ``NOT``
    (span-not), parentheses, and wildcard/prefix atoms. Lowers to the span
    family: ``a 3W b`` -> SpanNear(slop=2, in_order=True); ``a N b`` ->
    SpanNear(slop=0, in_order=False); ``a OR b`` -> SpanOr; ``a NOT b`` ->
    SpanNot. ``AND`` (no proximity semantics) is not in the subset —
    compose with the classic parser instead. Evaluate with spans.span_search.
    """
    from .functions.analysis import Analyzer
    from .pipelines.spans import (
        SpanMultiTermQuery,
        SpanNearQuery,
        SpanNotQuery,
        SpanOrQuery,
        SpanTermQuery,
    )

    analyzer = analyzer or Analyzer()
    toks = re.findall(r"\(|\)|[^\s()]+", s)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    _NEAR_RE = re.compile(r"^(\d*)([WwNn])$")

    def atom() -> Query:
        t = peek()
        if t == "(":
            take()
            q = or_expr()
            if peek() != ")":
                raise ValueError(f"unbalanced parens in surround query: {s!r}")
            take()
            return q
        if t is None or t == ")" or t.upper() in ("OR", "NOT", "AND") or _NEAR_RE.match(t):
            raise ValueError(f"expected term at {t!r} in surround query: {s!r}")
        take()
        a = _parse_atom(t, default_field, analyzer)
        if isinstance(a, TermQuery):
            return SpanTermQuery(field=default_field, term=a.term)
        if isinstance(a, (PrefixQuery, WildcardQuery, FuzzyQuery, TermRangeQuery, RegexpQuery)):
            return SpanMultiTermQuery(field=default_field, query=a)
        raise ValueError(f"unsupported surround atom: {t!r}")

    def near_expr() -> Query:
        left = atom()
        while True:
            t = peek()
            m = _NEAR_RE.match(t) if t and t not in ("(", ")") else None
            if not m:
                return left
            take()
            dist = int(m.group(1)) if m.group(1) else 1
            ordered = m.group(2) in "Ww"
            # chain same-operator runs into one n-ary near (surround is n-ary)
            clauses = [left, atom()]
            while True:
                t2 = peek()
                m2 = _NEAR_RE.match(t2) if t2 and t2 not in ("(", ")") else None
                if (
                    m2
                    and (int(m2.group(1)) if m2.group(1) else 1) == dist
                    and (m2.group(2) in "Ww") == ordered
                ):
                    take()
                    clauses.append(atom())
                else:
                    break
            left = SpanNearQuery(
                clauses=tuple(clauses), slop=dist - 1, in_order=ordered, field=default_field
            )

    def not_expr() -> Query:
        left = near_expr()
        while peek() and peek().upper() == "NOT":
            take()
            left = SpanNotQuery(include=left, exclude=near_expr(), field=default_field)
        return left

    def or_expr() -> Query:
        left = not_expr()
        clauses = [left]
        while peek() and peek().upper() == "OR":
            take()
            clauses.append(not_expr())
        if len(clauses) == 1:
            return left
        return SpanOrQuery(clauses=tuple(clauses), field=default_field)

    if not toks:
        raise ValueError("empty surround query")
    if any(t.upper() == "AND" for t in toks):
        raise ValueError("surround subset does not support AND (use the classic parser)")
    q = or_expr()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in surround query: {toks[pos:]!r}")
    return q


def parse_multi_field(
    s: str, fields: tuple[str, ...], default_field: str = "content", analyzer=None
) -> Query:
    """MultiFieldQueryParser analog (reference QueryParser/MultiFieldQueryParser.cs:19):
    clauses left on the default field are expanded to a SHOULD disjunction of
    the same clause over every listed field; explicit ``field:`` prefixes are
    untouched."""
    import dataclasses

    q = parse_query(s, default_field=default_field, analyzer=analyzer)

    def expand(node: Query) -> Query:
        if isinstance(node, BooleanQuery):
            return dataclasses.replace(
                node,
                clauses=tuple(
                    BooleanClause(expand(c.query), c.occur) for c in node.clauses
                ),
            )
        if getattr(node, "field", None) == default_field:
            per_field = tuple(dataclasses.replace(node, field=f) for f in fields)
            return BooleanQuery(
                clauses=tuple(BooleanClause(p, SHOULD) for p in per_field)
            )
        return node

    return expand(q)


# ---------------------------------------------------------------------------
# SimpleQueryParser analog
# ---------------------------------------------------------------------------

# feature flags (reference Simple/SimpleQueryParser.cs:175-239)
SIMPLE_AND_OPERATOR = 1 << 0
SIMPLE_NOT_OPERATOR = 1 << 1
SIMPLE_OR_OPERATOR = 1 << 2
SIMPLE_PREFIX_OPERATOR = 1 << 3
SIMPLE_PHRASE_OPERATOR = 1 << 4
SIMPLE_PRECEDENCE_OPERATORS = 1 << 5
SIMPLE_ESCAPE_OPERATOR = 1 << 6
SIMPLE_WHITESPACE_OPERATOR = 1 << 7
SIMPLE_FUZZY_OPERATOR = 1 << 8
SIMPLE_NEAR_OPERATOR = 1 << 9

_SIMPLE_WS = (" ", "\t", "\n", "\r")


class _SimpleState:
    __slots__ = ("data", "index", "length", "current_op", "previous_op", "not_count", "top")

    def __init__(self, data: str, index: int, length: int):
        self.data = data
        self.index = index
        self.length = length
        self.current_op: str | None = None
        self.previous_op: str | None = None
        self.not_count = 0
        self.top: Query | None = None


class SimpleQueryParser:
    """SimpleQueryParser analog (reference
    QueryParsers/Simple/SimpleQueryParser.cs:139): a never-failing
    human-syntax parser. Operators: ``+`` AND, ``|`` OR, ``-`` NOT,
    ``"..."`` phrase (``"..."~N`` near), trailing ``*`` prefix, ``term~N``
    fuzzy, ``( )`` precedence, ``\\`` escape — each gateable via the
    SIMPLE_*_OPERATOR flags (default: all on). Syntax errors are never
    raised: unmatched parens/quotes are treated as extraneous characters,
    exactly like the reference's char-by-char state machine (ParseSubQuery /
    ConsumeSubQuery / ConsumePhrase / ConsumeToken / BuildQueryTree,
    SimpleQueryParser.cs:279-651).

    ``fields`` is a field name or a {field: weight} dict — multi-field
    queries become a SHOULD disjunction with per-field boosts
    (NewDefaultQuery, SimpleQueryParser.cs:737-753). ``parse`` returns None
    for input that yields no query (the reference's null)."""

    def __init__(
        self,
        fields: str | dict[str, float] = "content",
        *,
        analyzer=None,
        default_operator: str = SHOULD,
        flags: int = -1,
    ):
        from .functions.analysis import Analyzer

        if default_operator not in (SHOULD, MUST):
            raise ValueError("invalid operator: only SHOULD or MUST are allowed")
        self.weights = {fields: 1.0} if isinstance(fields, str) else dict(fields)
        self.analyzer = analyzer or Analyzer()
        self.default_operator = default_operator
        self.flags = flags

    def _has(self, flag: int) -> bool:
        return (self.flags & flag) != 0

    def parse(self, text: str) -> Query | None:
        state = _SimpleState(text, 0, len(text))
        self._parse_sub_query(state)
        return state.top

    # -- state machine (SimpleQueryParser.cs:279) ---------------------------

    def _parse_sub_query(self, state: _SimpleState) -> None:
        while state.index < state.length:
            c = state.data[state.index]
            if c == "(" and self._has(SIMPLE_PRECEDENCE_OPERATORS):
                self._consume_sub_query(state)
            elif c == ")" and self._has(SIMPLE_PRECEDENCE_OPERATORS):
                state.index += 1  # extraneous, ignored
            elif c == '"' and self._has(SIMPLE_PHRASE_OPERATOR):
                self._consume_phrase(state)
            elif c == "+" and self._has(SIMPLE_AND_OPERATOR):
                if state.current_op is None and state.top is not None:
                    state.current_op = MUST
                state.index += 1
            elif c == "|" and self._has(SIMPLE_OR_OPERATOR):
                if state.current_op is None and state.top is not None:
                    state.current_op = SHOULD
                state.index += 1
            elif c == "-" and self._has(SIMPLE_NOT_OPERATOR):
                # two '-' in a row negate each other; skip the not-reset below
                state.not_count += 1
                state.index += 1
                continue
            elif c in _SIMPLE_WS and self._has(SIMPLE_WHITESPACE_OPERATOR):
                state.index += 1
            else:
                self._consume_token(state)
            state.not_count = 0

    def _consume_sub_query(self, state: _SimpleState) -> None:
        state.index += 1
        start = state.index
        precedence = 1
        escaped = False
        while state.index < state.length:
            if not escaped:
                c = state.data[state.index]
                if c == "\\" and self._has(SIMPLE_ESCAPE_OPERATOR):
                    escaped = True
                    state.index += 1
                    continue
                if c == "(":
                    precedence += 1
                elif c == ")":
                    precedence -= 1
                    if precedence == 0:
                        break
            escaped = False
            state.index += 1
        if state.index == state.length:
            # no closing paren: the opening paren is extraneous
            state.index = start
        elif state.index == start:
            # "()": resets the pending operation
            state.current_op = None
            state.index += 1
        else:
            sub = _SimpleState(state.data, start, state.index)
            self._parse_sub_query(sub)
            self._build_query_tree(state, sub.top)
            state.index += 1

    def _consume_phrase(self, state: _SimpleState) -> None:
        state.index += 1
        start = state.index
        buf: list[str] = []
        escaped = False
        has_slop = False
        while state.index < state.length:
            if not escaped:
                c = state.data[state.index]
                if c == "\\" and self._has(SIMPLE_ESCAPE_OPERATOR):
                    escaped = True
                    state.index += 1
                    continue
                if c == '"':
                    if (
                        state.length > state.index + 1
                        and state.data[state.index + 1] == "~"
                        and self._has(SIMPLE_NEAR_OPERATOR)
                    ):
                        state.index += 1
                        if state.length > state.index + 1:
                            has_slop = True
                        break
                    break
            escaped = False
            buf.append(state.data[state.index])
            state.index += 1
        if state.index == state.length:
            state.index = start  # no closing quote: opening quote extraneous
        elif state.index == start:
            state.current_op = None  # "": resets the pending operation
            state.index += 1
        else:
            phrase = "".join(buf)
            slop = self._parse_fuzziness(state) if has_slop else 0
            self._build_query_tree(state, self._new_phrase_query(phrase, slop))
            state.index += 1

    def _consume_token(self, state: _SimpleState) -> None:
        buf: list[str] = []
        escaped = False
        prefix = False
        fuzzy = False
        while state.index < state.length:
            if not escaped:
                c = state.data[state.index]
                if c == "\\" and self._has(SIMPLE_ESCAPE_OPERATOR):
                    escaped = True
                    prefix = False
                    state.index += 1
                    continue
                if self._token_finished(state):
                    break
                if buf and c == "~" and self._has(SIMPLE_FUZZY_OPERATOR):
                    fuzzy = True
                    break
                prefix = bool(buf) and c == "*" and self._has(SIMPLE_PREFIX_OPERATOR)
            escaped = False
            buf.append(state.data[state.index])
            state.index += 1
        if buf:
            if fuzzy:
                token = "".join(buf)
                # LevenshteinAutomata.MAXIMUM_SUPPORTED_DISTANCE = 2
                fuzziness = min(self._parse_fuzziness(state), 2)
                branch = (
                    self._new_default_query(token)
                    if fuzziness == 0
                    else self._new_fuzzy_query(token, fuzziness)
                )
            elif prefix:
                branch = self._new_prefix_query("".join(buf[:-1]))
            else:
                branch = self._new_default_query("".join(buf))
            self._build_query_tree(state, branch)

    def _build_query_tree(self, state: _SimpleState, branch: Query | None) -> None:
        import dataclasses

        if branch is None:
            return
        if state.not_count % 2 == 1:
            branch = BooleanQuery(
                clauses=(
                    BooleanClause(branch, MUST_NOT),
                    BooleanClause(MatchAllDocsQuery(), SHOULD),
                )
            )
        if state.top is None:
            state.top = branch
        else:
            if state.current_op is None:
                state.current_op = self.default_operator
            if state.previous_op != state.current_op:
                # operation change: the old top becomes the first clause of a
                # new parent node (right-to-left precedence)
                state.top = BooleanQuery(clauses=(BooleanClause(state.top, state.current_op),))
            state.top = dataclasses.replace(
                state.top,
                clauses=state.top.clauses + (BooleanClause(branch, state.current_op),),
            )
            state.previous_op = state.current_op
        state.current_op = None

    def _parse_fuzziness(self, state: _SimpleState) -> int:
        """Slop/edit distance after a '~'; 0 on anything unparseable."""
        if state.data[state.index] != "~":
            return 0
        chars: list[str] = []
        while state.index < state.length:
            state.index += 1
            if state.index < state.length:
                if self._token_finished(state):
                    break
                chars.append(state.data[state.index])
        try:
            n = int("".join(chars))
        except ValueError:
            n = 0
        return max(n, 0)

    def _token_finished(self, state: _SimpleState) -> bool:
        c = state.data[state.index]
        return (
            (c == '"' and self._has(SIMPLE_PHRASE_OPERATOR))
            or (c == "|" and self._has(SIMPLE_OR_OPERATOR))
            or (c == "+" and self._has(SIMPLE_AND_OPERATOR))
            or (c in "()" and self._has(SIMPLE_PRECEDENCE_OPERATORS))
            or (c in _SIMPLE_WS and self._has(SIMPLE_WHITESPACE_OPERATOR))
        )

    # -- per-field factories (SimpleQueryParser.cs:737-806) -----------------

    def _across_fields(self, make) -> Query | None:
        per_field = []
        for f, w in self.weights.items():
            q = make(f)
            if q is not None:
                per_field.append(_with_boost(q, q.boost * w) if w != 1.0 else q)
        if not per_field:
            return None
        if len(per_field) == 1:
            return per_field[0]
        return BooleanQuery(clauses=tuple(BooleanClause(q, SHOULD) for q in per_field))

    def _new_default_query(self, text: str) -> Query | None:
        # QueryBuilder.CreateBooleanQuery: analyze, default_operator per term
        def make(f: str) -> Query | None:
            terms = self.analyzer(text)
            if not terms:
                return None
            if len(terms) == 1:
                return TermQuery(field=f, term=terms[0])
            return BooleanQuery(
                clauses=tuple(
                    BooleanClause(TermQuery(field=f, term=t), self.default_operator)
                    for t in terms
                )
            )

        return self._across_fields(make)

    def _new_phrase_query(self, text: str, slop: int) -> Query | None:
        def make(f: str) -> Query | None:
            terms, positions = self.analyzer.analyze_text_positions(text)
            if not terms:
                return None
            if len(terms) == 1:
                return TermQuery(field=f, term=terms[0])
            return PhraseQuery(
                field=f, terms=tuple(terms), slop=slop, positions=tuple(positions)
            )

        return self._across_fields(make)

    def _new_prefix_query(self, text: str) -> Query | None:
        # raw (pre-analysis) text, like the reference's NewPrefixQuery
        return self._across_fields(lambda f: PrefixQuery(field=f, prefix=text))

    def _new_fuzzy_query(self, text: str, fuzziness: int) -> Query | None:
        return self._across_fields(
            lambda f: FuzzyQuery(field=f, term=text, max_edits=fuzziness)
        )


def parse_simple(
    s: str,
    fields: str | dict[str, float] = "content",
    *,
    analyzer=None,
    default_operator: str = SHOULD,
    flags: int = -1,
) -> Query | None:
    """One-shot convenience wrapper over SimpleQueryParser."""
    return SimpleQueryParser(
        fields, analyzer=analyzer, default_operator=default_operator, flags=flags
    ).parse(s)


def _with_boost(q: Query, boost: float) -> Query:
    import dataclasses

    return dataclasses.replace(q, boost=boost)


def _bool_join(left: Query, right: Query, occur: str) -> BooleanQuery:
    def clauses_of(q):
        if isinstance(q, BooleanQuery) and q.min_should_match == 0 and q.boost == 1.0:
            if all(c.occur == occur for c in q.clauses):
                return q.clauses
        return (BooleanClause(q, occur),)

    return BooleanQuery(clauses=clauses_of(left) + clauses_of(right))
