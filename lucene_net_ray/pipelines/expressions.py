"""Expression scoring: compile formula strings to vectorized score functions.

Reference: /root/reference/src/Lucene.Net.Expressions/ (6k LoC) compiles
JS-like formulas to ValueSource trees bound to the score and per-doc fields;
/root/reference/src/Lucene.Net.Queries/Function/ evaluates them per doc.
Here a formula compiles (via a whitelisted Python AST) to a numpy expression
over ``score`` and stored doc-values columns, evaluated batch-wise inside
the segment actors through ``function_rescore`` — per-doc trees become one
vectorized kernel, the idiomatic equivalent.

Grammar: numbers, identifiers (``score`` or any stored column), + - * / %
** and unary -, comparisons (yield 0/1 floats), and the functions
log, log1p, log2, sqrt, abs, exp, min, max, pow, where(cond, a, b).
"""

from __future__ import annotations

import ast

import numpy as np

_FUNCS = {
    "log": np.log,
    "log1p": np.log1p,
    "log2": np.log2,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "exp": np.exp,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
    "where": np.where,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Mod: np.mod,
    ast.Pow: np.power,
}

_CMPOPS = {
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Eq: np.equal,
    ast.NotEq: np.not_equal,
}


class ExpressionError(ValueError):
    pass


# --------------------------------------------------------------------------
# Index-bound ValueSources (reference Queries/Function/ValueSources/):
#   termfreq('t')  raw per-doc term frequency      TermFreqValueSource.cs
#   tf('t')        sqrt(freq), ClassicSimilarity    TFValueSource.cs
#   df('t')        global docFreq (scalar)          DocFreqValueSource.cs
#   idf('t')       ln(maxDoc/(df+1)) + 1 (scalar)   IDFValueSource.cs
#   ttf('t')       global totalTermFreq (scalar)    TotalTermFreqValueSource.cs
#   sumttf()       global sum of all ttf (scalar)   SumTotalTermFreqValueSource.cs
#   maxdoc()       reader maxDoc (scalar)           MaxDocValueSource.cs
#   numdocs()      live doc count (scalar)          NumDocsValueSource.cs
#   norm()         byte315-decoded norm float       NormValueSource.cs
#   ord('f')       0-based ord of the doc's field value in the GLOBAL sorted
#                  distinct values                   OrdFieldSource.cs
#   rord('f')      valueCount - 1 - ord             ReverseOrdFieldSource.cs
#   query('q', d)  score of the parsed sub-query, d where it doesn't match
#                                                   QueryValueSource.cs
# Scalars bind at compile time on the driver; per-doc sources become
# reserved keys in ``values`` computed segment-side by function_partial.
# --------------------------------------------------------------------------

_TERM_STAT_FUNCS = ("df", "idf", "ttf")
_INDEX_FUNCS = {
    "termfreq", "tf", "df", "idf", "ttf", "sumttf",
    "maxdoc", "numdocs", "norm", "ord", "rord", "query",
}


def _str_arg(node: "ast.Call", i: int, fname: str) -> str:
    a = node.args[i]
    if not (isinstance(a, ast.Constant) and isinstance(a.value, str)):
        raise ExpressionError(f"{fname}() argument {i + 1} must be a string literal")
    return a.value


def index_requests(expr: str) -> dict:
    """Static scan for index-bound calls. Returns
    {tf_terms, stat_terms, norm, ord_fields, queries} (queries keep their
    default values; duplicates collapse)."""
    tree = ast.parse(expr, mode="eval")
    req = {"tf_terms": set(), "stat_terms": set(), "norm": False,
           "ord_fields": set(), "queries": {}}
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)):
            continue
        f = n.func.id
        if f in ("termfreq", "tf"):
            req["tf_terms"].add(_str_arg(n, 0, f))
        elif f in _TERM_STAT_FUNCS:
            req["stat_terms"].add(_str_arg(n, 0, f))
        elif f == "norm":
            req["norm"] = True
        elif f in ("ord", "rord"):
            req["ord_fields"].add(_str_arg(n, 0, f))
        elif f == "query":
            if len(n.args) != 2 or not isinstance(n.args[1], ast.Constant):
                raise ExpressionError("query() takes ('query string', default_const)")
            req["queries"][_str_arg(n, 0, f)] = float(n.args[1].value)
    return req


def has_index_requests(expr: str) -> bool:
    r = index_requests(expr)
    return bool(r["tf_terms"] or r["stat_terms"] or r["norm"]
                or r["ord_fields"] or r["queries"]
                or any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id in ("sumttf", "maxdoc", "numdocs")
                       for n in ast.walk(ast.parse(expr, mode="eval"))))


def expression_fields(expr: str) -> list[str]:
    """Identifiers the expression reads, minus the implicit ``score``."""
    tree = ast.parse(expr, mode="eval")
    names = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id not in _FUNCS and n.id not in _INDEX_FUNCS
    }
    return sorted(names - {"score", "scale"})


def scale_fields(expr: str) -> list[str]:
    """Fields wrapped in scale(field, a, b) calls — they need global min/max
    before compilation (ScaleFloatFunction semantics)."""
    tree = ast.parse(expr, mode="eval")
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "scale":
            if (
                len(n.args) != 3
                or not isinstance(n.args[0], ast.Name)
                or not all(isinstance(a, ast.Constant) for a in n.args[1:])
            ):
                raise ExpressionError("scale() takes (field, min_const, max_const)")
            out.append(n.args[0].id)
    return sorted(set(out))


def compile_expression(
    expr: str, scale_stats: dict | None = None, index_bind: dict | None = None
):
    """-> fn(scores: np.ndarray, values: dict[str, np.ndarray]) -> np.ndarray.

    ``scale_stats`` maps field -> (global_min, global_max) and enables the
    ScaleFloatFunction analog (reference
    Queries/Function/ValueSources/ScaleFloatFunction.cs): scale(field, a, b)
    maps the field's GLOBAL value range onto [a, b]; a degenerate range
    (min == max) yields a.

    ``index_bind`` (from bind_index_expression) enables the index-bound
    ValueSources: {"max_doc", "num_docs", "sum_ttf", "df": {term: int},
    "ttf": {term: int}, "ord_card": {field: int}}. Scalar sources fold to
    constants here; per-doc sources read reserved ``values`` keys filled by
    the segment-side function_partial."""
    tree = ast.parse(expr, mode="eval")
    scale_stats = scale_stats or {}
    ib = index_bind

    def _ib(fname):
        if ib is None:
            raise ExpressionError(
                f"{fname}() needs an index binding — use function_query/expression_rescore"
            )
        return ib

    def ev_index_call(node, scores, values):
        f = node.func.id
        if f == "termfreq":
            return values[f"__tf:{node.args[0].value}"].astype(np.float64)
        if f == "tf":  # ClassicSimilarity.Tf = sqrt(freq)
            return np.sqrt(values[f"__tf:{node.args[0].value}"].astype(np.float64))
        if f == "df":
            return float(_ib(f)["df"][node.args[0].value])
        if f == "idf":  # ClassicSimilarity.Idf(df, maxDoc)
            b = _ib(f)
            return np.log(b["max_doc"] / (b["df"][node.args[0].value] + 1.0)) + 1.0
        if f == "ttf":
            return float(_ib(f)["ttf"][node.args[0].value])
        if f == "sumttf":
            return float(_ib(f)["sum_ttf"])
        if f == "maxdoc":
            return float(_ib(f)["max_doc"])
        if f == "numdocs":
            return float(_ib(f)["num_docs"])
        if f == "norm":
            return values["__norm"].astype(np.float64)
        if f == "ord":
            return values[f"__ord:{node.args[0].value}"].astype(np.float64)
        if f == "rord":
            fld = node.args[0].value
            card = _ib(f)["ord_card"][fld]
            return (card - 1.0) - values[f"__ord:{fld}"].astype(np.float64)
        if f == "query":
            return values[f"__query:{node.args[0].value}"].astype(np.float64)
        raise ExpressionError(f"unhandled index function {f}")

    def ev(node, scores, values):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "scale"
        ):
            field = node.args[0].id
            a, b = float(node.args[1].value), float(node.args[2].value)
            if field not in scale_stats:
                raise ExpressionError(
                    f"scale({field},...) needs global stats — use function_query"
                )
            mn, mx = (float(v) for v in scale_stats[field])
            vals = values[field].astype(np.float64)
            if mx == mn:
                return np.full_like(vals, a)
            return (vals - mn) / (mx - mn) * (b - a) + a
        if isinstance(node, ast.Expression):
            return ev(node.body, scores, values)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant {node.value!r}")
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "score":
                return scores.astype(np.float64)
            if node.id in values:
                return values[node.id].astype(np.float64)
            raise ExpressionError(f"unknown identifier {node.id!r}")
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
            return op(ev(node.left, scores, values), ev(node.right, scores, values))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand, scores, values)
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                raise ExpressionError("comparison not allowed")
            return op(
                ev(node.left, scores, values), ev(node.comparators[0], scores, values)
            ).astype(np.float64)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in _INDEX_FUNCS:
                return ev_index_call(node, scores, values)
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"function not allowed: {ast.dump(node.func)}")
            args = [ev(a, scores, values) for a in node.args]
            return _FUNCS[node.func.id](*args)
        raise ExpressionError(f"syntax not allowed: {type(node).__name__}")

    # validate eagerly with dummy inputs so bad expressions fail at compile
    fields = expression_fields(expr)
    dummy = {f: np.ones(1) for f in fields}
    req = index_requests(expr)
    for t in req["tf_terms"]:
        dummy[f"__tf:{t}"] = np.ones(1)
    if req["norm"]:
        dummy["__norm"] = np.ones(1)
    for f in req["ord_fields"]:
        dummy[f"__ord:{f}"] = np.ones(1)
    for qs in req["queries"]:
        dummy[f"__query:{qs}"] = np.ones(1)
    ev(tree, np.ones(1, dtype=np.float32), dummy)

    def fn(scores, values):
        out = np.asarray(ev(tree, scores, values), dtype=np.float64)
        if out.ndim == 0:  # constant-folded expression (e.g. pure scalars)
            out = np.full(np.shape(scores), float(out), dtype=np.float64)
        return out

    return fn


def bind_index_expression(searcher, expr: str) -> tuple[dict, dict]:
    """Gather the global state the expression's index-bound sources need.

    Returns (index_bind, ispec):
      index_bind — compile-time scalars {max_doc, num_docs, sum_ttf,
        df/ttf per stat term, ord_card per ord field};
      ispec — shipped to function_partial: {tf_terms, norm,
        ords: {field: sorted global distinct values (np array)},
        queries: {qstr: (Query, stats, default)}}.
    Ord tables are field-cardinality-sized (facet-like fields); they ride the
    task closure like any broadcast small side.
    """
    from ..query import MatchAllDocsQuery, parse_query
    from .collectors import all_groups

    if not has_index_requests(expr):
        return None, {"tf_terms": (), "norm": False, "ords": {}, "queries": {}}
    req = index_requests(expr)
    stat_terms = sorted(req["stat_terms"])
    field = searcher._field(None)
    stats = searcher._term_stats({field: stat_terms})[field] if stat_terms else {}
    df = {t: d for t, (d, _tt) in stats.items()}
    ttf = {t: tt for t, (_d, tt) in stats.items()}
    ords = {}
    ord_card = {}
    for f in sorted(req["ord_fields"]):
        vals = all_groups(searcher, MatchAllDocsQuery(), f)
        ords[f] = np.array(vals)
        ord_card[f] = len(vals)
    queries = {}
    for qstr, defval in req["queries"].items():
        subq, substats = searcher._rewrite_and_stats(parse_query(qstr))
        queries[qstr] = (subq, substats, float(defval))
    index_bind = {
        "max_doc": int(searcher.index.max_doc),
        "num_docs": int(searcher.count(MatchAllDocsQuery())),
        "sum_ttf": int(searcher.index.sum_ttf),
        "df": df,
        "ttf": ttf,
        "ord_card": ord_card,
    }
    ispec = {
        "tf_terms": sorted(req["tf_terms"]),
        "norm": bool(req["norm"]),
        "ords": ords,
        "queries": queries,
    }
    return index_bind, ispec


def _needs_partial(ispec: dict) -> bool:
    return bool(ispec["tf_terms"] or ispec["norm"] or ispec["ords"] or ispec["queries"])


def function_query(searcher, expr: str, *, q=None, k: int = 10):
    """FunctionQuery analog (reference Queries/Function/FunctionQuery.cs:
    the ValueSource IS the score): every doc matching ``q`` (default
    MatchAllDocs) is scored by the compiled formula — no BM25 candidate
    window, the expression is the primary ranking. ``score`` inside the
    formula refers to the underlying query's score (1.0 under MatchAll,
    mirroring FunctionQuery's boost-only behavior).

    Doubles as sort-by-ValueSource (Function/FunctionAllGroupHeadsCollector
    style ordering): sorting by an expression is scoring by it.
    """
    from ..query import MatchAllDocsQuery
    from .collectors import field_stats, function_rescore

    q = q if q is not None else MatchAllDocsQuery()
    need_scale = scale_fields(expr)
    stats = field_stats(searcher, need_scale) if need_scale else None
    index_bind, ispec = bind_index_expression(searcher, expr)
    fn = compile_expression(expr, scale_stats=stats, index_bind=index_bind)
    # window == k: the per-segment partial evaluates the formula over ALL
    # matching docs and returns its top-k — exact, not an approximation.
    return function_rescore(
        searcher, q, fn, fields=expression_fields(expr), k=k, window=k,
        ispec=ispec if _needs_partial(ispec) else None,
    )


def expression_rescore(searcher, q, expr: str, *, k: int = 10, window: int = 100):
    """CustomScoreQuery-with-expression analog: BM25 candidates rescored by
    the compiled formula inside the segment actors."""
    from .collectors import function_rescore

    index_bind, ispec = bind_index_expression(searcher, expr)
    fn = compile_expression(expr, index_bind=index_bind)
    return function_rescore(
        searcher, q, fn, fields=expression_fields(expr), k=k, window=window,
        ispec=ispec if _needs_partial(ispec) else None,
    )
