"""The series writer and the cached noise text and sort key: the one
renderer of series and noise text, and what it keeps for one report; the
series reader that mirrors it."""

import gc
from fractions import Fraction
from itertools import groupby
from typing import List

from hypothesis import given, settings, strategies as st

import snf.render
import snf.series
from conftest import make_system
from snf import noise
from snf.engine import construct
from snf.render import SeriesReader, SeriesWriter, _Parser, render_noise, render_series
from snf.report import emit_report, parse_report
from snf.series import Series
from snf.systems import ALLOW
from test_noise import atoms
from test_series import DIMS, NAMES, TR

F = Fraction
NEW_NAMES = (("X",), ("Y",), ("sigma",))


# -- the per-occurrence renderer the writer replaced, kept as its reference ---

def _ref_noise(expr) -> str:
    if expr == noise.ONE:
        return "1"
    return "*".join(_ref_pow(_ref_atom(a), len(list(run))) for a, run in groupby(expr))


def _ref_atom(a) -> str:
    if noise.is_bare(a):
        return f"phi[{a[1]}]"
    return f"Z[{snf.render.render_rate(a[1])}]{{ {_ref_noise(a[2])} }}"


def _ref_pow(name, e) -> str:
    return name if e == 1 else f"{name}^{e}"


def _ref_frac(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _ref_series(s, names) -> str:
    items = s.sorted_terms()
    if not items:
        return "0"
    out: List[str] = []
    for (mono, expr), coeff in items:
        factors = [_ref_pow(names[part][k], e)
                   for part in (2, 0, 1) for k, e in enumerate(mono[part]) if e]
        if expr != noise.ONE:
            factors.append(_ref_noise(expr))
        mag = abs(coeff)
        if not factors:
            body = _ref_frac(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_ref_frac(mag)] + factors)
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)


# -- report-like input: a few noise products shared by the terms of several
# series, with nested convolutions and repeated atoms -------------------------

@st.composite
def products(draw):
    """Up to three atoms drawn from one or two; a run of one prints as a
    power."""
    some = draw(st.lists(atoms(), min_size=1, max_size=2))
    return noise.product(*draw(st.lists(st.sampled_from(some), max_size=3)))


@st.composite
def report_lines(draw):
    pool = draw(st.lists(products(), min_size=1, max_size=4))
    power = st.integers(0, 2)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            mono = ((draw(power),), (draw(power),), (draw(st.integers(0, 1)),))
            terms[(mono, draw(st.sampled_from(pool)))] = F(draw(st.integers(-5, 5)),
                                                          draw(st.integers(1, 3)))
        lines.append(Series(DIMS, TR, terms))
    return lines


@given(report_lines())
@settings(max_examples=150, deadline=None)
def test_one_writer_renders_every_line_as_the_reference(lines):
    # one writer for all lines in both name triples, as emit_report uses it:
    # the memos carry from line to line and across the triples
    writer = SeriesWriter()
    for s in lines:
        for names in (NEW_NAMES, NAMES):
            assert writer.series(s, names) == _ref_series(s, names)
            assert render_series(s, names) == _ref_series(s, names)
        for (_mono, expr) in s.terms:
            assert render_noise(expr) == _ref_noise(expr)


def _ref_sort_key(key):
    """series.term_sort_key with the noise part built afresh."""
    (slow, fast, par), expr = key
    return (sum(slow) + sum(fast) + sum(par), slow, fast, par,
            tuple(noise.atom_sort_key(a) for a in expr))


@given(report_lines())
@settings(max_examples=80, deadline=None)
def test_the_writer_orders_terms_as_sorted_terms(lines):
    # after a writer has rendered the lines, the cached sort keys order
    # each line as keys built afresh do, and the writer writes that order
    writer = SeriesWriter()
    for s in lines:
        writer.series(s, NAMES)
    for s in lines:
        want = sorted(s.terms.items(), key=lambda kc: _ref_sort_key(kc[0]))
        assert s.sorted_terms() == want
        assert writer.series(s, NAMES) == writer.terms(want, NAMES)


# the algebra's process-wide tables and caches: interned noise products,
# their merges, derivatives, texts, sort keys and expectations, and the
# packed-key layouts
_ALGEBRA_TABLES = {"_EXPRS", "_NOISE_IDS", "_MERGED", "_noise_diff", "noise_sort_key",
                   "render_noise", "expectation", "_layout"}


def _shared_state():
    """The size of each container held by snf.render, snf.series or the
    writer or reader class, and of each lru_cache of snf.render, snf.series
    or snf.noise, but for the algebra's tables and caches; any other value
    by id."""
    holders = (vars(snf.render), vars(snf.series), vars(noise), vars(SeriesWriter),
               vars(SeriesReader))
    return [{name: v.cache_info().currsize if hasattr(v, "cache_info") else
             len(v) if isinstance(v, (dict, list, set)) else id(v)
             for name, v in held.items() if name not in _ALGEBRA_TABLES}
            for held in holders]


def test_emit_report_leaves_no_memo_behind():
    nf = construct(make_system("toy.snf", total=4), ALLOW)
    before = _shared_state()
    first = emit_report(nf)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, SeriesWriter)]
    assert _shared_state() == before
    assert emit_report(nf) == first


def test_one_emit_report_renders_and_keys_each_noise_product_once():
    nf = construct(make_system("toy.snf", total=5), ALLOW)
    caches = (snf.render.render_noise, snf.series.noise_sort_key)
    for cache in caches:
        cache.cache_clear()
    emit_report(nf)
    for cache in caches:
        info = cache.cache_info()
        # a product met again is looked up, never computed a second time
        assert info.currsize > 10 and info.hits > 0
        assert info.misses == info.currsize


def test_parse_report_leaves_no_reader_behind():
    nf = construct(make_system("toy.snf", total=4), ALLOW)
    text = emit_report(nf)
    before = _shared_state()
    first = parse_report(text, nf.spec).sections
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, SeriesReader)]
    assert _shared_state() == before
    assert parse_report(text, nf.spec).sections == first


# -- the reader against the descent -------------------------------------------

def _outcome(read, text):
    try:
        return "terms", list(read(text).items())
    except Exception as exc:  # the type and text must agree too
        return type(exc).__name__, str(exc)


def _descent(text, names):
    """The whole line through _Parser, keyed as the reader keys it."""
    m, mn = DIMS.m, DIMS.m + DIMS.n
    return {((e[:m], e[m:mn], e[mn:]), x): c
            for (e, x), c in _Parser(text, SeriesReader(DIMS, names)).parse().items()}


# pieces the writer never writes: parentheses, other spacing, sums inside
# braces, glued powers, repeated and zero terms, numbers and noise out of
# place, variables under a kernel, and text that does not parse
_FOREIGN = ["(x + y)*phi[0]", "(x)", "x  + y", "x +  y", " x", "x ", "x * phi[0]",
            "Z[-1]{ phi[0] - phi[1] }", "Z[-1]{ phi[0]+phi[1] }", "3/2^2*x", "2^2*x",
            "3/4/5*y", "x + x", "x - x", "0*x", "0", "x*0", "x*2", "2*3*x", "1*x",
            "phi[0]*x", "phi[0]*sigma*Z[+1]{ phi[1] }", "Z[-1]{ x*phi[0] }",
            "Z[-1]{ sigma*phi[0] }", "Z[-1]{ Z[+2]{ phi[0] } }", "Z[0]{ phi[0] }",
            "Z[ -1 ]{ phi[0] }", "x*-y", "--x", "+x", "x + -y", "-", "", "*phi[0]",
            "3*", "3**x", "x*", "x*phi[0]*y", "1/0*x", "x/0", "x/2*phi[0]", "y^2^3",
            "xphi[0]", "xZ[-1]{ phi[0] }", "q", "x^5", "x]", "2/4*x", "x - + y",
            "Z[-1]{ phi[0]+phi[1] } + Z[-1]{ phi[1] }", "(x+y)*phi[0] - x*phi[0]",
            "Z[-1]{ phi[1] } - Z[-1]{ phi[0]+phi[1] }", "x*phi[0] + (x+y)*phi[0]",
            "(x+y)*phi[0] + y*Z[-1]{ phi[0] }"]


# ways to splice a foreign piece into a rendered line
_SPLICES = [lambda line, piece: piece,
            lambda line, piece: f"{line} + {piece}",
            lambda line, piece: f"{line} - {piece}",
            lambda line, piece: f"{piece} + {line}",
            lambda line, piece: f"{piece}*{line}",
            lambda line, piece: f"({line}) - {piece}",
            lambda line, piece: f"{line.replace(' + ', '  + ', 1)} + {piece}",
            lambda line, piece: f"{piece} - {line.replace(' - ', ' -  ', 1)}",
            lambda line, piece: f"{line} + {piece} + {line}"]


@given(report_lines(), st.integers(0, len(_SPLICES) - 1))
@settings(max_examples=60, deadline=None)
def test_the_reader_gives_the_descents_terms_and_errors(lines, turn):
    # one reader per name triple across all lines, as parse_report keeps
    # it: what it stored for one line must not change the next
    for names in (NEW_NAMES, NAMES):
        reader = SeriesReader(DIMS, names)
        rendered = [SeriesWriter().series(s, names) for s in lines]
        foreign = [_SPLICES[(i + turn) % len(_SPLICES)](rendered[0], piece)
                   for i, piece in enumerate(_FOREIGN)]
        for text in rendered + foreign + rendered:
            assert _outcome(reader.read, text) == \
                _outcome(lambda t: _descent(t, names), text), text
