"""The parser and the CLI on deep, malformed and random formula texts."""

import contextlib
import io
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metriclogic.cli import main
from metriclogic.formula import (AtomD, ConstName, FormulaError, Half, Relation,
                                 Signature, Sup, Var, lipschitz)
from metriclogic.intervals import Enclosure
from metriclogic.metric import RationalMetricSpace
from metriclogic.rational import format_rational
from metriclogic.syntax import MAX_DEPTH, ParseError, parse, print_formula
from metriclogic.urysohn import (AnchoredStructure, PredicateDef, QuantifierBudget,
                                 UrysohnError, eval_urysohn)

PAIR = str(Path(__file__).resolve().parent.parent / "data" / "pair.space")


def exit_code(argv):
    """main's exit code, with argparse's usage exit taken as a code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def negs(depth, core="(d a x)"):
    """A formula of exactly `depth` levels: depth - 1 negations of core."""
    return "(neg " * (depth - 1) + core + ")" * (depth - 1)


# ----------------------------------------------------------------- depth

def test_parse_accepts_the_depth_limit_and_rejects_one_more():
    assert print_formula(parse(negs(MAX_DEPTH))) == negs(MAX_DEPTH)
    with pytest.raises(ParseError) as exc:
        parse(negs(MAX_DEPTH + 1))
    # the position of the atom that goes one level too deep
    assert exc.value.position == len("(neg ") * MAX_DEPTH
    assert str(MAX_DEPTH) in str(exc.value)


@pytest.mark.parametrize("argv", [
    ["parse"], ["lipschitz"], ["borel-level", "--cmp", ">"],
    ["eval-urysohn", "--anchors", PAIR, "--mesh", "1/8"]])
def test_cli_at_the_depth_limit(argv):
    text = negs(MAX_DEPTH)
    if argv[0] == "eval-urysohn":
        text = "(sup x " + negs(MAX_DEPTH - 1) + ")"
    code, out, err = exit_code(argv[:1] + [text] + argv[1:])
    assert code == 0, err
    code, out, err = exit_code(argv[:1] + [f"(half {text})"] + argv[1:])
    assert code == 1
    assert err.count("\n") == 1 and f"deeper than {MAX_DEPTH} levels" in err


def test_depth_limit_holds_through_predicate_expansion():
    """A definition at the limit, inlined at the limit, nests almost twice
    as deep; evaluation still succeeds."""
    body = negs(MAX_DEPTH, "(d u v)")
    code, out, err = exit_code([
        "eval-urysohn", "(sup x " + negs(MAX_DEPTH - 1, "(P a x)") + ")",
        "--anchors", PAIR, "--mesh", "1/8", "--define", f"P(u v)={body}"])
    assert code == 0, err


def sup_of_halves(depth):
    """Sup(x, half^(depth-2) (d a x)), built in Python: `depth` levels."""
    f = AtomD(ConstName("a"), Var("x"))
    for _ in range(depth - 2):
        f = Half(f)
    return Sup("x", f)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_eval_urysohn_refuses_deep_python_formulas(depth):
    anchored = AnchoredStructure(RationalMetricSpace.build(("a",), {}))
    with pytest.raises(UrysohnError, match=f"deeper than {MAX_DEPTH} levels"):
        eval_urysohn(sup_of_halves(depth), anchored, {}, QuantifierBudget(F(1, 4), 0))


def test_eval_urysohn_takes_python_formulas_at_the_depth_limit():
    anchored = AnchoredStructure(RationalMetricSpace.build(("a",), {}))
    e = eval_urysohn(sup_of_halves(MAX_DEPTH), anchored, {}, QuantifierBudget(F(1, 4), 0))
    # sup of d(a, x) is 1, halved 126 times; the error term is 2^-126 * 1/4
    assert e == Enclosure(F(1, 2 ** 126), F(5, 2 ** 128))


@pytest.mark.parametrize("depth", [2 * MAX_DEPTH + 1, 3000])
def test_python_formulas_past_twice_the_limit_raise_formula_error(depth):
    body = sup_of_halves(depth + 1).body            # `depth` levels, no sup
    with pytest.raises(FormulaError, match=f"deeper than {2 * MAX_DEPTH} levels"):
        lipschitz(sup_of_halves(depth), Signature((), ("a",)))
    with pytest.raises(FormulaError, match=f"deeper than {2 * MAX_DEPTH} levels"):
        PredicateDef(("x",), body)


def test_python_formulas_at_twice_the_limit_are_walked():
    body = sup_of_halves(2 * MAX_DEPTH + 1).body
    assert lipschitz(sup_of_halves(2 * MAX_DEPTH), Signature((), ("a",))) == 0
    assert lipschitz(body, Signature((), ("a",))) == F(1, 2 ** (2 * MAX_DEPTH - 1))
    assert PredicateDef(("x",), body).params == ("x",)


def test_thousand_levels_is_a_parse_error():
    code, out, err = exit_code(["lipschitz", negs(1000, "(d a b)")])
    assert code == 1 and err.startswith("error: formula nested deeper than")
    assert "Traceback" not in err


# -------------------------------------------------------------- fuzzing

SIG = Signature((Relation("R", 2),), ("c",))
TERMS = st.sampled_from(["x", "y", "a", "c"])


def formulas(terms=TERMS, relations=True, quantifiers=True):
    """Canonical texts: exactly what print_formula writes."""
    leaves = [st.fractions(0, 1, max_denominator=12).map(format_rational),
              st.builds(lambda s, t: f"(d {s} {t})", terms, terms)]
    if relations:
        leaves.append(st.builds(lambda s, t: f"(R {s} {t})", terms, terms))

    def grow(kids):
        options = [
            st.builds(lambda op, f: f"({op} {f})", st.sampled_from(["half", "neg"]), kids),
            st.builds(lambda q, f: f"(scale {format_rational(q)} {f})",
                      st.fractions(F(1, 12), 4, max_denominator=12), kids),
            st.builds(lambda op, f, g: f"({op} {f} {g})",
                      st.sampled_from(["dotminus", "dotplus", "min", "max", "absdiff"]),
                      kids, kids)]
        if quantifiers:
            options.append(st.builds(lambda q, v, f: f"({q} {v} {f})",
                                     st.sampled_from(["sup", "inf"]),
                                     st.sampled_from(["x", "y", "z"]), kids))
        return st.one_of(options)

    return st.recursive(st.one_of(leaves), grow, max_leaves=12)


@given(formulas())
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip_on_canonical_texts(text):
    assert print_formula(parse(text, SIG)) == text


def mangled(texts):
    """Texts with a slice cut out, so brackets and arguments go missing."""
    return st.builds(lambda t, i, j: t[:min(i, j)] + t[max(i, j):],
                     texts, st.integers(0, 200), st.integers(0, 200))


SOUP = st.lists(st.sampled_from(["(", ")", "d", "a", "b", "x", "neg", "max", "half",
                                 "scale", "1/2", "2", "-1", "1/0", "R", "zz"]),
                max_size=20).map(" ".join)
DEEP = st.integers(MAX_DEPTH - 2, MAX_DEPTH + 50).map(negs)


@given(st.one_of(formulas(), mangled(formulas()), SOUP, DEEP))
@settings(max_examples=300, deadline=None)
def test_lipschitz_cli_never_raises(text):
    code, out, err = exit_code(["lipschitz", text])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


# Quantifier-free bodies under at most one quantifier each, so a run at
# mesh 1/8 over two anchors stays a small two-dimensional search.
QF = formulas(st.sampled_from(["x", "y", "a", "b"]), relations=False, quantifiers=False)
ONE_QUANTIFIER = st.one_of(
    QF, st.builds(lambda q, f: f"({q} x {f})", st.sampled_from(["sup", "inf"]), QF),
    st.builds(lambda f, g: f"(max (sup x {f}) (inf y {g}))", QF, QF))


@given(st.one_of(ONE_QUANTIFIER, mangled(ONE_QUANTIFIER), SOUP, DEEP))
@settings(max_examples=200, deadline=None)
def test_eval_urysohn_cli_never_raises(text):
    code, out, err = exit_code(["eval-urysohn", text, "--anchors", PAIR, "--mesh", "1/8"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
