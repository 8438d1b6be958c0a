"""Parenthesized prefix syntax for formulas.

Grammar:
    formula := rational | (d t t) | (NAME t*) | (half f) | (dotminus f f)
             | (min f f) | (max f f) | (absdiff f f) | (neg f)
             | (dotplus f f) | (scale rational f) | (sup var f) | (inf var f)
    t       := variable | constant-name

Rationals are written num/den (or a bare integer).  Head names other than
the keywords are relation symbols looked up in the signature; bare terms are
constants when the signature declares them and variables otherwise.  Parse
errors carry the character position.  Formulas nest at most MAX_DEPTH
levels (an atom or a constant is one level; the limit lives in `formula`).
Every walker over a formula is one recursive `formula.fold`, which takes
twice that depth, enough for predicate expansion, well inside Python's
recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .formula import (BINARY, CONNECTIVES, QUANTIFIER, SCALE, AtomD, AtomR,
                      Const, ConstName, DotScale, Formula, FormulaError,
                      MAX_DEPTH, PURE_METRIC, Signature, Var, fold)
from .rational import format_rational, parse_rational
from .record import record

KEYWORDS = {AtomD.keyword, *CONNECTIVES}


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@record
class _Token:
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(_Token(c, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(_Token(text[i:j], i))
            i = j
    return tokens


def _is_rational(tok: str) -> bool:
    body = tok.split("/")
    return all(part and (part.lstrip("-").isdigit()) for part in body) and len(body) <= 2


def _rational(tok: _Token) -> Fraction:
    try:
        return parse_rational(tok.text)
    except ValueError:
        raise ParseError(f"bad rational {tok.text!r}", tok.pos) from None


def parse(text: str, sig: Signature = PURE_METRIC, loose: bool = False) -> Formula:
    """Parse a formula; with loose=True unknown relation heads are accepted
    with the arity they are written at (grammar-only validation)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    phi, rest = _parse_formula(tokens, 0, sig, loose)
    if rest != len(tokens):
        raise ParseError(f"trailing input {tokens[rest].text!r}", tokens[rest].pos)
    return phi


def _expect(tokens: List[_Token], k: int, what: str) -> _Token:
    if k >= len(tokens):
        pos = tokens[-1].pos + len(tokens[-1].text) if tokens else 0
        raise ParseError(f"unexpected end of input, expected {what}", pos)
    return tokens[k]


def _parse_term(tokens: List[_Token], k: int, sig: Signature):
    tok = _expect(tokens, k, "a term")
    if tok.text in "()":
        raise ParseError("expected a term", tok.pos)
    if _is_rational(tok.text):
        raise ParseError(f"{tok.text!r} is a number, not a term", tok.pos)
    if sig.is_constant(tok.text):
        return ConstName(tok.text), k + 1
    return Var(tok.text), k + 1


def _parse_formula(tokens: List[_Token], k: int, sig: Signature,
                   loose: bool = False, depth: int = 1) -> Tuple[Formula, int]:
    tok = _expect(tokens, k, "a formula")
    if depth > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", tok.pos)
    if tok.text == ")":
        raise ParseError("unexpected ')'", tok.pos)
    if tok.text != "(":
        if _is_rational(tok.text):
            value = _rational(tok)
            if not 0 <= value <= 1:
                raise ParseError(f"rational {tok.text} outside [0,1]", tok.pos)
            return Const(value), k + 1
        raise ParseError(f"expected a formula, got {tok.text!r}", tok.pos)

    head = _expect(tokens, k + 1, "an operator or relation name")
    if head.text in "()":
        raise ParseError("expected an operator or relation name", head.pos)
    k = k + 2

    def close(k2, node):
        tok2 = _expect(tokens, k2, "')'")
        if tok2.text != ")":
            raise ParseError(f"expected ')', got {tok2.text!r}", tok2.pos)
        return node, k2 + 1

    name = head.text
    if name == "d":
        t1, k = _parse_term(tokens, k, sig)
        t2, k = _parse_term(tokens, k, sig)
        return close(k, AtomD(t1, t2))
    cls = CONNECTIVES.get(name)
    if cls is not None and cls.shape is BINARY:
        left, k = _parse_formula(tokens, k, sig, loose, depth + 1)
        right, k = _parse_formula(tokens, k, sig, loose, depth + 1)
        return close(k, cls(left, right))
    if cls is not None:
        lead = ()                       # the factor or variable before the body
        if cls.shape is SCALE:
            qtok = _expect(tokens, k, "a rational")
            if not _is_rational(qtok.text):
                raise ParseError(f"expected a rational scale factor, got {qtok.text!r}", qtok.pos)
            lead = (_rational(qtok),)
            if lead[0] <= 0:
                raise ParseError("scale factor must be positive", qtok.pos)
            k += 1
        elif cls.shape is QUANTIFIER:
            vtok = _expect(tokens, k, "a variable")
            if vtok.text in "()" or _is_rational(vtok.text) or vtok.text in KEYWORDS:
                raise ParseError(f"expected a variable, got {vtok.text!r}", vtok.pos)
            if sig.is_constant(vtok.text):
                raise ParseError(f"{vtok.text!r} is a constant, cannot quantify it", vtok.pos)
            lead = (vtok.text,)
            k += 1
        body, k = _parse_formula(tokens, k, sig, loose, depth + 1)
        return close(k, cls(*lead, body))

    # Anything else is a relation atom.
    if not sig.has_relation(name):
        if not loose:
            raise ParseError(f"unknown symbol {name!r}", head.pos)
        args = []
        while True:
            tok = _expect(tokens, k, "a term or ')'")
            if tok.text == ")":
                if not args:
                    raise ParseError(f"relation {name!r} needs arguments", tok.pos)
                return AtomR(name, tuple(args)), k + 1
            t, k = _parse_term(tokens, k, sig)
            args.append(t)
    rel = sig.relation(name)
    args = []
    for _ in range(rel.arity):
        t, k = _parse_term(tokens, k, sig)
        args.append(t)
    nxt = _expect(tokens, k, "')'")
    if nxt.text != ")":
        raise ParseError(
            f"arity mismatch: {name} takes {rel.arity} arguments", nxt.pos)
    return AtomR(name, tuple(args)), k + 1


def _printer(keyword):
    return lambda *parts: f"({keyword} {' '.join(parts)})"


_PRINT = {**{cls: _printer(kw) for kw, cls in CONNECTIVES.items()},
          DotScale: lambda q, body: f"(scale {format_rational(q)} {body})",
          Const: lambda f: format_rational(f.value),
          AtomD: lambda f: f"(d {f.left.name} {f.right.name})",
          AtomR: lambda f: f"({f.name} {' '.join(t.name for t in f.args)})"}


def print_formula(phi: Formula) -> str:
    return fold(phi, _PRINT)
