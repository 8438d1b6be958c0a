"""Exact workbench for continuous logic over rational metric spaces.

Everything computes with exact rationals; irrational values (square roots)
are returned as certified enclosures.  The main entry points:

- metric / amalgam / quenum: finite rational metric spaces, one-point
  extensions, the controlled amalgamation of perturbed subspaces, and a
  budgeted enumerator approximating the rational universal space.
- formula / syntax: the continuous-logic AST, its prefix syntax, the linear
  modulus calculus and the Borel-level analyzer of model sets.
- structures / scprobe: exact evaluation over finite structures, the
  truncated structure metric, and the finite categoricity probe.
- urysohn: certified enclosure evaluation of quantified sentences via
  optimization over admissibility polytopes, the quantifier-free decision
  procedure, and the square-root transform demonstration.
- graded: graded subgroups and cosets on partial isometries, their axioms,
  the left-invariant group metric, formula invariance, the approximation
  search and the oligomorphy probe.
- vaught / suite: exact Vaught transforms on finite discrete actions and
  the randomized algebra verification suite.
- reduction: encoding of finite group actions as metric structures with
  orbit equivalence realized as isomorphism.
- cli / catalog / textio: command line, artifact store, text formats.

The names below are re-exported on first use (PEP 562), so importing the
package loads none of its modules.
"""

_HOME = {
    "Enclosure": "intervals",
    "KatetovFunction": "metric", "MetricError": "metric", "PartialIsometry": "metric",
    "RationalMetricSpace": "metric", "one_point_extend": "metric",
    "validate_table": "metric",
    "BorelLevel": "formula", "Formula": "formula", "Relation": "formula",
    "Signature": "formula", "borel_level": "formula", "lipschitz": "formula",
    "FiniteStructure": "structures", "delta_seq": "structures", "evaluate": "structures",
    "mod_member": "structures",
    "parse": "syntax", "print_formula": "syntax",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
