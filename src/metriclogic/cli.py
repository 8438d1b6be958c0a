"""Command-line front end.

Every operation is a subcommand producing a Report: command echo, digests
of the inputs, a result payload with rationals rendered num/den, an
exact/enclosure flag and a timing field (excluded from any comparison).
Exit codes: 0 success, 1 domain error with a diagnostic on stderr (or a
reader that closed stdout early, silently), 2 usage error.  Artifact
arguments are file paths, or names resolved in the catalog when --catalog
(or METRICLOGIC_CATALOG) is set.  A subcommand is declared by one row of
COMMANDS: its handler and its arguments, as argparse's add_argument takes
them.  A handler imports the library modules it calls when it runs, so a
call loads only what its subcommand needs.  The value classes are frozen
records (`record`), built without `exec`, so no call imports `dataclasses`
or `inspect`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from .intervals import Enclosure
from .rational import format_rational, parse_rational


class CliError(ValueError):
    pass


def _is_file(ref: str) -> bool:
    """Whether ref names a file; a reference no path can be (an inline
    formula over the file-name length limit, say) is not one."""
    try:
        return Path(ref).is_file()
    except OSError:
        return False


class Session:
    def __init__(self, args):
        self.inputs: Dict[str, str] = {}
        catalog_dir = args.catalog or os.environ.get("METRICLOGIC_CATALOG")
        self.catalog = None
        if catalog_dir:
            from .catalog import Catalog
            self.catalog = Catalog(catalog_dir)

    def text_of(self, ref: str, label: str) -> str:
        if _is_file(ref):
            text = Path(ref).read_text()
        elif self.catalog is not None:
            from .catalog import CatalogError
            try:
                _, text = self.catalog.get(ref)
            except CatalogError:
                raise CliError(f"{label}: no file or catalog entry named {ref!r}")
        else:
            raise CliError(f"{label}: file {ref!r} not found")
        self.inputs[label] = text
        return text

    def space(self, ref: str, label: str = "space") -> RationalMetricSpace:
        from . import textio
        return textio.parse_space(self.text_of(ref, label))

    def structure(self, ref: str, label: str = "structure") -> FiniteStructure:
        from . import textio
        return textio.parse_structure(self.text_of(ref, label))

    def formula(self, ref: str, sig: Signature, label: str = "formula",
                loose: bool = False) -> Formula:
        """A formula from a file, a catalog formula entry or inline text."""
        from .syntax import parse as parse_formula_text
        if _is_file(ref):
            return parse_formula_text(self.text_of(ref, label), sig, loose=loose)
        text = ref                        # inline formula text
        if self.catalog is not None:
            from .catalog import CatalogError
            try:
                kind, stored = self.catalog.get(ref)
                if kind == "formula":
                    text = stored
            except CatalogError:
                pass
        self.inputs[label] = text
        return parse_formula_text(text, sig, loose=loose)

    def report(self, command: str, result, elapsed_ms: int) -> dict:
        """The report of a handler's result: a dict, exact, or an Enclosure."""
        exact = not isinstance(result, Enclosure)
        if not exact:
            result = {"lo": format_rational(result.lo), "hi": format_rational(result.hi)}
        digests = {label: hashlib.sha256(text.encode()).hexdigest()[:16]
                   for label, text in sorted(self.inputs.items())}
        return {"command": command, "inputs": digests, "result": result,
                "exact": "exact" if exact else "enclosure",
                "timing_ms": elapsed_ms}


def _assignment(spec: Optional[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not spec:
        return out
    for piece in spec.replace(",", " ").split():
        if "=" not in piece:
            raise CliError(f"bad assignment piece {piece!r}, want var=point")
        var, point = piece.split("=", 1)
        if var in out:
            raise CliError(f"variable {var!r} assigned twice")
        out[var] = point
    return out


def _named(flag: str, names, name: str) -> str:
    """name, if it is one of names; else a diagnostic naming the flag, the
    name and the names there are."""
    if name not in names:
        known = ", ".join(names) or "none defined"
        raise CliError(f"{flag}: unknown name {name!r} (known: {known})")
    return name


def _sig_for(session: Session, args) -> Signature:
    from .formula import Signature
    if args.structure:
        return session.structure(args.structure, "signature-structure").sig
    if args.fragment:
        return Signature((), session.space(args.fragment, "fragment").points)
    return Signature()


# ----------------------------------------------------------- subcommands

def cmd_validate(session, args):
    from . import textio
    from .metric import validate_table
    text = session.text_of(args.space, "space")
    points, dist = textio.parse_space_raw(text)
    report = validate_table(points, dist)
    return {"ok": report.ok, "violations": [str(v) for v in report.violations]}


def cmd_extend(session, args):
    from . import textio
    from .metric import KatetovFunction, one_point_extend
    name = args.name
    if name and ("#" in name or name.split() != [name]):
        raise CliError(f"--name: {name!r} cannot be written in a space file "
                       "(no whitespace or '#')")
    space = session.space(args.space)
    values = {}
    for item in args.value:
        if "=" not in item:
            raise CliError(f"--value wants p=num/den, got {item!r}")
        p, v = item.split("=", 1)
        if p in values:
            raise CliError(f"--value: point {p!r} given twice")
        values[_named("--value", space.points, p)] = parse_rational(v)
    f = KatetovFunction(space, values)
    out = one_point_extend(space, f, name=name)
    return {"space": textio.serialize_space(out)}


def cmd_amalgamate(session, args):
    from . import textio
    from .amalgam import amalgamate
    host = session.space(args.host, "host")
    b_space = session.space(args.b_space, "b-space")
    res = amalgamate(host, args.a_points.split(), b_space, args.q,
                     parse_rational(args.eps))
    return {"space": textio.serialize_space(res.space),
            "displacement": format_rational(res.displacement),
            "b_names": list(res.b_names),
            "witness": {p: res.witness.map[p] for p in res.witness.source.points}}


def cmd_enumerate_qu(session, args):
    from . import textio
    from .quenum import qu_enumerate
    seed = session.space(args.space, "seed")
    out, cert = qu_enumerate(seed, args.denominator_bound, args.budget)
    tasks = [{"subset": list(t.subset), "values": [format_rational(v) for v in t.values],
              "realized_by": t.realized_by, "added_point": t.added_point}
             for t in cert.tasks]
    return {"space": textio.serialize_space(out), "tasks": tasks}


def cmd_parse(session, args):
    from .syntax import print_formula
    phi = session.formula(args.formula, _sig_for(session, args), loose=args.loose)
    return {"canonical": print_formula(phi)}


def cmd_lipschitz(session, args):
    from .formula import lipschitz
    sig = _sig_for(session, args)
    phi = session.formula(args.formula, sig)
    return {"coefficient": format_rational(lipschitz(phi, sig))}


def cmd_borel_level(session, args):
    from .formula import borel_level
    phi = session.formula(args.formula, _sig_for(session, args), loose=True)
    level = borel_level(phi, args.cmp)
    return {"class": level.class_kind, "index": level.index}


def cmd_eval(session, args):
    from .structures import evaluate
    M = session.structure(args.structure)
    phi = session.formula(args.formula, M.sig)
    return {"value": format_rational(evaluate(phi, M, _assignment(args.assign)))}


def cmd_delta_seq(session, args):
    from .structures import delta_seq
    M = session.structure(args.structure, "structure-m")
    N = session.structure(args.other, "structure-n")
    return delta_seq(M, N, _enumeration(session, args, M), args.k)


def _enumeration(session, args, M):
    from .structures import canonical_enumeration
    from .textio import parse_enumeration
    if args.enumeration:
        return parse_enumeration(session.text_of(args.enumeration, "enumeration"))
    if session.catalog is not None and session.catalog.manifest.get("delta_enumeration"):
        _, text = session.catalog.get(session.catalog.manifest["delta_enumeration"])
        session.inputs["enumeration"] = text
        return parse_enumeration(text)
    return canonical_enumeration(M.sig, M.space)


def cmd_mod_member(session, args):
    from .structures import mod_member
    M = session.structure(args.structure)
    phi = session.formula(args.formula, M.sig)
    member = mod_member(M, phi, _assignment(args.assign),
                        parse_rational(args.eps), args.cmp)
    return {"member": member}


def cmd_sc_probe(session, args):
    from .scprobe import sc_probe
    M = session.structure(args.structure)
    pool = [session.formula(ref, M.sig, f"pool{i}") for i, ref in enumerate(args.formula)]
    rep = sc_probe(M, args.n, parse_rational(args.eps), pool, args.depth)
    return {"status": rep.status,
            "family": [str(c) for c in rep.family],
            "failing_tuple": list(rep.failing_tuple),
            "failing_delta": [str(c) for c in rep.failing_delta],
            "families_examined": rep.families_examined}


def _anchored(session, args) -> AnchoredStructure:
    from .formula import Signature
    from .syntax import parse as parse_formula_text
    from .urysohn import AnchoredStructure, PredicateDef
    anchors = session.space(args.anchors, "anchors")
    sig = Signature((), anchors.points)
    defs = {}
    for i, d in enumerate(args.define or []):
        head, eq, body = d.partition("=")
        name, _, params = head.strip().partition("(")
        name = name.strip()
        if not (eq and params.endswith(")")):
            raise CliError(f"--define wants R(x)=FORMULA, got {d!r}")
        if name in defs:
            raise CliError(f"--define: {name} defined twice")
        params = tuple(params.rstrip(")").replace(",", " ").split())
        defs[name] = PredicateDef(params, parse_formula_text(body.strip(), sig))
        session.inputs[f"def{i}"] = d
    return AnchoredStructure(anchors, defs)


def cmd_eval_urysohn(session, args):
    from .formula import Relation, Signature
    from .urysohn import QuantifierBudget, eval_urysohn
    anchored = _anchored(session, args)
    rels = tuple(Relation(name, len(d.params))
                 for name, d in anchored.defs.items())
    phi = session.formula(args.formula, Signature(rels, anchored.anchors.points))
    budget = QuantifierBudget(parse_rational(args.mesh), args.rounds)
    return eval_urysohn(phi, anchored, _assignment(args.params), budget)


def cmd_qf_decide(session, args):
    from .formula import Signature
    from .urysohn import qf_decide
    fragment = session.space(args.fragment, "fragment")
    phi = session.formula(args.formula, Signature((), fragment.points))
    value = qf_decide(phi, fragment)
    result = {"value": format_rational(value)}
    if args.threshold is not None:
        t = parse_rational(args.threshold)
        result["below"] = value < t
        result["above"] = value > t
    return result


def cmd_theta_demo(session, args):
    from .urysohn import theta_demo
    return theta_demo(parse_rational(args.q), parse_rational(args.tol))


def _descriptor(session, args):
    from . import textio
    return textio.parse_descriptor(session.text_of(args.descriptor, "descriptor"))


def _isometry(session, space, ref, label, target=None):
    from . import textio
    from .graded import PartialIsometry
    mapping = textio.parse_isometry_lines(session.text_of(ref, label))
    return PartialIsometry.build(space, target or space, mapping)


def cmd_graded_eval(session, args):
    from .graded import graded_eval
    space = session.space(args.space)
    target = session.space(args.target, "target") if args.target else space
    D = _descriptor(session, args)
    g = _isometry(session, space, args.isometry, "isometry", target)
    value = graded_eval(D, g)
    return value if isinstance(value, Enclosure) else {"value": format_rational(value)}


def cmd_graded_axioms(session, args):
    from .graded import PartialIsometry, check_graded_axioms
    from .structures import space_isometries
    space = session.space(args.space)
    D = _descriptor(session, args)
    if args.pair:
        pairs = []
        for i, spec in enumerate(args.pair):
            if spec.count(",") != 1:
                raise CliError(f"--pair wants ISOFILE,ISOFILE, got {spec!r}")
            ga, gb = spec.split(",")
            pairs.append((_isometry(session, space, ga.strip(), f"pair{i}a"),
                          _isometry(session, space, gb.strip(), f"pair{i}b")))
    else:
        isos = [PartialIsometry(space, space, m) for m in space_isometries(space)]
        pairs = [(g, h) for g in isos for h in isos]
    rep = check_graded_axioms(D, space, pairs)
    return {"ok": rep.ok,
            "identity_checks": rep.checked_identity,
            "symmetry_checks": rep.checked_symmetry,
            "subadditivity_checks": rep.checked_subadditivity,
            "failures": [f"{f.axiom}: {f.witness}" for f in rep.failures]}


def cmd_rho_s(session, args):
    from .graded import GroupMetricContext, rho_s
    space = session.space(args.space)
    g = _isometry(session, space, args.g, "g")
    h = _isometry(session, space, args.h, "h")
    enum = tuple(args.enumeration.split()) if args.enumeration else space.points
    return rho_s(g, h, GroupMetricContext(space, enum), args.k)


def cmd_invariance(session, args):
    from .graded import PartialIsometry, check_formula_invariance
    from .structures import automorphisms
    M = session.structure(args.structure)
    phi = session.formula(args.formula, M.sig)
    if args.sample:
        samples = [_isometry(session, M.space, ref, f"sample{i}")
                   for i, ref in enumerate(args.sample)]
    else:
        samples = [PartialIsometry(M.space, M.space, m) for m in automorphisms(M)]
    rep = check_formula_invariance(phi, M, _assignment(args.assign), samples)
    return {"ok": rep.ok, "checked": rep.checked,
            "failures": [f"gap {format_rational(f.gap)} exceeds bound "
                         f"{format_rational(f.bound)}" for f in rep.failures],
            "rejected": list(rep.rejected)}


def cmd_approx_search(session, args):
    from .graded import ApproxWitness, approx_search
    M = session.structure(args.structure, "structure-m")
    N = session.structure(args.other, "structure-n")
    D = _descriptor(session, args)
    res = approx_search(M, N, D, parse_rational(args.eps), args.budget)
    if isinstance(res, ApproxWitness):
        return {"found": True,
                "witness": dict(sorted(res.isometry.map.items())),
                "h_value_squared": format_rational(res.h_radicand),
                "structure_distance": format_rational(res.structure_distance)}
    return {"found": False, "examined": res.examined}


def cmd_oligo_probe(session, args):
    from .graded import oligo_probe
    M = session.structure(args.structure)
    res = oligo_probe(M, args.n, parse_rational(args.eps))
    return {"family": [list(t) for t in res.family],
            "family_size": len(res.family),
            "orbits": res.orbit_count,
            "group_order": res.group_order}


def _gspace(session, args):
    from . import textio
    return textio.parse_gspace(session.text_of(args.gspace, "gspace"))


def cmd_vaught_table(transform, session, args):
    """vaught-delta and vaught-star: transform names vaught_delta or vaught_star."""
    from . import vaught
    X, space_tables, group_tables = _gspace(session, args)
    phi = space_tables[_named("--phi", space_tables, args.phi)]
    j = group_tables[_named("--j", group_tables, args.j)]
    table = getattr(vaught, transform)(X, phi, j)
    return {"table": {x: format_rational(table[x]) for x in X.points}}


def cmd_vaught_sets(session, args):
    from .vaught import vaught_sets
    X, _, _ = _gspace(session, args)
    star, delta = vaught_sets(X, args.set.split(), args.u.split())
    return {"star": sorted(star), "delta": sorted(delta)}


def cmd_nice_closure(session, args):
    from .vaught import nice_closure
    X, space_tables, group_tables = _gspace(session, args)
    family = [space_tables[_named("--family", space_tables, name)] for name in args.family]
    cosets = [group_tables[_named("--cosets", group_tables, name)]
              for name in (args.cosets or [])]
    scales = [parse_rational(s) for s in (args.scales.split() if args.scales else [])]
    res = nice_closure(X, family, cosets, args.budget, scales)
    return {"size": len(res.family), "fixed_point": res.fixed_point,
            "applications": res.applications,
            "tables": [[format_rational(v) for v in vec] for vec in res.family]}


def cmd_encode(session, args):
    from . import textio
    from .reduction import encode
    inst = textio.parse_instance(session.text_of(args.instance, "instance"))
    return {"structure": textio.serialize_structure(encode(inst, args.x))}


def cmd_orbit_equiv(session, args):
    from . import textio
    from .reduction import check_g_invariance, orbit_equiv
    inst = textio.parse_instance(session.text_of(args.instance, "instance"))
    points = inst.x_space.points
    res = orbit_equiv(inst, _named("--x", points, args.x), _named("--xp", points, args.xp))
    invariance = check_g_invariance(inst, args.x)
    return {"same_orbit": res.same_orbit, "isomorphic": res.isomorphic,
            "orbit_witness": res.orbit_witness,
            "iso_witness": dict(sorted(res.iso_witness.items())) if res.iso_witness else None,
            "g_invariance_failures": invariance}


def cmd_lemma_suite(session, args):
    from .suite import run_suite
    rep = run_suite(args.seed, args.instances, args.max_points,
                    args.max_group, args.max_denominator)
    session.inputs["seed"] = str(args.seed)
    return {"ok": rep.ok, "instances": rep.instances, "checks": rep.checks,
            "per_lemma": dict(sorted(rep.per_lemma.items())),
            "violations": rep.violations}


def cmd_catalog_put(session, args):
    if session.catalog is None:
        raise CliError("catalog-put needs --catalog (or METRICLOGIC_CATALOG)")
    text = Path(args.file).read_text()
    session.inputs["artifact"] = text
    entry = session.catalog.put(args.name, args.kind, text)
    return {"stored": args.name, "kind": entry["kind"], "file": entry["file"]}


def cmd_catalog_get(session, args):
    if session.catalog is None:
        raise CliError("catalog-get needs --catalog (or METRICLOGIC_CATALOG)")
    kind, text = session.catalog.get(args.name)
    session.inputs["artifact"] = text
    return {"kind": kind, "text": text}


# ------------------------------------------------------------- wiring

def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its diagnostics
    return parse


def arg(*flags, **keywords):
    """One argument of a subcommand, as add_argument takes it."""
    return flags, keywords


EPS = arg("--eps", required=True)
ASSIGN = arg("--assign", default="")
SIGNATURE = (arg("--structure"), arg("--fragment"))
VAUGHT_TABLE = (arg("gspace"), arg("--phi", required=True), arg("--j", required=True))

# subcommand -> (handler, its arguments in order)
COMMANDS = {
    "validate": (cmd_validate, arg("space")),
    "extend": (cmd_extend, arg("space"),
               arg("--value", action="append", required=True, metavar="POINT=NUM/DEN"),
               arg("--name", default="")),
    "amalgamate": (cmd_amalgamate, arg("host"), arg("b_space"),
                   arg("--a-points", required=True), arg("--q", type=int, default=0), EPS),
    "enumerate-qu": (cmd_enumerate_qu, arg("space"),
                     arg("--denominator-bound", type=int, required=True),
                     arg("--budget", type=int, required=True)),
    "parse": (cmd_parse, arg("formula"), *SIGNATURE, arg("--loose", action="store_true")),
    "lipschitz": (cmd_lipschitz, arg("formula"), *SIGNATURE),
    "borel-level": (cmd_borel_level, arg("formula"),
                    arg("--cmp", choices=("<", ">"), default="<"), *SIGNATURE),
    "eval": (cmd_eval, arg("structure"), arg("formula"), ASSIGN),
    "delta-seq": (cmd_delta_seq, arg("structure"), arg("other"), arg("--enumeration"),
                  arg("--k", type=int, required=True)),
    "mod-member": (cmd_mod_member, arg("structure"), arg("formula"), ASSIGN, EPS,
                   arg("--cmp", choices=("<", ">"), required=True)),
    "sc-probe": (cmd_sc_probe, arg("structure"), arg("--n", type=int, required=True), EPS,
                 arg("--formula", action="append", default=[]),
                 arg("--depth", type=_int_at_least(0), default=1)),
    "eval-urysohn": (cmd_eval_urysohn, arg("formula"), arg("--anchors", required=True),
                     arg("--define", action="append", default=[], metavar="R(x)=FORMULA"),
                     arg("--params", default=""), arg("--mesh", default="1/16"),
                     arg("--rounds", type=int, default=2)),
    "qf-decide": (cmd_qf_decide, arg("fragment"), arg("formula"), arg("--threshold")),
    "theta-demo": (cmd_theta_demo, arg("--q", required=True),
                   arg("--tol", default="1/1000000")),
    "graded-eval": (cmd_graded_eval, arg("descriptor"), arg("isometry"),
                    arg("--space", required=True), arg("--target")),
    "graded-axioms": (cmd_graded_axioms, arg("descriptor"), arg("--space", required=True),
                      arg("--pair", action="append", default=[], metavar="ISOFILE,ISOFILE")),
    "rho-s": (cmd_rho_s, arg("g"), arg("h"), arg("--space", required=True),
              arg("--enumeration"), arg("--k", type=int, required=True)),
    "invariance": (cmd_invariance, arg("structure"), arg("formula"), ASSIGN,
                   arg("--sample", action="append", default=[])),
    "approx-search": (cmd_approx_search, arg("structure"), arg("other"), arg("descriptor"),
                      EPS, arg("--budget", type=_int_at_least(0), default=1000)),
    "oligo-probe": (cmd_oligo_probe, arg("structure"), arg("--n", type=int, required=True),
                    EPS),
    "vaught-delta": (partial(cmd_vaught_table, "vaught_delta"), *VAUGHT_TABLE),
    "vaught-star": (partial(cmd_vaught_table, "vaught_star"), *VAUGHT_TABLE),
    "vaught-sets": (cmd_vaught_sets, arg("gspace"), arg("--set", required=True),
                    arg("--u", required=True)),
    "nice-closure": (cmd_nice_closure, arg("gspace"),
                     arg("--family", action="append", required=True),
                     arg("--cosets", action="append", default=[]),
                     arg("--budget", type=_int_at_least(0), required=True),
                     arg("--scales", default="")),
    "encode": (cmd_encode, arg("instance"), arg("--x", required=True)),
    "orbit-equiv": (cmd_orbit_equiv, arg("instance"), arg("--x", required=True),
                    arg("--xp", required=True)),
    "lemma-suite": (cmd_lemma_suite, arg("--seed", type=int, default=0),
                    arg("--instances", type=_int_at_least(0), default=50),
                    arg("--max-points", type=_int_at_least(2), default=12),
                    arg("--max-group", type=_int_at_least(1), default=24),
                    arg("--max-denominator", type=_int_at_least(1), default=8)),
    "catalog-put": (cmd_catalog_put, arg("name"), arg("kind"), arg("file")),
    "catalog-get": (cmd_catalog_get, arg("name")),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="metriclogic",
        description="Exact workbench for continuous logic over rational metric spaces.")
    top.add_argument("--catalog", help="artifact catalog directory")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (fn, *arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(fn=fn)
    return top


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    lines = [f"command: {report['command']}"]
    for label, digest in report["inputs"].items():
        lines.append(f"input {label}: {digest}")
    lines.append(f"mode: {report['exact']}")
    result = report["result"]
    if isinstance(result, dict) and set(result) == {"lo", "hi"}:
        lines.append(f"result: lo {result['lo']} hi {result['hi']}")
    else:
        lines.extend(_render_value("result", result))
    lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


def _render_value(key, value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        out = [f"{pad}{key}:"]
        for k, v in value.items():
            out.extend(_render_value(k, v, indent + 1))
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{pad}{key}: [{', '.join(str(v) for v in value)}]"]
        out = [f"{pad}{key}:"]
        for i, v in enumerate(value):
            out.extend(_render_value(str(i), v, indent + 1))
        return out
    if isinstance(value, str) and "\n" in value:
        # A space or artifact text: each of its lines one level deeper.
        return [f"{pad}{key}:", *(f"{pad}  {line}" for line in value.splitlines())]
    return [f"{pad}{key}: {value}"]


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head -1`).  Point stdout at devnull so
        # the flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        session = Session(args)
        start = time.monotonic()
        result = args.fn(session, args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    elapsed_ms = int((time.monotonic() - start) * 1000)
    print(render(session.report(args.subcommand, result, elapsed_ms), args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
