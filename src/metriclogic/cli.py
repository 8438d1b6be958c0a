"""Command-line front end.

Every operation is a subcommand producing a Report: command echo, digests
of the inputs, a result payload with rationals rendered num/den, an
exact/enclosure flag and a timing field (excluded from any comparison).
Exit codes: 0 success, 1 domain error with a diagnostic on stderr (or a
reader that closed stdout early, silently), 2 usage error.  Artifact
arguments are file paths, or names resolved in the catalog when --catalog
(or METRICLOGIC_CATALOG) is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import textio
from .amalgam import amalgamate
from .catalog import Catalog, CatalogError, parse_enumeration
from .formula import Signature, lipschitz, borel_level
from .graded import (PartialIsometry, approx_search,
                     ApproxWitness, check_formula_invariance,
                     check_graded_axioms, graded_eval, GroupMetricContext,
                     oligo_probe, rho_s)
from .intervals import Enclosure
from .metric import KatetovFunction, RationalMetricSpace, one_point_extend, validate_table
from .quenum import qu_enumerate
from .rational import format_rational, parse_rational
from .reduction import check_g_invariance, encode, orbit_equiv
from .scprobe import sc_probe
from .structures import (FiniteStructure, canonical_enumeration, delta_seq,
                         evaluate, mod_member, space_isometries)
from .suite import run_suite
from .syntax import parse as parse_formula_text, print_formula
from .urysohn import (AnchoredStructure, PredicateDef, QuantifierBudget,
                      eval_urysohn, qf_decide, theta_demo)
from .vaught import nice_closure, vaught_delta, vaught_sets, vaught_star


class CliError(ValueError):
    pass


def _fr(q) -> str:
    return format_rational(q)


def _enc(e: Enclosure) -> Dict[str, str]:
    return {"lo": _fr(e.lo), "hi": _fr(e.hi)}


def _is_file(ref: str) -> bool:
    """Whether ref names a file; a reference no path can be (an inline
    formula over the file-name length limit, say) is not one."""
    try:
        return Path(ref).is_file()
    except OSError:
        return False


class Session:
    def __init__(self, args):
        self.args = args
        self.inputs: Dict[str, str] = {}
        catalog_dir = args.catalog or os.environ.get("METRICLOGIC_CATALOG")
        self.catalog = Catalog(catalog_dir) if catalog_dir else None

    def text_of(self, ref: str, label: str) -> str:
        if _is_file(ref):
            text = Path(ref).read_text()
        elif self.catalog is not None:
            try:
                _, text = self.catalog.get(ref)
            except CatalogError:
                raise CliError(f"{label}: no file or catalog entry named {ref!r}")
        else:
            raise CliError(f"{label}: file {ref!r} not found")
        self.inputs[label] = text
        return text

    def space(self, ref: str, label: str = "space") -> RationalMetricSpace:
        return textio.parse_space(self.text_of(ref, label))

    def structure(self, ref: str, label: str = "structure") -> FiniteStructure:
        return textio.parse_structure(self.text_of(ref, label))

    def formula_text(self, ref: str, label: str = "formula") -> str:
        if _is_file(ref):
            return self.text_of(ref, label)
        if self.catalog is not None:
            try:
                kind, text = self.catalog.get(ref)
                if kind == "formula":
                    self.inputs[label] = text
                    return text
            except CatalogError:
                pass
        self.inputs[label] = ref          # inline formula text
        return ref

    def report(self, command: str, result: dict, exact: bool) -> dict:
        digests = {label: hashlib.sha256(text.encode()).hexdigest()[:16]
                   for label, text in sorted(self.inputs.items())}
        return {"command": command, "inputs": digests, "result": result,
                "exact": "exact" if exact else "enclosure",
                "timing_ms": self._elapsed_ms}

    _elapsed_ms = 0


def _assignment(spec: Optional[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not spec:
        return out
    for piece in spec.replace(",", " ").split():
        if "=" not in piece:
            raise CliError(f"bad assignment piece {piece!r}, want var=point")
        var, point = piece.split("=", 1)
        out[var] = point
    return out


def _sig_for(session: Session, args) -> Signature:
    if getattr(args, "structure", None):
        return session.structure(args.structure, "signature-structure").sig
    if getattr(args, "fragment", None):
        return Signature((), session.space(args.fragment, "fragment").points)
    return Signature()


# ----------------------------------------------------------- subcommands

def cmd_validate(session, args):
    text = session.text_of(args.space, "space")
    points, dist = textio.parse_space_raw(text)
    report = validate_table(points, dist)
    return {"ok": report.ok,
            "violations": [str(v) for v in report.violations]}, True


def cmd_extend(session, args):
    space = session.space(args.space)
    values = {}
    for item in args.value:
        if "=" not in item:
            raise CliError(f"--value wants p=num/den, got {item!r}")
        p, v = item.split("=", 1)
        values[p] = parse_rational(v)
    f = KatetovFunction(space, values)
    out = one_point_extend(space, f, name=args.name or "")
    return {"space": textio.serialize_space(out)}, True


def cmd_amalgamate(session, args):
    host = session.space(args.host, "host")
    b_space = session.space(args.b_space, "b-space")
    res = amalgamate(host, args.a_points.split(), b_space, args.q,
                     parse_rational(args.eps))
    return {"space": textio.serialize_space(res.space),
            "displacement": _fr(res.displacement),
            "b_names": list(res.b_names),
            "witness": {p: res.witness.map[p] for p in res.witness.source.points}}, True


def cmd_enumerate_qu(session, args):
    seed = session.space(args.space, "seed")
    out, cert = qu_enumerate(seed, args.denominator_bound, args.budget)
    tasks = [{"subset": list(t.subset), "values": [_fr(v) for v in t.values],
              "realized_by": t.realized_by, "added_point": t.added_point}
             for t in cert.tasks]
    return {"space": textio.serialize_space(out), "tasks": tasks}, True


def cmd_parse(session, args):
    sig = _sig_for(session, args)
    text = session.formula_text(args.formula)
    phi = parse_formula_text(text, sig, loose=args.loose)
    return {"canonical": print_formula(phi)}, True


def cmd_lipschitz(session, args):
    sig = _sig_for(session, args)
    phi = parse_formula_text(session.formula_text(args.formula), sig)
    return {"coefficient": _fr(lipschitz(phi, sig))}, True


def cmd_borel_level(session, args):
    sig = _sig_for(session, args)
    phi = parse_formula_text(session.formula_text(args.formula), sig,
                             loose=args.loose)
    level = borel_level(phi, args.cmp)
    return {"class": level.class_kind, "index": level.index}, True


def cmd_eval(session, args):
    M = session.structure(args.structure)
    phi = parse_formula_text(session.formula_text(args.formula), M.sig)
    value = evaluate(phi, M, _assignment(args.assign))
    return {"value": _fr(value)}, True


def cmd_delta_seq(session, args):
    M = session.structure(args.structure, "structure-m")
    N = session.structure(args.other, "structure-n")
    enum = _enumeration(session, args, M)
    e = delta_seq(M, N, enum, args.k)
    return _enc(e), False


def _enumeration(session, args, M):
    ref = getattr(args, "enumeration", None)
    if ref:
        return parse_enumeration(session.text_of(ref, "enumeration"))
    if session.catalog is not None and session.catalog.manifest.get("delta_enumeration"):
        _, text = session.catalog.get(session.catalog.manifest["delta_enumeration"])
        session.inputs["enumeration"] = text
        return parse_enumeration(text)
    return canonical_enumeration(M.sig, M.space)


def cmd_mod_member(session, args):
    M = session.structure(args.structure)
    phi = parse_formula_text(session.formula_text(args.formula), M.sig)
    member = mod_member(M, phi, _assignment(args.assign),
                        parse_rational(args.eps), args.cmp)
    return {"member": member}, True


def cmd_sc_probe(session, args):
    M = session.structure(args.structure)
    pool = [parse_formula_text(session.formula_text(ref, f"pool{i}"), M.sig)
            for i, ref in enumerate(args.formula)]
    rep = sc_probe(M, args.n, parse_rational(args.eps), pool, args.depth)
    return {"status": rep.status,
            "family": [str(c) for c in rep.family],
            "failing_tuple": list(rep.failing_tuple),
            "failing_delta": [str(c) for c in rep.failing_delta],
            "families_examined": rep.families_examined}, True


def _anchored(session, args) -> AnchoredStructure:
    anchors = session.space(args.anchors, "anchors")
    defs = {}
    for i, d in enumerate(args.define or []):
        head, _, body = d.partition("=")
        name, _, params = head.strip().partition("(")
        params = tuple(params.rstrip(")").split())
        sig = Signature((), anchors.points)
        defs[name.strip()] = PredicateDef(
            params, parse_formula_text(body.strip(), sig))
        session.inputs[f"def{i}"] = d
    return AnchoredStructure(anchors, defs)


def cmd_eval_urysohn(session, args):
    anchored = _anchored(session, args)
    from .formula import Relation
    rels = tuple(Relation(name, len(d.params))
                 for name, d in anchored.defs.items())
    sig = Signature(rels, anchored.anchors.points)
    phi = parse_formula_text(session.formula_text(args.formula), sig)
    budget = QuantifierBudget(parse_rational(args.mesh), args.rounds)
    e = eval_urysohn(phi, anchored, _assignment(args.params), budget)
    return _enc(e), False


def cmd_qf_decide(session, args):
    fragment = session.space(args.fragment, "fragment")
    sig = Signature((), fragment.points)
    phi = parse_formula_text(session.formula_text(args.formula), sig)
    value = qf_decide(phi, fragment)
    result = {"value": _fr(value)}
    if args.threshold is not None:
        t = parse_rational(args.threshold)
        result["below"] = value < t
        result["above"] = value > t
    return result, True


def cmd_theta_demo(session, args):
    e = theta_demo(parse_rational(args.q), parse_rational(args.tol))
    return _enc(e), False


def _descriptor(session, args):
    return textio.parse_descriptor(session.text_of(args.descriptor, "descriptor"))


def _isometry(session, space, ref, label, target=None):
    mapping = textio.parse_isometry_lines(session.text_of(ref, label))
    return PartialIsometry.build(space, target or space, mapping)


def cmd_graded_eval(session, args):
    space = session.space(args.space)
    target = session.space(args.target, "target") if args.target else space
    D = _descriptor(session, args)
    g = _isometry(session, space, args.isometry, "isometry", target)
    value = graded_eval(D, g)
    if isinstance(value, Enclosure):
        return _enc(value), False
    return {"value": _fr(value)}, True


def cmd_graded_axioms(session, args):
    space = session.space(args.space)
    D = _descriptor(session, args)
    if args.pair:
        pairs = []
        for i, spec in enumerate(args.pair):
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
            "failures": [f"{f.axiom}: {f.witness}" for f in rep.failures]}, True


def cmd_rho_s(session, args):
    space = session.space(args.space)
    g = _isometry(session, space, args.g, "g")
    h = _isometry(session, space, args.h, "h")
    enum = tuple(args.enumeration.split()) if args.enumeration else space.points
    ctx = GroupMetricContext(space, enum)
    e = rho_s(g, h, ctx, args.k)
    return _enc(e), False


def cmd_invariance(session, args):
    M = session.structure(args.structure)
    phi = parse_formula_text(session.formula_text(args.formula), M.sig)
    if args.sample:
        samples = [_isometry(session, M.space, ref, f"sample{i}")
                   for i, ref in enumerate(args.sample)]
    else:
        from .structures import automorphisms
        samples = [PartialIsometry(M.space, M.space, m)
                   for m in automorphisms(M)]
    rep = check_formula_invariance(phi, M, _assignment(args.assign), samples)
    return {"ok": rep.ok, "checked": rep.checked,
            "failures": [f"gap {_fr(f.gap)} exceeds bound {_fr(f.bound)}"
                         for f in rep.failures],
            "rejected": list(rep.rejected)}, True


def cmd_approx_search(session, args):
    M = session.structure(args.structure, "structure-m")
    N = session.structure(args.other, "structure-n")
    D = _descriptor(session, args)
    res = approx_search(M, N, D, parse_rational(args.eps), args.budget)
    if isinstance(res, ApproxWitness):
        return {"found": True,
                "witness": dict(sorted(res.isometry.map.items())),
                "h_value_squared": _fr(res.h_radicand),
                "structure_distance": _fr(res.structure_distance)}, True
    return {"found": False, "examined": res.examined}, True


def cmd_oligo_probe(session, args):
    M = session.structure(args.structure)
    res = oligo_probe(M, args.n, parse_rational(args.eps))
    return {"family": [list(t) for t in res.family],
            "family_size": len(res.family),
            "orbits": res.orbit_count,
            "group_order": res.group_order}, True


def _gspace(session, args):
    return textio.parse_gspace(session.text_of(args.gspace, "gspace"))


def cmd_vaught_delta(session, args):
    X, space_tables, group_tables = _gspace(session, args)
    table = vaught_delta(X, space_tables[args.phi], group_tables[args.j])
    return {"table": {x: _fr(table[x]) for x in X.points}}, True


def cmd_vaught_star(session, args):
    X, space_tables, group_tables = _gspace(session, args)
    table = vaught_star(X, space_tables[args.phi], group_tables[args.j])
    return {"table": {x: _fr(table[x]) for x in X.points}}, True


def cmd_vaught_sets(session, args):
    X, _, _ = _gspace(session, args)
    star, delta = vaught_sets(X, args.set.split(), args.u.split())
    return {"star": sorted(star), "delta": sorted(delta)}, True


def cmd_nice_closure(session, args):
    X, space_tables, group_tables = _gspace(session, args)
    family = [space_tables[name] for name in args.family]
    cosets = [group_tables[name] for name in (args.cosets or [])]
    scales = [parse_rational(s) for s in (args.scales.split() if args.scales else [])]
    res = nice_closure(X, family, cosets, args.budget, scales)
    return {"size": len(res.family), "fixed_point": res.fixed_point,
            "applications": res.applications,
            "tables": [[_fr(v) for v in vec] for vec in res.family]}, True


def cmd_encode(session, args):
    inst = textio.parse_instance(session.text_of(args.instance, "instance"))
    M = encode(inst, args.x)
    return {"structure": textio.serialize_structure(M)}, True


def cmd_orbit_equiv(session, args):
    inst = textio.parse_instance(session.text_of(args.instance, "instance"))
    res = orbit_equiv(inst, args.x, args.xp)
    invariance = check_g_invariance(inst, args.x)
    return {"same_orbit": res.same_orbit, "isomorphic": res.isomorphic,
            "orbit_witness": res.orbit_witness,
            "iso_witness": dict(sorted(res.iso_witness.items())) if res.iso_witness else None,
            "g_invariance_failures": invariance}, True


def cmd_lemma_suite(session, args):
    rep = run_suite(args.seed, args.instances, args.max_points,
                    args.max_group, args.max_denominator)
    session.inputs["seed"] = str(args.seed)
    return {"ok": rep.ok, "instances": rep.instances, "checks": rep.checks,
            "per_lemma": dict(sorted(rep.per_lemma.items())),
            "violations": rep.violations}, True


def cmd_catalog_put(session, args):
    if session.catalog is None:
        raise CliError("catalog-put needs --catalog (or METRICLOGIC_CATALOG)")
    text = Path(args.file).read_text()
    session.inputs["artifact"] = text
    entry = session.catalog.put(args.name, args.kind, text)
    return {"stored": args.name, "kind": entry["kind"], "file": entry["file"]}, True


def cmd_catalog_get(session, args):
    if session.catalog is None:
        raise CliError("catalog-get needs --catalog (or METRICLOGIC_CATALOG)")
    kind, text = session.catalog.get(args.name)
    session.inputs["artifact"] = text
    return {"kind": kind, "text": text}, True


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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="metriclogic",
        description="Exact workbench for continuous logic over rational metric spaces.")
    top.add_argument("--catalog", help="artifact catalog directory")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, configure):
        p = sub.add_parser(name)
        configure(p)
        p.set_defaults(fn=fn)

    add("validate", cmd_validate, lambda p: p.add_argument("space"))

    def c_extend(p):
        p.add_argument("space")
        p.add_argument("--value", action="append", required=True,
                       metavar="POINT=NUM/DEN")
        p.add_argument("--name", default="")
    add("extend", cmd_extend, c_extend)

    def c_amalgamate(p):
        p.add_argument("host")
        p.add_argument("b_space")
        p.add_argument("--a-points", required=True)
        p.add_argument("--q", type=int, default=0)
        p.add_argument("--eps", required=True)
    add("amalgamate", cmd_amalgamate, c_amalgamate)

    def c_enum(p):
        p.add_argument("space")
        p.add_argument("--denominator-bound", type=int, required=True)
        p.add_argument("--budget", type=int, required=True)
    add("enumerate-qu", cmd_enumerate_qu, c_enum)

    def c_parse(p):
        p.add_argument("formula")
        p.add_argument("--structure")
        p.add_argument("--fragment")
        p.add_argument("--loose", action="store_true")
    add("parse", cmd_parse, c_parse)

    def c_lip(p):
        p.add_argument("formula")
        p.add_argument("--structure")
        p.add_argument("--fragment")
    add("lipschitz", cmd_lipschitz, c_lip)

    def c_borel(p):
        p.add_argument("formula")
        p.add_argument("--cmp", choices=("<", ">"), default="<")
        p.add_argument("--structure")
        p.add_argument("--fragment")
        p.add_argument("--loose", action="store_true", default=True)
    add("borel-level", cmd_borel_level, c_borel)

    def c_eval(p):
        p.add_argument("structure")
        p.add_argument("formula")
        p.add_argument("--assign", default="")
    add("eval", cmd_eval, c_eval)

    def c_delta(p):
        p.add_argument("structure")
        p.add_argument("other")
        p.add_argument("--enumeration")
        p.add_argument("--k", type=int, required=True)
    add("delta-seq", cmd_delta_seq, c_delta)

    def c_mod(p):
        p.add_argument("structure")
        p.add_argument("formula")
        p.add_argument("--assign", default="")
        p.add_argument("--eps", required=True)
        p.add_argument("--cmp", choices=("<", ">"), required=True)
    add("mod-member", cmd_mod_member, c_mod)

    def c_probe(p):
        p.add_argument("structure")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--eps", required=True)
        p.add_argument("--formula", action="append", default=[])
        p.add_argument("--depth", type=int, default=1)
    add("sc-probe", cmd_sc_probe, c_probe)

    def c_ury(p):
        p.add_argument("formula")
        p.add_argument("--anchors", required=True)
        p.add_argument("--define", action="append", default=[],
                       metavar="R(x)=FORMULA")
        p.add_argument("--params", default="")
        p.add_argument("--mesh", default="1/16")
        p.add_argument("--rounds", type=int, default=2)
    add("eval-urysohn", cmd_eval_urysohn, c_ury)

    def c_qf(p):
        p.add_argument("fragment")
        p.add_argument("formula")
        p.add_argument("--threshold")
    add("qf-decide", cmd_qf_decide, c_qf)

    def c_theta(p):
        p.add_argument("--q", required=True)
        p.add_argument("--tol", default="1/1000000")
    add("theta-demo", cmd_theta_demo, c_theta)

    def c_geval(p):
        p.add_argument("descriptor")
        p.add_argument("isometry")
        p.add_argument("--space", required=True)
        p.add_argument("--target")
    add("graded-eval", cmd_graded_eval, c_geval)

    def c_gax(p):
        p.add_argument("descriptor")
        p.add_argument("--space", required=True)
        p.add_argument("--pair", action="append", default=[],
                       metavar="ISOFILE,ISOFILE")
    add("graded-axioms", cmd_graded_axioms, c_gax)

    def c_rho(p):
        p.add_argument("g")
        p.add_argument("h")
        p.add_argument("--space", required=True)
        p.add_argument("--enumeration")
        p.add_argument("--k", type=int, required=True)
    add("rho-s", cmd_rho_s, c_rho)

    def c_inv(p):
        p.add_argument("structure")
        p.add_argument("formula")
        p.add_argument("--assign", default="")
        p.add_argument("--sample", action="append", default=[])
    add("invariance", cmd_invariance, c_inv)

    def c_approx(p):
        p.add_argument("structure")
        p.add_argument("other")
        p.add_argument("descriptor")
        p.add_argument("--eps", required=True)
        p.add_argument("--budget", type=int, default=1000)
    add("approx-search", cmd_approx_search, c_approx)

    def c_oligo(p):
        p.add_argument("structure")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--eps", required=True)
    add("oligo-probe", cmd_oligo_probe, c_oligo)

    def c_vd(p):
        p.add_argument("gspace")
        p.add_argument("--phi", required=True)
        p.add_argument("--j", required=True)
    add("vaught-delta", cmd_vaught_delta, c_vd)
    add("vaught-star", cmd_vaught_star, c_vd)

    def c_vs(p):
        p.add_argument("gspace")
        p.add_argument("--set", required=True)
        p.add_argument("--u", required=True)
    add("vaught-sets", cmd_vaught_sets, c_vs)

    def c_nc(p):
        p.add_argument("gspace")
        p.add_argument("--family", action="append", required=True)
        p.add_argument("--cosets", action="append", default=[])
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--scales", default="")
    add("nice-closure", cmd_nice_closure, c_nc)

    def c_encode(p):
        p.add_argument("instance")
        p.add_argument("--x", required=True)
    add("encode", cmd_encode, c_encode)

    def c_orbit(p):
        p.add_argument("instance")
        p.add_argument("--x", required=True)
        p.add_argument("--xp", required=True)
    add("orbit-equiv", cmd_orbit_equiv, c_orbit)

    def c_suite(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--instances", type=_int_at_least(0), default=50)
        p.add_argument("--max-points", type=_int_at_least(2), default=12)
        p.add_argument("--max-group", type=_int_at_least(1), default=24)
        p.add_argument("--max-denominator", type=_int_at_least(1), default=8)
    add("lemma-suite", cmd_lemma_suite, c_suite)

    def c_cput(p):
        p.add_argument("name")
        p.add_argument("kind")
        p.add_argument("file")
    add("catalog-put", cmd_catalog_put, c_cput)

    add("catalog-get", cmd_catalog_get, lambda p: p.add_argument("name"))
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
    session = Session(args)
    start = time.monotonic()
    try:
        result, exact = args.fn(session, args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    session._elapsed_ms = int((time.monotonic() - start) * 1000)
    report = session.report(args.subcommand, result, exact)
    print(render(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
