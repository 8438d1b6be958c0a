"""Line-oriented text formats for every artifact kind.

Spaces:      `points: p1 p2 ...` then `d p q num/den` for every pair.
Structures:  a space block, then `rel NAME [modulus num/den]` blocks with
             `v p1 ... pk num/den` lines and `const NAME POINT` lines.
Isometries:  `map p q` lines.
Descriptors: `graded (linear|sqrt) q [s...] -> [t...]`, grouped by
             `max{ ... ; ... }`.
Group spaces: `points ...`, `perm NAME img1 img2 ...`,
             `graded-space NAME v1 v2 ...`, `graded-group NAME v1 v2 ...`.
Instances:   sections `yspace`/`xspace` holding space blocks, `element NAME`
             with `ymap`/`xmap` lines, `basis p1 p2 ...`, `senum ...`,
             `kmax N`.
Enumerations: `t NAME p1 ... pk` lines.

Serialization is canonical: fixed ordering, exact `num/den` rationals, one
trailing newline.  parse(serialize(x)) reproduces x, and serialize is a
byte-identity on its own output.  A parser imports the module of the
objects it builds when it runs, so reading a space loads no formula,
structure or group code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from .metric import RationalMetricSpace
from .rational import format_rational, parse_rational


class FormatError(ValueError):
    pass


def _lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


# ---------------------------------------------------------------- spaces

def serialize_space(space: RationalMetricSpace) -> str:
    lines = ["points: " + " ".join(space.points)]
    for p, q in combinations(space.points, 2):
        lines.append(f"d {p} {q} {format_rational(space.d(p, q))}")
    return "\n".join(lines) + "\n"


def _refuse_repeats(points: Tuple[str, ...]) -> None:
    """A header's points are distinct: a repeat would silently merge two
    points' distance lines or a perm line's images."""
    for i, p in enumerate(points):
        if p in points[:i]:
            raise FormatError(f"duplicate point {p}")


def parse_space_raw(text: str):
    """Parse a candidate table without validating it.

    Returns (points, dense table).  Entries are mirrored unless the mirror
    is written explicitly (a file may state contradictory directions, which
    the validator then reports as asymmetry); missing diagonals default to
    zero, but every off-diagonal pair must be present.
    """
    lines = _lines(text)
    if not lines or not lines[0].startswith("points:"):
        raise FormatError("space must start with a `points:` header")
    points = tuple(lines[0].split(":", 1)[1].split())
    if not points:
        raise FormatError("empty point list")
    _refuse_repeats(points)
    given: Dict[Tuple[str, str], Fraction] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "d":
            raise FormatError(f"bad distance line: {line!r}")
        _, p, q, value = parts
        if p not in points or q not in points:
            raise FormatError(f"unknown point in line: {line!r}")
        if (p, q) in given:
            raise FormatError(f"duplicate pair ({p},{q}): {line!r}")
        given[(p, q)] = parse_rational(value)
    table = dict(given)
    for (p, q), v in given.items():
        table.setdefault((q, p), v)
    for p in points:
        table.setdefault((p, p), Fraction(0))
    for p, q in combinations(points, 2):
        if (p, q) not in table:
            raise FormatError(f"pair ({p},{q}) omitted; no defaults")
    return points, table


def parse_space(text: str) -> RationalMetricSpace:
    points, table = parse_space_raw(text)
    from .metric import validate_table
    report = validate_table(points, table)
    if not report.ok:
        raise FormatError(str(report))
    return RationalMetricSpace(points, table)


# ------------------------------------------------------------ structures

def serialize_structure(M: FiniteStructure) -> str:
    chunks = [serialize_space(M.space).rstrip("\n")]
    from itertools import product
    for rel in M.sig.relations:
        header = f"rel {rel.name}"
        if rel.modulus_coefficient != Fraction(rel.arity):
            header += f" modulus {format_rational(rel.modulus_coefficient)}"
        chunks.append(header)
        for tup in product(M.space.points, repeat=rel.arity):
            chunks.append("v " + " ".join(tup) + " "
                          + format_rational(M.tables[rel.name][tup]))
    for name in M.sig.constants:
        chunks.append(f"const {name} {M.constants[name]}")
    return "\n".join(chunks) + "\n"


def parse_structure(text: str) -> FiniteStructure:
    from .formula import Relation, Signature
    from .structures import FiniteStructure
    lines = _lines(text)
    space_lines, rest = [], []
    for i, line in enumerate(lines):
        if line.startswith(("rel ", "const ")):
            rest = lines[i:]
            break
        space_lines.append(line)
    space = parse_space("\n".join(space_lines) + "\n")
    relations: List[Relation] = []
    tables: Dict[str, Dict[Tuple[str, ...], Fraction]] = {}
    constants: Dict[str, str] = {}
    const_names: List[str] = []
    current: str | None = None
    pending_modulus: Dict[str, Fraction] = {}
    arity: Dict[str, int] = {}
    for line in rest:
        parts = line.split()
        if parts[0] == "rel":
            if len(parts) not in (2, 4) or (len(parts) == 4 and parts[2] != "modulus"):
                raise FormatError(f"bad rel header: {line!r}")
            current = parts[1]
            if current in tables:
                raise FormatError(f"duplicate relation {current!r}")
            tables[current] = {}
            if len(parts) == 4:
                pending_modulus[current] = parse_rational(parts[3])
        elif parts[0] == "v":
            if current is None:
                raise FormatError("value line before any rel header")
            if len(parts) < 3:
                raise FormatError(f"bad value line: {line!r}")
            *pts, value = parts[1:]
            k = len(pts)
            arity.setdefault(current, k)
            if arity[current] != k:
                raise FormatError(f"inconsistent arity in {current!r}")
            for p in pts:
                if p not in space.points:
                    raise FormatError(f"unknown point {p!r} in value line")
            if tuple(pts) in tables[current]:
                raise FormatError(f"duplicate tuple in rel {current!r}: {line!r}")
            tables[current][tuple(pts)] = parse_rational(value)
        elif parts[0] == "const":
            if len(parts) != 3:
                raise FormatError(f"bad const line: {line!r}")
            constants[parts[1]] = parts[2]
            const_names.append(parts[1])
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    for name, table in tables.items():
        relations.append(Relation(name, arity.get(name, 1),
                                  pending_modulus.get(name)))
    sig = Signature(tuple(relations), tuple(const_names))
    try:
        return FiniteStructure(space, sig, tables, constants)
    except Exception as exc:
        raise FormatError(str(exc)) from None


# ------------------------------------------------------------ isometries

def parse_isometry_lines(text: str) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for line in _lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "map":
            raise FormatError(f"bad map line: {line!r}")
        if parts[1] in mapping:
            raise FormatError(f"duplicate domain point {parts[1]!r}")
        mapping[parts[1]] = parts[2]
    if not mapping:
        raise FormatError("empty isometry")
    return mapping


# ------------------------------------------------------------ descriptors

def serialize_descriptor(D: GradedDescriptor) -> str:
    from .graded import GradedAtomDescriptor

    def leaf(a: GradedAtomDescriptor) -> str:
        return (f"graded {a.kind} {format_rational(a.scale)} "
                f"[{' '.join(a.base)}] -> [{' '.join(a.shift)}]")

    if isinstance(D, GradedAtomDescriptor):
        return leaf(D) + "\n"
    return "max{ " + " ; ".join(leaf(p) for p in D.parts) + " }\n"


def parse_descriptor(text: str) -> GradedDescriptor:
    from .graded import GradedMaxDescriptor
    body = " ".join(_lines(text)).strip()
    if body.startswith("max{"):
        if not body.endswith("}"):
            raise FormatError("unterminated max{ ... } group")
        inner = body[len("max{"):-1]
        parts = [p.strip() for p in inner.split(";") if p.strip()]
        return GradedMaxDescriptor(tuple(_parse_leaf(p) for p in parts))
    return _parse_leaf(body)


def _parse_leaf(text: str) -> GradedAtomDescriptor:
    from .graded import GradedAtomDescriptor
    head, sep, tail = text.partition("[")
    if not sep:
        raise FormatError(f"bad descriptor: {text!r}")
    words = head.split()
    if len(words) != 3 or words[0] != "graded":
        raise FormatError(f"bad descriptor head: {head!r}")
    kind, scale = words[1], parse_rational(words[2])
    base_part, sep, rest = tail.partition("]")
    if not sep:
        raise FormatError("unterminated base tuple")
    rest = rest.strip()
    if not rest.startswith("->"):
        raise FormatError("descriptor needs `-> [shift]`")
    shift_part = rest[2:].strip()
    if not (shift_part.startswith("[") and shift_part.endswith("]")):
        raise FormatError("bad shift tuple")
    base = tuple(base_part.split())
    shift = tuple(shift_part[1:-1].split())
    return GradedAtomDescriptor(kind, scale, base, shift)


# ----------------------------------------------------------- group spaces

def serialize_gspace(X: FiniteGSpace, space_tables: Dict[str, Dict[str, Fraction]] = None,
                     group_tables: Dict[str, Dict[str, Fraction]] = None) -> str:
    lines = ["points " + " ".join(X.points)]
    for g in X.elements:
        lines.append(f"perm {g} " + " ".join(X.action[g][p] for p in X.points))
    for name, table in (space_tables or {}).items():
        lines.append(f"graded-space {name} "
                     + " ".join(format_rational(table[p]) for p in X.points))
    for name, table in (group_tables or {}).items():
        lines.append(f"graded-group {name} "
                     + " ".join(format_rational(table[g]) for g in X.elements))
    return "\n".join(lines) + "\n"


def parse_gspace(text: str):
    """Returns (FiniteGSpace, space tables, group tables)."""
    from .vaught import FiniteGSpace, GSpaceError
    lines = _lines(text)
    if not lines or not lines[0].startswith("points"):
        raise FormatError("group space must start with a `points` line")
    points = tuple(lines[0].split()[1:])
    _refuse_repeats(points)
    perms: Dict[str, List[str]] = {}
    raw_space: Dict[str, List[str]] = {}
    raw_group: Dict[str, List[str]] = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "perm":
            if len(parts) != 2 + len(points):
                raise FormatError(f"perm line needs {len(points)} images: {line!r}")
            named = perms
        elif parts[0] in ("graded-space", "graded-group"):
            if len(parts) < 2:
                raise FormatError(f"{parts[0]} line needs a name")
            named = raw_space if parts[0] == "graded-space" else raw_group
        else:
            raise FormatError(f"unrecognized line: {line!r}")
        if parts[1] in named:
            raise FormatError(f"duplicate {parts[0]} {parts[1]}: {line!r}")
        named[parts[1]] = parts[2:]
    try:
        X = FiniteGSpace(points, {g: dict(zip(points, images))
                                  for g, images in perms.items()})
    except GSpaceError as exc:
        raise FormatError(str(exc)) from None
    space_tables = {}
    for name, vals in raw_space.items():
        if len(vals) != len(points):
            raise FormatError(f"graded-space {name} needs {len(points)} values")
        space_tables[name] = dict(zip(points, map(parse_rational, vals)))
    group_tables = {}
    for name, vals in raw_group.items():
        if len(vals) != len(X.elements):
            raise FormatError(f"graded-group {name} needs {len(X.elements)} values")
        group_tables[name] = dict(zip(X.elements, map(parse_rational, vals)))
    return X, space_tables, group_tables


# -------------------------------------------------------------- instances

def serialize_instance(inst: ReductionInstance) -> str:
    lines = ["yspace"]
    lines.append(serialize_space(inst.y_space).rstrip("\n"))
    lines.append("xspace")
    lines.append(serialize_space(inst.x_space).rstrip("\n"))
    for g in inst.elements:
        lines.append(f"element {g.name}")
        for p in inst.y_space.points:
            lines.append(f"ymap {p} {g.y_map[p]}")
        for x in inst.x_space.points:
            lines.append(f"xmap {x} {g.x_map[x]}")
    for subset in inst.basis:
        lines.append("basis " + " ".join(subset))
    lines.append("senum " + " ".join(inst.s_enumeration))
    lines.append(f"kmax {inst.kmax}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ReductionInstance:
    from .reduction import GroupElement, ReductionInstance
    lines = _lines(text)
    sections: Dict[str, List[str]] = {"yspace": [], "xspace": []}
    elements: List[Tuple[str, Dict[str, str], Dict[str, str]]] = []
    basis: List[Tuple[str, ...]] = []
    senum: Tuple[str, ...] | None = None
    kmax: int | None = None
    mode = None
    for line in lines:
        parts = line.split()
        if parts[0] in ("yspace", "xspace"):
            mode = parts[0]
        elif parts[0] == "element":
            if len(parts) != 2:
                raise FormatError(f"bad element line: {line!r}")
            elements.append((parts[1], {}, {}))
            mode = "element"
        elif parts[0] in ("ymap", "xmap"):
            if not elements:
                raise FormatError(f"{parts[0]} line before any element line")
            if len(parts) != 3:
                raise FormatError(f"bad {parts[0]} line: {line!r}")
            name, maps = elements[-1][0], elements[-1][1 if parts[0] == "ymap" else 2]
            if parts[1] in maps:
                raise FormatError(f"duplicate {parts[0]} {parts[1]} in element {name}: {line!r}")
            maps[parts[1]] = parts[2]
        elif parts[0] == "basis":
            basis.append(tuple(parts[1:]))
        elif parts[0] == "senum":
            if senum is not None:
                raise FormatError(f"duplicate senum line: {line!r}")
            senum = tuple(parts[1:])
        elif parts[0] == "kmax":
            if kmax is not None:
                raise FormatError(f"duplicate kmax line: {line!r}")
            try:
                kmax, = map(int, parts[1:])
            except ValueError:
                raise FormatError(f"bad kmax line: {line!r}") from None
        elif mode in ("yspace", "xspace"):
            sections[mode].append(line)
        else:
            raise FormatError(f"unrecognized line: {line!r}")
    y_space = parse_space("\n".join(sections["yspace"]) + "\n")
    x_space = parse_space("\n".join(sections["xspace"]) + "\n")
    gels = tuple(GroupElement(name, ymap, xmap) for name, ymap, xmap in elements)
    try:
        return ReductionInstance(y_space, x_space, gels, tuple(basis), senum or (), kmax or 0)
    except Exception as exc:
        raise FormatError(str(exc)) from None


# ----------------------------------------------------------- enumerations

def parse_enumeration(text: str) -> List[Tuple[str, Tuple[str, ...]]]:
    """The (relation, tuple) entries of `t NAME p1 ... pk` lines."""
    out = []
    for line in _lines(text):
        parts = line.split()
        if parts[0] != "t" or len(parts) < 3:
            raise FormatError(f"bad enumeration line: {line!r}")
        out.append((parts[1], tuple(parts[2:])))
    return out
