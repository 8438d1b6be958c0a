"""Directory-backed store of named artifacts with a manifest.

Artifacts are stored in their canonical text serialization, so a get after
a put returns byte-identical content for canonical input.  The manifest
records every artifact's kind and file, plus the tuple enumeration in force
for structure-distance computations.  Names are plain file-name stems, so
every file stays inside the catalog directory, and each file is written to
a temporary file beside it and renamed into place, so a reader never sees
a half-written artifact or manifest.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import textio


class CatalogError(ValueError):
    pass


def _check_name(name: str):
    if name in ("", ".", "..") or any(sep in name for sep in (os.sep, os.altsep) if sep):
        raise CatalogError(f"bad artifact name {name!r}: want a plain name, "
                           "not empty, '.', '..' or containing a path separator")


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _canon_formula(text: str) -> str:
    from .syntax import parse, print_formula
    return print_formula(parse(text, loose=True)) + "\n"


def _canon_enumeration(text: str) -> str:
    entries = textio.parse_enumeration(text)
    if not entries:
        raise CatalogError("empty enumeration")
    return "\n".join(" ".join(("t", name, *tup)) for name, tup in entries) + "\n"


CANONICALIZERS: Dict[str, Callable[[str], str]] = {
    "space": lambda t: textio.serialize_space(textio.parse_space(t)),
    "structure": lambda t: textio.serialize_structure(textio.parse_structure(t)),
    "formula": _canon_formula,
    "isometry": lambda t: "\n".join(
        f"map {p} {q}" for p, q in sorted(textio.parse_isometry_lines(t).items())) + "\n",
    "descriptor": lambda t: textio.serialize_descriptor(textio.parse_descriptor(t)),
    "gspace": lambda t: textio.serialize_gspace(*textio.parse_gspace(t)),
    "instance": lambda t: textio.serialize_instance(textio.parse_instance(t)),
    "enumeration": _canon_enumeration,
}

EXTENSIONS = {"space": "space", "structure": "struct", "formula": "formula",
              "isometry": "isom", "descriptor": "graded", "gspace": "gspace",
              "instance": "inst", "enumeration": "enum"}


class Catalog:
    def __init__(self, directory: str | Path):
        self.dir = Path(directory)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except FileExistsError:     # raised only when the path is not a directory
            raise CatalogError(f"catalog {self.dir} is not a directory") from None
        self.manifest_path = self.dir / "manifest.json"
        if not self.manifest_path.exists():
            self.manifest = {"artifacts": {}, "delta_enumeration": None}
            return
        try:
            self.manifest = json.loads(self.manifest_path.read_text())
        except ValueError as exc:
            raise CatalogError(f"{self.manifest_path} is not JSON: {exc}") from None
        artifacts = self.manifest.get("artifacts") if isinstance(self.manifest, dict) else None
        if not isinstance(artifacts, dict):
            raise CatalogError(f"{self.manifest_path} is not an object holding an "
                               "'artifacts' object")
        # every entry names the file put writes for it, inside the directory
        for name, entry in artifacts.items():
            _check_name(name)
            kind = entry.get("kind") if isinstance(entry, dict) else None
            if kind not in EXTENSIONS or entry.get("file") != f"{name}.{EXTENSIONS[kind]}":
                raise CatalogError(f"{self.manifest_path}: entry {name!r} does not name "
                                   f"the file {name}.<extension> of its kind")

    def _save(self):
        _write_atomic(self.manifest_path,
                      json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")

    def put(self, name: str, kind: str, text: str) -> dict:
        _check_name(name)
        if kind not in CANONICALIZERS:
            raise CatalogError(f"unknown artifact kind {kind!r}")
        if name in self.manifest["artifacts"]:
            raise CatalogError(f"name collision: {name!r} already stored")
        try:
            canonical = CANONICALIZERS[kind](text)
        except Exception as exc:
            raise CatalogError(f"{kind} does not parse: {exc}") from None
        filename = f"{name}.{EXTENSIONS[kind]}"
        _write_atomic(self.dir / filename, canonical)
        entry = {"kind": kind, "file": filename}
        self.manifest["artifacts"][name] = entry
        self._save()
        return entry

    def get(self, name: str) -> Tuple[str, str]:
        """Returns (kind, canonical text)."""
        entry = self.manifest["artifacts"].get(name)
        if entry is None:
            raise CatalogError(f"not found: {name!r}")
        return entry["kind"], (self.dir / entry["file"]).read_text()

    def set_delta_enumeration(self, name: Optional[str]):
        if name is not None:
            kind, _ = self.get(name)
            if kind != "enumeration":
                raise CatalogError(f"{name!r} is not an enumeration artifact")
        self.manifest["delta_enumeration"] = name
        self._save()

    def names(self) -> List[str]:
        return sorted(self.manifest["artifacts"])
