"""What a cold call loads: the package imports no module of its own, and a
subcommand imports only the modules its handler runs.  Each case runs in a
fresh interpreter, since this process has imported everything already.
Last, no module imports a name it never reads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metriclogic
from metriclogic.catalog import Catalog

ROOT = Path(__file__).resolve().parent.parent


def modules_after(statement):
    """The modules a fresh interpreter holds after statement."""
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = {k: v for k, v in os.environ.items() if k != "METRICLOGIC_CATALOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(statement):
    """The metriclogic modules a fresh interpreter holds after statement."""
    return {m for m in modules_after(statement) if m.startswith("metriclogic")}


def cli_call(argv):
    """A statement making one successful CLI call."""
    return ("import contextlib, io\nfrom metriclogic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


def loaded_by_cli(argv):
    """The metriclogic modules loaded by one successful CLI call."""
    return loaded_after(cli_call(argv))


def test_package_import_loads_no_submodule():
    assert loaded_after("import metriclogic") == {"metriclogic"}


def test_package_names_resolve_to_their_submodules():
    for name in metriclogic.__all__:
        obj = getattr(metriclogic, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("metriclogic.") and getattr(home, name) is obj
    assert set(metriclogic.__all__) <= set(dir(metriclogic))
    assert not hasattr(metriclogic, "no_such_name")


def test_parse_loads_no_structure_search_or_group_code():
    loaded = loaded_by_cli(["parse", "(d x y)"])
    assert "metriclogic.syntax" in loaded
    for name in ("graded", "reduction", "vaught", "urysohn", "quenum", "amalgam",
                 "scprobe", "suite", "structures"):
        assert f"metriclogic.{name}" not in loaded


def test_validate_by_catalog_name_loads_no_formula_code(tmp_path):
    Catalog(tmp_path).put("eq3", "space", (ROOT / "data" / "eq3.space").read_text())
    loaded = loaded_by_cli(["--catalog", str(tmp_path), "validate", "eq3"])
    assert {"metriclogic.catalog", "metriclogic.textio", "metriclogic.metric"} <= loaded
    for name in ("formula", "syntax", "structures", "graded", "reduction", "vaught",
                 "urysohn"):
        assert f"metriclogic.{name}" not in loaded


@pytest.mark.parametrize("argv", [
    ["validate", "data/eq3.space"],
    ["eval-urysohn", "(sup x (inf y (max (d a y) (sup z (dotminus (d x z) (d y z))))))",
     "--anchors", "data/pair.space", "--mesh", "1/4", "--rounds", "0"],
], ids=["validate", "eval-urysohn"])
def test_cold_call_imports_neither_dataclasses_nor_inspect(argv):
    """Beyond what a bare interpreter holds here (a site hook may load
    more), a cold call adds neither module: records are built without
    them."""
    added = modules_after(cli_call(argv)) - modules_after("")
    assert "metriclogic.cli" in added
    assert not added & {"dataclasses", "inspect"}


def unread_imports(path):
    """The names a module's top-level imports bind and its code never reads
    (`from __future__` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    src = ROOT / "src" / "metriclogic"
    unread = {p.name: sorted(names) for p in sorted(src.glob("*.py"))
              if (names := unread_imports(p))}
    assert unread == {}
