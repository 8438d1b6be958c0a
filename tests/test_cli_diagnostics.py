"""One-line diagnostics for degenerate parameters and unknown names."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from metriclogic import cli
from metriclogic.cli import main
from metriclogic.textio import parse_enumeration

DATA = Path(__file__).resolve().parent.parent / "data"
PAIR = DATA / "pair.space"


def call(*argv):
    """(exit code, stderr) of one call; argparse's usage exit counts too."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("n, eps, message", [
    ("0", "1/2", "error: n must be >= 1"),
    ("-1", "1/2", "error: n must be >= 1"),
    ("1", "-1", "error: eps must be >= 0")])
def test_oligo_probe_refuses_degenerate_parameters(n, eps, message):
    code, err = call("oligo-probe", DATA / "twopoint.struct", "--n", n, "--eps", eps)
    assert (code, err) == (1, message + "\n")


# Runs the CLI's main in a child capped at 512 MB of address space, and
# prints how long main took.
TIMED_MAIN = """import sys, time
from metriclogic.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_sc_probe_refuses_more_tuples_than_its_guard():
    """2^21 (n+1)-tuples exceed the guard: refused at once, before any is
    built (building them runs out of memory)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "sc-probe", str(DATA / "twopoint.struct"),
         "--n", "20", "--eps", "1/2", "--formula", "(d x1 x2)"],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29)))
    assert (proc.returncode, proc.stderr) == (1, "error: 2^21 tuples exceed the guard (4096)\n")
    assert float(proc.stdout) < 1


def test_sc_probe_refuses_a_negative_eps():
    """oligo-probe's refusal: no tuple is within a negative eps of another."""
    code, err = call("sc-probe", DATA / "twopoint.struct", "--n", "1", "--eps=-1/2",
                     "--formula", "(P x1)")
    assert (code, err) == (1, "error: eps must be >= 0\n")


@pytest.mark.parametrize("argv", [
    ["sc-probe", DATA / "twopoint.struct", "--n", "1", "--eps", "1/2", "--depth", "-1"],
    ["approx-search", DATA / "twopoint.struct", DATA / "twopoint.struct",
     DATA / "stab.graded", "--eps", "1/4", "--budget", "-1"],
    ["nice-closure", DATA / "swap.gspace", "--family", "mark", "--budget", "-1"]])
def test_negative_depth_and_budget_are_usage_errors(argv):
    code, err = call(*argv)
    assert code == 2 and "must be >= 0, got -1" in err


def test_nice_closure_names_the_unknown_family():
    code, err = call("nice-closure", DATA / "swap.gspace", "--family", "zz", "--budget", "3")
    assert (code, err) == (1, "error: --family: unknown name 'zz' (known: mark)\n")


@pytest.mark.parametrize("scale", ["-1", "0"])
def test_nice_closure_refuses_a_scale_factor_not_positive(scale):
    code, err = call("nice-closure", DATA / "swap.gspace", "--family", "mark", "--budget", "6",
                     "--scales", scale)
    assert (code, err) == (1, "error: scale factor must be a positive rational\n")


# A regular file where the catalog directory should be, a manifest that is
# not JSON, one that is not an object holding an artifacts object, and an
# entry whose file lies outside the directory.
BAD_CATALOGS = [None, "{not json", "[]", '{"artifacts": []}',
                '{"artifacts": {"h": {"kind": "space", "file": "../../../etc/hostname"}}}']


@pytest.mark.parametrize("manifest", BAD_CATALOGS)
@pytest.mark.parametrize("by_env", [False, True])
def test_a_bad_catalog_is_one_line(tmp_path, monkeypatch, manifest, by_env):
    catalog = tmp_path / "store"
    if manifest is None:
        catalog.write_text("")
    else:
        catalog.mkdir()
        (catalog / "manifest.json").write_text(manifest)
    argv = ["eval-urysohn", "(sup x (d a x))", "--anchors", PAIR]
    if by_env:
        monkeypatch.setenv("METRICLOGIC_CATALOG", str(catalog))
    else:
        argv = ["--catalog", catalog, *argv]
    code, err = call(*argv)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("by_env", [False, True])
def test_a_regular_file_as_catalog_is_named_as_the_directory(tmp_path, monkeypatch, by_env):
    catalog = tmp_path / "store"
    catalog.write_text("")
    argv = ["validate", DATA / "eq3.space"]
    if by_env:
        monkeypatch.setenv("METRICLOGIC_CATALOG", str(catalog))
    else:
        argv = ["--catalog", catalog, *argv]
    assert call(*argv) == (1, f"error: catalog {catalog} is not a directory\n")


def test_vaught_delta_names_the_unknown_table():
    code, err = call("vaught-delta", DATA / "swap.gspace", "--phi", "nope", "--j", "full")
    assert (code, err) == (1, "error: --phi: unknown name 'nope' (known: mark)\n")


def test_orbit_equiv_names_the_unknown_point():
    code, err = call("orbit-equiv", DATA / "swapx.inst", "--x", "nope", "--xp", "x1")
    assert (code, err) == (1, "error: --x: unknown name 'nope' (known: x0, x1)\n")


def test_graded_axioms_wants_a_pair_of_isometries():
    isom = DATA / "id3.isom"
    code, err = call("graded-axioms", DATA / "stab.graded", "--space", DATA / "eq3.space",
                     "--pair", isom)
    assert (code, err) == (1, f"error: --pair wants ISOFILE,ISOFILE, got {str(isom)!r}\n")


SWAPX = (DATA / "swapx.inst").read_text()
ORBIT = ["orbit-equiv", "{}", "--x", "x0", "--xp", "x1"]
SETS = ["vaught-sets", "{}", "--set", "x", "--u", "e"]
DELTA = ["delta-seq", DATA / "twopoint.struct", DATA / "twopoint.struct",
         "--enumeration", "{}", "--k", "1"]


@pytest.mark.parametrize("text, argv, message", [
    (SWAPX.replace("element e\n", "", 1), ORBIT, "ymap line before any element line"),
    (SWAPX.replace("element e\n", "element\n", 1), ORBIT, "bad element line: 'element'"),
    ("points x y\nperm e x y\ngraded-space\n", SETS, "graded-space line needs a name"),
    ("points x y\nperm e x y\ngraded-group\n", SETS, "graded-group line needs a name"),
    ("x\n", DELTA, "bad enumeration line: 'x'"),
    ("t R p\n", DELTA, "enumeration entry R(p) is not a tuple"),
    ("t P z\n", DELTA, "enumeration entry P(z) is not a tuple"),
    ("points a a\nperm e a a\n", SETS, "duplicate point a"),
    ("points: a a\nd a a 1/2\n", ["validate", "{}"], "duplicate point a"),
    ("points: a b\nd a b 1/2\nd a b 3/4\n", ["validate", "{}"],
     "duplicate pair (a,b): 'd a b 3/4'"),
    ("points: p q\nd p q 1/2\nrel P\nv p 0\nv p 1/2\n", ["eval", "{}", "(d p q)"],
     "duplicate tuple in rel 'P': 'v p 1/2'"),
    ("points x y\nperm e x y\nperm e x y\n", SETS, "duplicate perm e: 'perm e x y'"),
    ("points x y\nperm e x y\ngraded-space m 0 1\ngraded-space m 1 0\n", SETS,
     "duplicate graded-space m: 'graded-space m 1 0'"),
    ("points x y\nperm e x y\ngraded-group h 0\ngraded-group h 0\n", SETS,
     "duplicate graded-group h: 'graded-group h 0'"),
    (SWAPX.replace("ymap s0 s0\n", "ymap s0 s0\nymap s0 s1\n", 1), ORBIT,
     "duplicate ymap s0 in element e: 'ymap s0 s1'"),
    (SWAPX.replace("xmap x0 x0\n", "xmap x0 x0\nxmap x0 x1\n", 1), ORBIT,
     "duplicate xmap x0 in element e: 'xmap x0 x1'"),
    (SWAPX.replace("kmax 2\n", "kmax two\n", 1), ORBIT, "bad kmax line: 'kmax two'"),
    (SWAPX + "kmax 1\n", ORBIT, "duplicate kmax line: 'kmax 1'"),
    (SWAPX + "senum s1 s0\n", ORBIT, "duplicate senum line: 'senum s1 s0'")],
    ids=["ymap-first", "nameless-element", "nameless-graded-space",
         "nameless-graded-group", "enumeration-line", "unknown-relation", "unknown-tuple",
         "duplicate-gspace-point", "duplicate-space-point", "duplicate-pair", "duplicate-rel-tuple", "duplicate-perm",
         "duplicate-graded-space", "duplicate-graded-group", "duplicate-ymap",
         "duplicate-xmap", "kmax-not-a-number", "duplicate-kmax", "duplicate-senum"])
def test_malformed_text_gets_a_one_line_diagnostic(tmp_path, text, argv, message):
    path = tmp_path / "input"
    path.write_text(text)
    code, err = call(*(path if a == "{}" else a for a in argv))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err and "int()" not in err


def test_an_enumeration_may_hold_comments(tmp_path):
    """`#` starts a comment in an enumeration as in every other format: the
    commented file gives the entries and the delta-seq result of the bare
    one."""
    bare, commented = tmp_path / "bare.enum", tmp_path / "commented.enum"
    bare.write_text("t P q\nt P p\n")
    commented.write_text("# c\nt P q  # first\n\n   # c\nt P p\n")
    assert parse_enumeration(commented.read_text()) == [("P", ("q",)), ("P", ("p",))]
    results = []
    for path in (bare, commented):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", "json", "delta-seq", str(DATA / "twopoint.struct"),
                         str(DATA / "twopoint.struct"), "--enumeration", str(path),
                         "--k", "1"]) == 0
        results.append(json.loads(out.getvalue())["result"])
    assert results[0] == results[1]


@pytest.mark.parametrize("q, eps, message", [
    ("-1", "1/20", "range: q = -1 outside 0..2"),
    ("0", "0", "range: eps = 0 must be positive"),
    ("0", "1/2", "range: displacement 3/2 exceeds the diameter bound; "
                 "range a b: (2C+1)eps = 3/2 not < d = 3/5")],
    ids=["q", "eps", "displacement"])
def test_a_report_line_with_no_points_has_no_space_before_its_colon(q, eps, message):
    code, err = call("amalgamate", PAIR, PAIR, "--a-points", "a b", "--q", q, "--eps", eps)
    assert (code, err) == (1, f"error: {message}\n")


def test_a_pair_may_be_given_in_both_directions(tmp_path):
    path = tmp_path / "both.space"
    path.write_text("points: a b\nd a b 1/2\nd b a 1/2\n")
    assert call("validate", path) == (0, "")


@pytest.mark.parametrize("images", ["a a", "a z"])
def test_gspace_perm_line_must_be_a_permutation(tmp_path, images):
    path = tmp_path / "bad.gspace"
    path.write_text(f"points a b\nperm e a b\nperm c {images}\n")
    code, err = call("vaught-sets", path, "--set", "a", "--u", "e")
    assert (code, err) == (1, "error: action of c is not a permutation\n")


@pytest.mark.parametrize("formula, defines, message", [
    ("(R b)", ["R(y)=(d y a)", "R(y)=(d y b)"], "--define: R defined twice"),
    ("(sup x (R x))", ["R(a)=(d a b)"], "parameter a of R names an anchor"),
    ("(sup x (R x))", ["R(y=(d y a)"], "--define wants R(x)=FORMULA, got 'R(y=(d y a)'"),
    ("(sup x (R x))", ["R(x)=(d z y)"], "definition of R has stray variables y, z"),
    ("(sup x (R x))", ["R(x)"], "--define wants R(x)=FORMULA, got 'R(x)'"),
    ("(R a b)", ["R(x,x)=(d x a)"], "parameter x of a definition is repeated")],
    ids=["defined-twice", "anchor-parameter", "unclosed-head", "stray-variables", "no-body",
         "repeated-parameter"])
def test_eval_urysohn_refuses_a_bad_definition(formula, defines, message):
    argv = ["eval-urysohn", formula, "--anchors", PAIR, "--mesh", "1/8", "--rounds", "0"]
    for d in defines:
        argv += ["--define", d]
    assert call(*argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("define", ["R(y,z)=(d y z)", "R(y, z) = (d y z)", "R(y z)=(d y z)"])
def test_definition_parameters_split_on_commas_and_spaces(capsys, define):
    argv = ["--format", "json", "eval-urysohn", "(sup x (R x a))", "--anchors", str(PAIR),
            "--mesh", "1/8", "--rounds", "0", "--define", define]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"lo": "1", "hi": "1"}


NAME_REFUSED = "cannot be written in a space file (no whitespace or '#')"


@pytest.mark.parametrize("values, name, message", [
    (["a=1/2", "b=1/2", "z=1/4"], "", "--value: unknown name 'z' (known: a, b)"),
    (["a=1/2", "b=1/2", "a=1/4"], "", "--value: point 'a' given twice"),
    (["a=3/10", "b=3/10"], "m n", f"--name: 'm n' {NAME_REFUSED}"),
    (["a=3/10", "b=3/10"], "m#", f"--name: 'm#' {NAME_REFUSED}"),
    (["a=1/10", "b=1/10"], "",
     "inadmissible extension: triangle a b: |1/10-1/10| <= 3/5 <= 1/10+1/10 fails"),
    (["a=1/2"], "", "inadmissible extension: missing b: no value at point"),
    (["a=3/2", "b=1/2"], "", "inadmissible extension: range a: 3/2 outside [0,1]"),
    (["a=3/10", "b=3/10"], "a", "point 'a' already present")],
    ids=["unknown-point", "repeated-point", "name-with-space", "name-with-hash",
         "triangle", "missing-value", "out-of-range", "name-present"])
def test_extend_refuses_a_stray_or_repeated_value(values, name, message):
    argv = ["extend", PAIR, "--name", name]
    for v in values:
        argv += ["--value", v]
    assert call(*argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["extend", PAIR, "--value", "a=1/0", "--value", "b=3/10"],
    ["extend", PAIR, "--value", "a=1/2/3", "--value", "b=3/10"],
    ["extend", PAIR, "--value", "a=x", "--value", "b=3/10"],
    ["amalgamate", PAIR, PAIR, "--a-points", "a b", "--eps", "1/0"]],
    ids=["zero-denominator", "two-slashes", "not-a-number", "eps"])
def test_a_bad_rational_is_named_in_the_projects_terms(argv):
    code, err = call(*argv)
    assert code == 1 and err.count("\n") == 1 and err.startswith("error: bad rational ")
    assert "Fraction(" not in err and "int()" not in err


@pytest.mark.parametrize("argv", [
    ["eval-urysohn", "(d x a)", "--anchors", PAIR, "--params", "x=a,x=b"],
    ["eval", DATA / "twopoint.struct", "(d x c)", "--assign", "x=p x=q"]],
    ids=["params", "assign"])
def test_a_variable_assigned_twice_is_refused(argv):
    assert call(*argv) == (1, "error: variable 'x' assigned twice\n")


def test_running_out_of_memory_is_one_line(monkeypatch):
    """A MemoryError carries no message; the call still ends with one line."""
    def raiser(session, args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "validate", (raiser, cli.arg("space")))
    assert call("validate", DATA / "eq3.space") == (1, "error: out of memory\n")
