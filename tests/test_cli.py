import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from metriclogic import textio
from metriclogic.catalog import Catalog, CatalogError
from metriclogic.cli import main
from metriclogic.graded import GradedAtomDescriptor, GradedMaxDescriptor

from helpers import SMALL_SIG, random_structure

SPACE_TEXT = "points: a b c\nd a b 1/2\nd a c 1/2\nd b c 1/2\n"

GSPACE_TEXT = """points x y
perm e x y
perm s y x
graded-space phi 0 1
graded-group full 0 0
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------ text formats

def test_space_roundtrip():
    s = textio.parse_space(SPACE_TEXT)
    assert textio.serialize_space(s) == SPACE_TEXT
    assert textio.parse_space(textio.serialize_space(s)).dist == s.dist


def test_space_omitted_pair_is_error():
    with pytest.raises(textio.FormatError):
        textio.parse_space("points: a b c\nd a b 1/2\nd a c 1/2\n")


def test_structure_roundtrip():
    M = random_structure(random.Random(1), 3, SMALL_SIG)
    text = textio.serialize_structure(M)
    back = textio.parse_structure(text)
    assert textio.serialize_structure(back) == text
    assert back.tables == M.tables


def test_descriptor_roundtrip():
    for D in (GradedAtomDescriptor("linear", F(2, 3), ("p", "q"), ("p", "q")),
              GradedAtomDescriptor("sqrt", F(2), ("p",), ("r",)),
              GradedMaxDescriptor((
                  GradedAtomDescriptor("linear", F(1), ("p",), ("p",)),
                  GradedAtomDescriptor("sqrt", F(1, 2), ("q",), ("q",))))):
        text = textio.serialize_descriptor(D)
        assert textio.parse_descriptor(text) == D


def test_gspace_roundtrip():
    X, st, gt = textio.parse_gspace(GSPACE_TEXT)
    assert textio.serialize_gspace(X, st, gt) == GSPACE_TEXT


def test_instance_roundtrip():
    rng = random.Random(2)
    from metriclogic.reduction import random_instance
    inst = random_instance(rng, max_y=3, max_x=4)
    text = textio.serialize_instance(inst)
    back = textio.parse_instance(text)
    assert textio.serialize_instance(back) == text


# ---------------------------------------------------------------- catalog

def test_catalog_roundtrip_and_errors(tmp_path):
    cat = Catalog(tmp_path / "store")
    entry = cat.put("eq3", "space", SPACE_TEXT)
    assert entry["kind"] == "space"
    kind, text = cat.get("eq3")
    assert kind == "space" and text == SPACE_TEXT
    with pytest.raises(CatalogError):
        cat.put("eq3", "space", SPACE_TEXT)      # collision
    with pytest.raises(CatalogError):
        cat.get("missing")
    with pytest.raises(CatalogError):
        cat.put("bad", "space", "points: a b\n")  # missing pair


def test_catalog_formula_and_enumeration(tmp_path):
    cat = Catalog(tmp_path)
    cat.put("f", "formula", "(sup x (d x y))")
    kind, text = cat.get("f")
    assert text == "(sup x (d x y))\n"
    cat.put("e", "enumeration", "t R p q\nt R q p\n")
    cat.set_delta_enumeration("e")
    with pytest.raises(CatalogError):
        cat.set_delta_enumeration("f")


# -------------------------------------------------------------------- cli

def test_validate_subcommand(tmp_path, capsys):
    f = tmp_path / "eq3.space"
    f.write_text(SPACE_TEXT)
    code, out, _ = run_cli(capsys, "--format", "json", "validate", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "validate"
    assert report["result"]["ok"] is True


def test_validate_reports_violations(tmp_path, capsys):
    f = tmp_path / "bad.space"
    f.write_text("points: a b c\nd a b 1/10\nd b c 1/10\nd a c 9/10\n")
    code, out, _ = run_cli(capsys, "--format", "json", "validate", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ok"] is False
    assert any("triangle" in v for v in report["result"]["violations"])


def test_theta_demo_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "theta-demo",
                           "--q", "1/4", "--tol", "1/1000000")
    assert code == 0
    report = json.loads(out)
    lo = F(report["result"]["lo"])
    hi = F(report["result"]["hi"])
    assert lo <= F(1, 2) <= hi and hi - lo <= F(1, 10 ** 6)
    assert report["exact"] == "enclosure"


def test_vaught_sets_subcommand(tmp_path, capsys):
    f = tmp_path / "swap.gspace"
    f.write_text(GSPACE_TEXT)
    code, out, _ = run_cli(capsys, "--format", "json", "vaught-sets", str(f),
                           "--set", "x", "--u", "e s")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["delta"] == ["x", "y"]
    assert report["result"]["star"] == []


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    f = tmp_path / "absent.space"
    code, out, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    assert "error" in err


def test_report_deterministic_modulo_timing(tmp_path, capsys):
    f = tmp_path / "eq3.space"
    f.write_text(SPACE_TEXT)
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--format", "json", "validate", str(f))
        r = json.loads(out)
        r.pop("timing_ms")
        reports.append(r)
    assert reports[0] == reports[1]


def test_catalog_cli_roundtrip(tmp_path, capsys):
    f = tmp_path / "eq3.space"
    f.write_text(SPACE_TEXT)
    cat = str(tmp_path / "store")
    code, out, _ = run_cli(capsys, "--catalog", cat, "catalog-put",
                           "eq3", "space", str(f))
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", "--catalog", cat,
                           "catalog-get", "eq3")
    assert code == 0
    assert json.loads(out)["result"]["text"] == SPACE_TEXT
    # named catalog artifacts resolve as command inputs
    code, out, _ = run_cli(capsys, "--format", "json", "--catalog", cat,
                           "validate", "eq3")
    assert code == 0 and json.loads(out)["result"]["ok"] is True
    code, _, _ = run_cli(capsys, "--catalog", cat, "catalog-put",
                         "eq3", "space", str(f))
    assert code == 1                                  # collision


PAIR = str(Path(__file__).resolve().parent.parent / "data" / "pair.space")


@pytest.mark.parametrize("argv", [
    ["extend", PAIR, "--value", "a=3/10", "--value", "b=3/10"],
    ["amalgamate", PAIR, PAIR, "--a-points", "a b", "--eps", "1/20"],
    ["catalog-get", "eq3"]],
    ids=["extend", "amalgamate", "catalog-get"])
def test_text_report_indents_every_line_of_a_multiline_field(tmp_path, capsys, argv):
    """A space's text prints under its key, every line one level deeper, so
    no line between `result:` and `timing_ms:` starts at column 0."""
    cat = ["--catalog", str(tmp_path / "store")]
    f = tmp_path / "eq3.space"
    f.write_text(SPACE_TEXT)
    assert run_cli(capsys, *cat, "catalog-put", "eq3", "space", str(f))[0] == 0
    code, out, _ = run_cli(capsys, *cat, *argv)
    assert code == 0
    lines = out.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("timing_ms:"))
    body = lines[lines.index("result:") + 1:end]
    assert all(line.startswith("  ") for line in body), body
    assert any(line.startswith("    d a b ") for line in body), body


def test_eval_and_lipschitz_subcommands(tmp_path, capsys):
    M = random_structure(random.Random(4), 3, SMALL_SIG)
    f = tmp_path / "m.struct"
    f.write_text(textio.serialize_structure(M))
    code, out, _ = run_cli(capsys, "--format", "json", "eval", str(f),
                           "(sup x (P x))")
    assert code == 0
    value = F(json.loads(out)["result"]["value"])
    assert 0 <= value <= 1
    code, out, _ = run_cli(capsys, "--format", "json", "lipschitz",
                           "(d x y)")
    assert code == 0
    assert json.loads(out)["result"]["coefficient"] == "2"


def test_amalgamate_subcommand(tmp_path, capsys):
    host = tmp_path / "host.space"
    host.write_text("points: a1 a2\nd a1 a2 1/2\n")
    b = tmp_path / "b.space"
    b.write_text("points: b1 b2\nd b1 b2 9/20\n")
    code, out, _ = run_cli(capsys, "--format", "json", "amalgamate",
                           str(host), str(b), "--a-points", "a1 a2",
                           "--q", "0", "--eps", "1/10")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["displacement"] == "3/10"


def test_eval_urysohn_subcommand(tmp_path, capsys):
    f = tmp_path / "one.space"
    f.write_text("points: s\n")
    code, out, _ = run_cli(capsys, "--format", "json", "eval-urysohn",
                           "(sup x (d s x))", "--anchors", str(f),
                           "--mesh", "1/16", "--rounds", "1")
    assert code == 0
    report = json.loads(out)
    assert F(report["result"]["lo"]) <= 1 <= F(report["result"]["hi"])


def test_lemma_suite_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "lemma-suite",
                           "--seed", "5", "--instances", "3")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ok"] is True
    assert report["result"]["instances"] == 3


def test_delta_seq_uses_manifest_enumeration(tmp_path, capsys):
    M = random_structure(random.Random(6), 2, SMALL_SIG)
    mt = textio.serialize_structure(M)
    (tmp_path / "m.struct").write_text(mt)
    cat = Catalog(tmp_path / "store")
    cat.put("m", "structure", mt)
    first = next(iter(M.tables["P"]))
    cat.put("order", "enumeration", f"t P {first[0]}\n")
    cat.set_delta_enumeration("order")
    code, out, _ = run_cli(capsys, "--format", "json",
                           "--catalog", str(tmp_path / "store"),
                           "delta-seq", "m", "m", "--k", "1")
    assert code == 0
    report = json.loads(out)
    # one-entry enumeration: identical structures give [0, 1/2]
    assert report["result"] == {"lo": "0", "hi": "1/2"}
    assert "enumeration" in report["inputs"]


# ------------------------------------------------- hostile input, closed pipes

LONG_FORMULA = "(max (d a x) " * 20 + "(d b x)" + ")" * 20


def test_long_inline_formula_is_not_taken_for_a_path(tmp_path, capsys):
    assert len(LONG_FORMULA) > 255              # longer than any file name
    for extra in ([], ["--catalog", str(tmp_path / "store")]):
        code, out, err = run_cli(capsys, *extra, "--format", "json",
                                 "lipschitz", LONG_FORMULA)
        assert code == 0, err
        assert json.loads(out)["result"]["coefficient"] == "2"


@pytest.mark.parametrize("flag,value", [("--max-points", "1"),
                                        ("--max-points", "-4"),
                                        ("--max-denominator", "0")])
def test_lemma_suite_degenerate_bounds_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["lemma-suite", "--instances", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"metriclogic lemma-suite: error: argument {flag}: "
        f"must be >= {2 if flag == '--max-points' else 1}, got {value}"]


@pytest.mark.parametrize("flag,value,low", [("--max-group", "0", 1),
                                            ("--max-group", "-3", 1),
                                            ("--instances", "-1", 0)])
def test_lemma_suite_group_and_instance_bounds_are_usage_errors(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["lemma-suite", "--instances", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= {low}, got {value}" in err


def test_lemma_suite_smallest_bounds_run(capsys):
    code, out, err = run_cli(capsys, "lemma-suite", "--instances", "2",
                             "--max-points", "2", "--max-denominator", "1")
    assert code == 0, err


def test_closed_stdout_ends_quietly(tmp_path):
    # A report larger than a pipe's buffer, so the reader closes the pipe
    # while the writer still has output to write.
    pts = [f"p{i}" for i in range(150)]
    seed = tmp_path / "wide.space"
    seed.write_text(f"points: {' '.join(pts)}\n" + "".join(
        f"d {p} {q} 1\n" for i, p in enumerate(pts) for q in pts[i + 1:]))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "metriclogic.cli", "enumerate-qu", str(seed),
         "--denominator-bound", "1", "--budget", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"command: enumerate-qu\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1, 2)
    assert "Traceback" not in err and "Exception" not in err, err


@pytest.mark.parametrize("name", ["../escaped", "sub/name", "", ".", ".."])
def test_catalog_names_stay_inside_the_directory(tmp_path, name):
    cat = Catalog(tmp_path / "store")
    with pytest.raises(CatalogError):
        cat.put(name, "space", SPACE_TEXT)
    assert list(tmp_path.rglob("*")) == [tmp_path / "store"]


@pytest.mark.parametrize("manifest", [
    "{not json", "[]", '{"artifacts": []}', '{"artifacts": {"h": "h.space"}}',
    '{"artifacts": {"h": {"kind": "space", "file": "../../../etc/hostname"}}}',
    '{"artifacts": {"h": {"kind": "space", "file": "g.space"}}}',
    '{"artifacts": {"../h": {"kind": "space", "file": "../h.space"}}}'])
def test_catalog_refuses_a_bad_manifest(tmp_path, manifest):
    """A manifest is an object holding an artifacts object, and each entry
    names the plain file put writes for it, so get reads nothing outside
    the directory."""
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(CatalogError):
        Catalog(tmp_path)


def test_catalog_put_cli_rejects_escaping_name(tmp_path, capsys):
    f = tmp_path / "eq3.space"
    f.write_text(SPACE_TEXT)
    code, out, err = run_cli(capsys, "--catalog", str(tmp_path / "store"),
                             "catalog-put", "../escaped", "space", str(f))
    assert code == 1 and "bad artifact name" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eq3.space", "store"]


@pytest.mark.parametrize("failing", ["pair.space", "manifest.json"])
def test_catalog_writes_replace_whole_files(tmp_path, monkeypatch, failing):
    cat = Catalog(tmp_path)
    cat.put("eq3", "space", SPACE_TEXT)
    manifest = (tmp_path / "manifest.json").read_text()
    real_replace = os.replace
    replaced = []

    def replace(src, dst):
        assert Path(src).parent == Path(dst).parent == tmp_path
        replaced.append(Path(dst).name)
        if Path(dst).name == failing:
            raise OSError("simulated crash before the rename")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        cat.put("pair", "space", "points: a b\nd a b 1/2\n")
    assert replaced[-1] == failing
    assert (tmp_path / "manifest.json").read_text() == manifest
    assert Catalog(tmp_path).names() == ["eq3"]
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
