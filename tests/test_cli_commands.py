"""End-to-end runs of every subcommand against the bundled data files."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from metriclogic.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def data(name):
    return str(DATA / name)


def test_validate(capsys):
    code, rep = run(capsys, "validate", data("eq3.space"))
    assert code == 0 and rep["result"]["ok"]


def test_extend(capsys):
    code, rep = run(capsys, "extend", data("pair.space"),
                    "--value", "a=3/10", "--value", "b=3/10", "--name", "m")
    assert code == 0 and "d a m 3/10" in rep["result"]["space"]


def test_extend_inadmissible_is_domain_error(capsys):
    code, _ = run(capsys, "extend", data("pair.space"),
                  "--value", "a=1/10", "--value", "b=1/10")
    assert code == 1


def test_amalgamate(capsys):
    code, rep = run(capsys, "amalgamate", data("pair.space"), data("pair.space"),
                    "--a-points", "a b", "--q", "0", "--eps", "1/20")
    assert code == 0 and rep["result"]["displacement"] == "3/20"


def test_enumerate_qu(capsys):
    code, rep = run(capsys, "enumerate-qu", data("pair.space"),
                    "--denominator-bound", "2", "--budget", "1")
    assert code == 0 and len(rep["result"]["tasks"]) == 4


def test_parse(capsys):
    code, rep = run(capsys, "parse", "(sup x (dotminus (d x y) 1/2))")
    assert code == 0
    assert rep["result"]["canonical"] == "(sup x (dotminus (d x y) 1/2))"


def test_lipschitz(capsys):
    code, rep = run(capsys, "lipschitz", "(scale 10 (d x u0))",
                    "--fragment", data("eq3.space"))
    # u0 is a variable here (not an eq3 point), so both positions count
    assert code == 0 and rep["result"]["coefficient"] == "20"
    code, rep = run(capsys, "lipschitz", "(scale 10 (d x a))",
                    "--fragment", data("eq3.space"))
    assert code == 0 and rep["result"]["coefficient"] == "10"


def test_borel_level(capsys):
    code, rep = run(capsys, "borel-level", "(neg (d x y))", "--cmp", "<")
    assert code == 0 and rep["result"] == {"class": "Sigma", "index": 2}


def test_borel_level_reads_relation_symbols_loosely(capsys):
    """borel-level always parses loosely: an undeclared relation symbol is
    a relation, with no flag to ask for it."""
    code, rep = run(capsys, "borel-level", "(S x y)", "--cmp", ">")
    assert code == 0 and rep["result"] == {"class": "Sigma", "index": 2}


def test_eval(capsys):
    code, rep = run(capsys, "eval", data("twopoint.struct"), "(sup x (P x))")
    assert code == 0 and rep["result"]["value"] == "1/2"


def test_delta_seq(capsys):
    code, rep = run(capsys, "delta-seq", data("twopoint.struct"),
                    data("twopoint.struct"), "--k", "2")
    assert code == 0 and rep["result"]["lo"] == "0"


def test_mod_member(capsys):
    code, rep = run(capsys, "mod-member", data("twopoint.struct"), "(P c)",
                    "--eps", "1/4", "--cmp", "<")
    assert code == 0 and rep["result"]["member"] is True


def test_sc_probe(capsys):
    code, rep = run(capsys, "sc-probe", data("twopoint.struct"),
                    "--n", "1", "--eps", "1/2", "--formula", "0", "--depth", "1")
    assert code == 0 and rep["result"]["status"] == "witness"


def test_eval_urysohn_with_definition(capsys):
    code, rep = run(capsys, "eval-urysohn", "(sup x (R x))",
                    "--anchors", data("eq3.space"),
                    "--define", "R(z) = (d z a)",
                    "--mesh", "1/16", "--rounds", "1")
    assert code == 0
    assert F(rep["result"]["lo"]) <= 1 <= F(rep["result"]["hi"])


def test_qf_decide(capsys):
    code, rep = run(capsys, "qf-decide", data("eq3.space"), "(neg (d a b))",
                    "--threshold", "1/4")
    assert code == 0
    assert rep["result"]["value"] == "1/2"
    assert rep["result"]["above"] is True and rep["result"]["below"] is False


def test_theta_demo(capsys):
    code, rep = run(capsys, "theta-demo", "--q", "49/100", "--tol", "1/100000")
    assert code == 0
    assert F(rep["result"]["lo"]) <= F(7, 10) <= F(rep["result"]["hi"])


def test_theta_demo_out_of_range(capsys):
    code, _ = run(capsys, "theta-demo", "--q", "1/20")
    assert code == 1


def test_graded_eval(capsys):
    code, rep = run(capsys, "graded-eval", data("stab.graded"), data("rot.isom"),
                    "--space", data("eq3.space"))
    assert code == 0
    lo, hi = F(rep["result"]["lo"]), F(rep["result"]["hi"])
    assert lo * lo <= F(1, 2) <= hi * hi      # sqrt(1/2)


def test_graded_axioms_exhaustive(capsys):
    code, rep = run(capsys, "graded-axioms", data("stab.graded"),
                    "--space", data("eq3.space"))
    assert code == 0 and rep["result"]["ok"]
    assert rep["result"]["subadditivity_checks"] == 36


def test_rho_s(capsys):
    code, rep = run(capsys, "rho-s", data("id3.isom"), data("rot.isom"),
                    "--space", data("eq3.space"), "--k", "2")
    assert code == 0
    assert rep["result"]["lo"] == "3/8"       # (1/2 + 1/4) * 1/2


def test_invariance(capsys):
    code, rep = run(capsys, "invariance", data("twopoint.struct"), "(P x)",
                    "--assign", "x=p")
    assert code == 0 and rep["result"]["ok"]


def test_approx_search(capsys):
    code, rep = run(capsys, "approx-search", data("twopoint.struct"),
                    data("twopoint.struct"), data("stab.graded"),
                    "--eps", "1/4", "--budget", "10")
    assert code == 1                          # descriptor point 'a' not in space


def test_approx_search_matching_descriptor(tmp_path, capsys):
    d = tmp_path / "p.graded"
    d.write_text("graded linear 1 [p] -> [p]\n")
    code, rep = run(capsys, "approx-search", data("twopoint.struct"),
                    data("twopoint.struct"), str(d),
                    "--eps", "1/4", "--budget", "10")
    assert code == 0 and rep["result"]["found"] is True


def test_oligo_probe(capsys):
    code, rep = run(capsys, "oligo-probe", data("twopoint.struct"),
                    "--n", "1", "--eps", "1")
    assert code == 0 and rep["result"]["family_size"] == 1


def test_vaught_delta_star(capsys):
    code, rep = run(capsys, "vaught-delta", data("swap.gspace"),
                    "--phi", "mark", "--j", "full")
    assert code == 0 and rep["result"]["table"] == {"x": "0", "y": "0"}
    code, rep = run(capsys, "vaught-star", data("swap.gspace"),
                    "--phi", "mark", "--j", "half")
    assert code == 0 and rep["result"]["table"] == {"x": "1/2", "y": "1"}


def test_vaught_sets(capsys):
    code, rep = run(capsys, "vaught-sets", data("swap.gspace"),
                    "--set", "y", "--u", "e")
    assert code == 0
    assert rep["result"]["star"] == ["y"] and rep["result"]["delta"] == ["y"]


def test_nice_closure(capsys):
    code, rep = run(capsys, "nice-closure", data("swap.gspace"),
                    "--family", "mark", "--cosets", "full",
                    "--budget", "2000", "--scales", "2")
    assert code == 0 and rep["result"]["fixed_point"] is True


def test_encode_and_orbit_equiv(capsys):
    code, rep = run(capsys, "encode", data("swapx.inst"), "--x", "x0")
    assert code == 0 and "rel R_1_0" in rep["result"]["structure"]
    code, rep = run(capsys, "orbit-equiv", data("swapx.inst"),
                    "--x", "x0", "--xp", "x1")
    assert code == 0
    assert rep["result"]["same_orbit"] is True
    assert rep["result"]["isomorphic"] is True
    assert rep["result"]["g_invariance_failures"] == []


def test_lemma_suite(capsys):
    code, rep = run(capsys, "lemma-suite", "--seed", "2", "--instances", "2")
    assert code == 0 and rep["result"]["ok"]


def test_sc_probe_reports_families_examined(capsys):
    argv = ["sc-probe", data("twopoint.struct"),
            "--n", "1", "--eps", "1/2", "--formula", "0", "--depth", "1"]
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["result"]["families_examined"] == 1
    assert main(argv) == 0
    assert "  families_examined: 1\n" in capsys.readouterr().out
