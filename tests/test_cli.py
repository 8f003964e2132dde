import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from modelk.automorphisms import AffineMap, PAMap
from modelk.cli import SUITE_NAMES, main
from modelk.cosets import AffineCoset
from modelk.defsets import make_block
from modelk.jsonio import dumps, pamap_to_json

CROSS = "ambient 2; pp(x1 = 0) | pp(x2 = 0)"
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RINGS = ["fq:3", "fq:4", "fq:5", "fq:9", "z", "poly-char0", "poly:K",
                "field:Q", "ed:R --unit-sum --t-closed",
                "ed:S --unit-sum --cofinal-odd"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def doubling_with_patch() -> PAMap:
    full = AffineCoset.full(1)
    p1 = AffineCoset.single_point((Fraction(1),))
    p2 = AffineCoset.single_point((Fraction(2),))
    return PAMap(1, [
        (make_block(full, [p1, p2]), AffineMap.make([[2]], [0])),
        (make_block(p1), AffineMap.make([[1]], [3])),
        (make_block(p2), AffineMap.make([[1]], [0])),
    ])


# --- set-level commands -------------------------------------------------------

def test_k0_json(capsys):
    code, out, _ = run(capsys, "--json", "k0", CROSS)
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == [-1, 2]  # two lines sharing a point


def test_iso(capsys):
    code, out, _ = run(capsys, "iso", "ambient 2; pp(x1 = 0)",
                       "ambient 2; pp(x2 = 7)")
    assert code == 0 and out.startswith("definably isomorphic")
    code, out, _ = run(capsys, "iso", "ambient 2; pp(x1 = 0)",
                       "ambient 2; pp(x1 = 0 & x2 = 0)")
    assert code == 0 and out.startswith("not definably isomorphic")


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "ambient 2; !pp(x1 = 0)")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "dim", "ambient 1; pp(x1 = 0) & pp(x1 = 1)")
    assert (code, out.strip()) == (0, "-inf (empty)")
    code, out, _ = run(capsys, "--json", "dim",
                       "ambient 1; pp(x1 = 0) & pp(x1 = 1)")
    assert json.loads(out) == {"dim": None, "empty": True}


def test_count(capsys):
    code, out, _ = run(capsys, "count", CROSS, "--prime", "5")
    assert code == 0
    assert out.strip() == "9 points mod 5; class predicts 9; prime is good"
    code, out, _ = run(capsys, "count", "ambient 1; pp(5*x1 = 1)",
                       "--prime", "5")
    assert code == 0
    assert out.strip() == "0 points mod 5; class predicts 1; prime is bad"


def test_count_refuses_a_modulus_that_is_not_a_prime(capsys):
    for modulus in ("0", "1", "-3", "4", "6", "9"):
        code, out, err = run(capsys, "count", CROSS, "--prime", modulus)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"p = {modulus} " in err


def test_count_names_the_point_limit(capsys):
    code, out, err = run(capsys, "count", "ambient 3; pp(x1 = 0)",
                         "--prime", "101")
    assert code == 1 and out == "" and err.startswith("error:")
    assert "_POINT_LIMIT = 10^6 points" in err and "no flag raises it" in err
    with pytest.raises(SystemExit) as info:
        main(["count", "--help"])
    assert info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--prime PRIME a prime p; counts the points of F_p^n" in help_text


def test_formula_errors_exit_1(capsys):
    code, out, err = run(capsys, "k0", "ambient 2; pp(x3 = 0)")
    assert code == 1 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "count", "ambient 1; pp(", "--prime", "3")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("formula", [
    "ambient \u00b2; pp(x1 = 0)",
    "ambient 1; pp(x\u00b2 = 0)",
    "ambient 1; pp(x1 = \u00b3)",
])
def test_non_ascii_digits_are_formula_errors(capsys, formula):
    code, out, err = run(capsys, "k0", formula)
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, col") and "Traceback" not in err


@pytest.mark.parametrize("command", ["k0", "count"])
@pytest.mark.parametrize("body", ["!" * 1200 + "pp(x1 = 0)",
                                  "(" * 400 + "pp(x1 = 0)" + ")" * 400,
                                  " | ".join(["pp(x1 = 0)"] * 1101)],
                         ids=["nots", "parens", "chain"])
def test_deep_formulas_are_formula_errors(capsys, command, body):
    extra = ["--prime", "5"] if command == "count" else []
    code, out, err = run(capsys, command, "ambient 1; " + body, *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, col") and "nests deeper than" in err


# --- piecewise-affine map commands ----------------------------------------------

def test_aut_validate_and_queries(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(dumps(pamap_to_json(doubling_with_patch())))
    code, out, _ = run(capsys, "aut", "validate", str(path))
    assert code == 0 and out.startswith("[ok]")
    code, out, _ = run(capsys, "aut", "dim", str(path))
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "--json", "aut", "support", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 1
    code, out, _ = run(capsys, "aut", "decompose", str(path))
    assert code == 0
    assert "matrix [[2]], offset [0]" in out
    assert "support dimension 0" in out


def test_aut_reads_stdin(capsys, monkeypatch):
    payload = dumps(pamap_to_json(doubling_with_patch()))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "aut", "dim", "-")
    assert (code, out.strip()) == (0, "1")


def test_aut_invalid_map(tmp_path, capsys):
    # second piece shadows part of the first: not a bijection
    full = AffineCoset.full(1)
    point = AffineCoset.single_point((Fraction(0),))
    bad = PAMap(1, [(make_block(full), AffineMap.identity(1)),
                    (make_block(point), AffineMap.make([[1]], [1]))])
    path = tmp_path / "bad.json"
    path.write_text(dumps(pamap_to_json(bad)))
    # validate reports the failure but is itself a successful run
    code, out, _ = run(capsys, "aut", "validate", str(path))
    assert code == 0 and out.startswith("[FAIL]")
    # queries that need a bijection refuse to run
    code, _, err = run(capsys, "aut", "support", str(path))
    assert code == 1 and err.startswith("error:")


Q0_MAP = json.dumps({"ambient": 0, "pieces": [
    {"carrier": {"ambient": 0}, "matrix": [], "offset": []}]})


@pytest.mark.parametrize("action, key, value", [
    ("validate", "passed", True), ("support", "support", {"ambient": 0, "blocks": []}),
    ("dim", "dim", None), ("decompose", "affine", {"matrix": [], "offset": []})])
def test_aut_takes_a_map_on_q0(action, key, value):
    # the identity of the one point of Q^0: its matrix has no rows
    done = _python("-m", "modelk", "--json", "aut", action, "-", input=Q0_MAP)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert json.loads(done.stdout)[key] == value


def _one_piece_map(**fields):
    """A one-piece map file on Q^1, with some piece fields replaced."""
    piece = {"carrier": {"ambient": 1, "rows": []}, "matrix": [[1]],
             "offset": [0]}
    piece.update(fields)
    return json.dumps({"ambient": 1, "pieces": [piece]})


@pytest.mark.parametrize("payload, problem", [
    ("not json", "the map file is not JSON"),
    ('{"ambient": 1}', "a map must be a JSON object with the field 'pieces'"),
    ("[]", "a map must be a JSON object with the field 'ambient'"),
    ('{"ambient": "a", "pieces": []}',
     "a map's 'ambient' must be a natural number, got 'a'"),
    (_one_piece_map(matrix=5), "a piece's 'matrix' must be a JSON list, got 5"),
    (_one_piece_map(carrier=3),
     "a coset must be a JSON object with the field 'ambient'"),
    (_one_piece_map(offset=["x"]), "cannot read a rational from 'x'"),
    (_one_piece_map(matrix=[["1/0"]]), "cannot read a rational from '1/0'"),
    (_one_piece_map(offset="12"),
     "a piece's 'offset' must be a JSON list, got '12'"),
])
def test_aut_names_a_malformed_map(capsys, monkeypatch, payload, problem):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, err = run(capsys, "aut", "validate", "-")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {problem}")


def test_aut_missing_file(capsys):
    code, _, err = run(capsys, "aut", "validate", "/no/such/file.json")
    assert code == 1 and err.startswith("error:")


# --- symbolic commands -----------------------------------------------------------

def test_k1_text_and_json(capsys):
    code, out, _ = run(capsys, "k1", "--ring", "fq:5")
    assert code == 0 and "Z_2" in out and "Z_4" in out
    code, out, _ = run(capsys, "--json", "k1", "--ring", "fq:5")
    doc = json.loads(out)
    kinds = {(s["atom"], s.get("k")) for s in doc["summands"]}
    assert ("Zmod", 2) in kinds and ("Zmod", 4) in kinds
    assert all(s["mult"] == "countable" for s in doc["summands"])


def test_k1_over_the_integers(capsys):
    code, out, _ = run(capsys, "k1", "--ring", "z")
    assert code == 0 and "Z_2" in out
    code, _, err = run(capsys, "k1", "--ring", "z", "--free-rank", "2")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("ring", ["z", "fq:5"])
@pytest.mark.parametrize("rank", ["0", "-1"])
def test_k1_rejects_free_ranks_below_one(capsys, ring, rank):
    code, out, err = run(capsys, "k1", "--ring", ring, "--free-rank", rank)
    assert code == 1 and not out
    assert err.startswith(f"error: free rank {rank} is not a module rank")
    assert "rank 2 or more" not in err


def test_k1_rejects_f2_and_flagless_domains(capsys):
    code, _, err = run(capsys, "k1", "--ring", "fq:2")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "k1", "--ring", "ed:R")
    assert code == 1
    code, out, _ = run(capsys, "k1", "--ring", "ed:R", "--unit-sum",
                       "--t-closed")
    assert code == 0 and "R^x" in out


def test_k1_flag_validation(capsys):
    code, _, err = run(capsys, "k1", "--ring", "fq:5", "--t-closed",
                       "--cofinal-even")
    assert code == 1 and "mutually exclusive" in err
    code, _, err = run(capsys, "k1", "--ring", "nonsense:9")
    assert code == 1 and "error:" in err


def test_k1_rejects_malformed_ring_integers(capsys):
    for token in ("fq:abc", "fq:"):
        code, out, err = run(capsys, "k1", "--ring", token)
        assert code == 1 and out == ""
        assert err.startswith("error:") and repr(token) in err


@pytest.mark.parametrize("spec", GOLDEN_RINGS)
def test_symbolic_json_matches_golden_files(capsys, spec):
    # tests/golden/*.json hold `modelk --json <command>` output; any change to
    # the symbolic layer must leave these bytes alone
    slug = re.sub(r"[^A-Za-z0-9]+", "-", spec).strip("-")
    commands = {f"k1-{slug}": ["k1", "--ring", *spec.split()]}
    for n in (1, 2, 3):
        commands[f"omega-ab-{slug}-n{n}"] = [
            "omega-ab", "--ring", *spec.split(), "--n", str(n)]
    for name, argv in commands.items():
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text(), name


GOLDEN_GROUP_COMMANDS = (
    [["abelianize", "--group", g] for g in (
        "gl:3:3", "sl:3:3", "sl:2:5", "aff:2:3", "gl:2:4", "wreath:sym:3:2",
        "sl2:3", "q8", "dihedral:8", "sym:5")]
    + [["verify", "--suite", s]
       for s in ("gl", "ed", "perm", "wreath", "truncation", "semiab", "lift")])


@pytest.mark.parametrize("argv", GOLDEN_GROUP_COMMANDS, ids=" ".join)
def test_group_json_matches_golden_files(capsys, argv):
    # the group commands' `--json` bytes: a change to how groups are closed
    # or tabled must leave them alone
    name = argv[0] + "-" + re.sub(r"[^A-Za-z0-9]+", "-", argv[2]).strip("-")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(), name


GOLDEN_COUNTS = {
    # name: (formula, prime), with the condition that clears the flag
    "count-cross-q2-p5": (CROSS, 5),  # none: a good prime
    "count-scaled-point-q1-p5": ("ambient 1; pp(5*x1 = 1)", 5),  # (a): no point mod 5
    # fractional formulas count as their rows cleared of denominators; both
    # files were written from the integer formulas 2*x1 = 1 and 5*x1 = 1
    "count-half-point-q1-p5": ("ambient 1; pp(x1 = 1/2)", 5),  # none
    "count-fifth-point-q1-p5": ("ambient 1; pp(x1 = 1/5)", 5),  # (a)
    "count-concurrent-lines-q2-p5": (  # (a): the three lines meet at 0 mod 5
        "ambient 2; pp(x1 = 0) | pp(x2 = 0) | pp(x1 + x2 = 5)", 5),
    "count-empty-meet-q2-p3": (  # (b): empty over Q, one point mod 3
        "ambient 2; pp(-x1 + 3*x2 = -1) & pp(-3*x1 + 2*x2 = -1 & -x1 + 2*x2 = -2)",
        3),
    "count-even-line-q2-p2": (  # (b): E y1 loses the odd x1 mod 2
        "ambient 2; pp(E y1 : x1 - 2*y1 = 0) & !pp(x2 = 1)", 2),
    "count-even-line-q2-p3": (
        "ambient 2; pp(E y1 : x1 - 2*y1 = 0) & !pp(x2 = 1)", 3),
    "count-two-points-q1-p3": (  # (b)
        "ambient 1; pp(x1 = 0) | pp(x1 = 3) | !pp(E y1 : x1 = 3*y1)", 3),
    "count-two-points-q1-p7": (
        "ambient 1; pp(x1 = 0) | pp(x1 = 3) | !pp(E y1 : x1 = 3*y1)", 7),
    "count-four-planes-q3-p7": (
        "ambient 3; !(pp(x1 = 0) | pp(x2 = 0) | pp(x3 = 0) | pp(x1 + x2 + x3 = 1))",
        7),
    "count-merging-planes-q3-p5": (  # (a): the planes t = 0 and t = 5 agree mod 5
        "ambient 3; !(pp(x1 = 0) | pp(x1 + x2 + x3 = 1) | pp(x1 + 2*x2 + 4*x3 = 8)"
        " | pp(x1 + 5*x2 + 25*x3 = 125))", 5),
}


@pytest.mark.parametrize("name", GOLDEN_COUNTS)
def test_count_json_matches_golden_files(capsys, name):
    # the count, the good-prime flag and the class value under `--json`: a
    # change to how points are counted or the flag certified must leave them
    formula, prime = GOLDEN_COUNTS[name]
    code, out, _ = run(capsys, "--json", "count", formula, "--prime", str(prime))
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(), name


GOLDEN_DIMS = {
    "dim-plane-arrangement-q3": "ambient 3; pp(x1 = 0) | pp(x2 = 0) | pp(x1 + x2 + x3 = 1)",
    "dim-projection-q2": "ambient 2; pp(E y1 : x1 = 2*y1 & x2 = y1 + 1)",
    "dim-empty-q2": "ambient 2; pp(x1 = 0) & pp(x1 = 1)",
    "dim-plane-and-line-q3": "ambient 3; pp(x3 = 0) | pp(x1 = 1 & x2 = 1)",
}


@pytest.mark.parametrize("name", GOLDEN_DIMS)
def test_dim_json_matches_golden_files(capsys, name):
    # `dim --json`, written before the dimension was read off the blocks
    code, out, _ = run(capsys, "--json", "dim", GOLDEN_DIMS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(), name


def test_dimension_queries_build_no_class(capsys, monkeypatch):
    # every class goes through `block_class`, and every support through
    # `PAMap.support`; count the calls of each
    from modelk import defsets
    from modelk.defsets import boolean_normalize, definable_dim, k0_class
    from modelk.formulas import elaborate, parse_formula

    calls = {"class": 0, "support": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(defsets, "block_class", counted("class", defsets.block_class))
    monkeypatch.setattr(PAMap, "support", counted("support", PAMap.support))
    formula = parse_formula(GOLDEN_DIMS["dim-plane-and-line-q3"])
    d = boolean_normalize(elaborate(formula), formula.ambient)
    k0_class(d)
    assert calls["class"] == 2  # the counter sees the class route
    calls["class"] = 0
    assert definable_dim(d) == 2 and doubling_with_patch().support_dim() == 1
    assert calls == {"class": 0, "support": 1}
    for argv, supports in [(["dim", GOLDEN_DIMS["dim-plane-arrangement-q3"]], 0),
                           (["aut", "dim"], 1), (["aut", "support"], 1),
                           (["aut", "decompose"], 2)]:
        if argv[0] == "aut":
            argv.append(str(GOLDEN / "maps" / "doubling-with-patch.json"))
        calls.update({"class": 0, "support": 0})
        assert run(capsys, *argv)[0] == 0
        assert calls == {"class": 0, "support": supports}, argv


GOLDEN_MAPS = ["doubling-with-patch", "random-q1-seed0", "random-q1-seed5",
               "random-q2-seed2", "random-q2-seed5", "random-q3-seed0",
               "random-q3-seed7"]


@pytest.mark.parametrize("action", ["validate", "support", "dim", "decompose"])
@pytest.mark.parametrize("name", GOLDEN_MAPS)
def test_aut_json_matches_golden_files(capsys, name, action):
    # tests/golden/maps/ holds `doubling_with_patch` and seeded
    # `suites.random_pamap` maps, and aut-<action>-<map>.json the `--json`
    # bytes of `aut <action>` on them: a change to how affine maps are stored
    # or applied must leave them alone
    path = GOLDEN / "maps" / f"{name}.json"
    code, out, _ = run(capsys, "--json", "aut", action, str(path))
    assert code == 0
    assert out == (GOLDEN / f"aut-{action}-{name}.json").read_text()


def test_omega_ab(capsys):
    code, out, _ = run(capsys, "omega-ab", "--ring", "fq:4", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("level 2:")
    assert lines[1].startswith("level 1:")
    assert lines[2] == "level 0: Z_2"
    assert lines[3].startswith("total:")
    code, out, _ = run(capsys, "--json", "omega-ab", "--ring", "z", "--n", "2")
    doc = json.loads(out)
    assert [lvl["level"] for lvl in doc["levels"]] == [2, 1, 0]
    assert {"atom": "UndeterminedZ2"} in doc["levels"][2]["atoms"]


def test_omega_ab_cofinal_odd(capsys):
    # an abstract unit-sum domain needs the theory flags spelled out
    code, out, _ = run(capsys, "omega-ab", "--ring", "ed:S", "--unit-sum",
                       "--cofinal-odd", "--n", "1")
    assert code == 0
    assert out.splitlines()[0].count("Z_2") == 1  # extra parity summand


# --- verification suites -----------------------------------------------------------

def test_cli_suite_names_are_the_suites():
    from modelk.suites import SUITE_NAMES as names

    assert SUITE_NAMES == names


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "perm")
    assert code == 0 and out.startswith("[ok]")


@pytest.mark.parametrize("cases", ["0", "-1", "x"])
def test_verify_refuses_a_case_count_below_one(capsys, cases):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "semiab", "--cases", cases])
    assert info.value.code == 2
    assert "--cases: need an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("cases", [0, -1])
def test_run_suite_refuses_a_case_count_below_one(cases):
    from modelk.errors import WorkbenchError
    from modelk.suites import run_suite

    with pytest.raises(WorkbenchError, match=f"need at least one case, not {cases}"):
        run_suite("semiab", cases=cases)


def test_verify_is_deterministic(capsys):
    code, first, _ = run(capsys, "--json", "--seed", "11", "verify",
                         "--suite", "lift")
    assert code == 0
    code, second, _ = run(capsys, "--json", "--seed", "11", "verify",
                          "--suite", "lift")
    assert first == second
    code, third, _ = run(capsys, "--json", "--seed", "12", "verify",
                         "--suite", "lift")
    assert code == 0 and json.loads(third)["passed"]


def test_verify_cap_errors_exit_1(capsys):
    code, _, err = run(capsys, "--cap", "3", "verify", "--suite", "gl")
    assert code == 1 and "error:" in err


def test_closure_cap_errors_name_the_group_and_the_flag(capsys):
    # Aff_2(F_7) has 98,784 elements, refused from its closed-form order
    code, _, err = run(capsys, "abelianize", "--group", "aff:2:7")
    assert code == 1
    assert err == ("error: Aff_2(F_7)^1 has order 98784, cap is 20000; pass a larger "
                   "cap= (--cap on the command line) to raise it\n")


def test_over_cap_linear_groups_say_how_to_raise_the_cap(capsys):
    code, out, err = run(capsys, "abelianize", "--group", "gl:3:5")
    assert code == 1 and out == ""
    assert err == ("error: GL_3(F_5) has order 1488000, cap is 20000; pass a larger "
                   "cap= (--cap on the command line) to raise it\n")


@pytest.mark.parametrize("spec, name, order", [
    ("sym:7", "Sym(7)", 5040), ("cyclic:50", "Z_50", 50),
    ("sl2:3", "SL_2(F_3)", 24), ("wreath:cyclic:2:3", "Z_2 wr Sym(3)", 48)])
def test_every_group_spec_honors_the_cap(capsys, spec, name, order):
    code, out, err = run(capsys, "--cap", "10", "abelianize", "--group", spec)
    assert code == 1 and out == ""
    assert err == (f"error: {name} has order {order}, cap is 10; pass a larger "
                   "cap= (--cap on the command line) to raise it\n")


def test_groups_closed_without_a_known_order_stop_at_the_cap(capsys):
    code, _, err = run(capsys, "--cap", "10", "abelianize", "--group", "dihedral:20")
    assert code == 1
    assert err == ("error: D_10: closure exceeded the element cap of 10; pass a "
                   "larger cap= (--cap on the command line) to raise it\n")


def test_a_cap_above_the_default_admits_a_larger_group(capsys):
    code, out, _ = run(capsys, "--cap", "100000", "--json", "abelianize",
                       "--group", "cyclic:50000")
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 50000 and doc["abelianization"] == [50000]


def test_suites_that_build_groups_honor_the_cap(capsys):
    code, _, err = run(capsys, "--cap", "10", "verify", "--suite", "perm")
    assert code == 1 and "Sym(4) has order 24, cap is 10" in err


@pytest.mark.parametrize("cap", ["0", "-5", "x"])
def test_a_cap_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as info:
        main(["--cap", cap, "abelianize", "--group", "klein"])
    assert info.value.code == 2
    assert "--cap: need an integer of at least 1" in capsys.readouterr().err


# --- group helpers ------------------------------------------------------------------

def test_abelianize_catalogue_and_extended_specs(capsys):
    code, out, _ = run(capsys, "--json", "abelianize", "--group", "sym:4")
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 24 and doc["abelianization"] == [2]
    code, out, _ = run(capsys, "--json", "abelianize", "--group", "gl:2:3")
    doc = json.loads(out)
    assert doc["order"] == 48 and doc["abelianization"] == [2]
    code, out, _ = run(capsys, "--json", "abelianize", "--group",
                       "wreath:cyclic:2:2")
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["abelianization"] == [2, 2]
    code, _, err = run(capsys, "abelianize", "--group", "mystery:7")
    assert code == 1 and "error:" in err


def test_abelianize_gl2_f16_takes_the_short_generators(capsys):
    # e_12(1), the signed 2-cycle and one primitive diagonal; the sixteen
    # generators of every e_ij(1) and every unit diagonal took about 3 s of
    # CPU here
    start = time.process_time()
    code, out, _ = run(capsys, "--cap", "100000", "--json", "abelianize",
                       "--group", "gl:2:16")
    assert time.process_time() - start < 2.0
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 61200 and doc["abelianization"] == [15]
    code, out, _ = run(capsys, "--json", "abelianize", "--group", "sl:2:27")
    doc = json.loads(out)
    assert code == 0 and doc["order"] == 19656 and doc["abelianization"] == []


def test_abelianize_rejects_malformed_matrix_group_integers(capsys):
    code, out, err = run(capsys, "abelianize", "--group", "gl:2:x")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'gl:2:x'" in err


def test_abelianize_rejects_malformed_catalogue_integers(capsys):
    code, out, err = run(capsys, "abelianize", "--group", "sym:x")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'sym:x'" in err


def test_dihedral_order_4_is_refused_and_points_to_klein(capsys):
    # the 2-gon's reflection i -> -i is the identity, so the closure of
    # D_2's generators reaches only 2 of its 4 elements
    code, out, err = run(capsys, "abelianize", "--group", "dihedral:4")
    assert code == 1 and out == ""
    assert err == ("error: dihedral groups here have even order >= 6, got 4; "
                   "for order 4 use klein, the same group\n")
    # the refusal holds with asserts stripped too
    optimized = _python("-O", "-m", "modelk", "abelianize", "--group", "dihedral:4")
    assert optimized.returncode == 1 and optimized.stdout == ""
    assert optimized.stderr == err


# --- usage errors --------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    for argv in ([], ["frobnicate"], ["count", CROSS],
                 ["aut", "rotate", "x.json"], ["k1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


def test_json_output_is_byte_stable(capsys):
    code, first, _ = run(capsys, "--json", "k0", CROSS)
    code2, second, _ = run(capsys, "--json", "k0", CROSS)
    assert (code, code2) == (0, 0) and first == second
    assert first.endswith("\n")


# --- the package and its entry point ------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("command", [["abelianize", "--group", "gl:2:16"],
                                     ["verify", "--suite", "semiab", "--cases", "3"]],
                         ids=" ".join)
def test_common_flags_go_before_or_after_the_subcommand(capsys, command):
    # GL_2(F_16) has 61,200 elements, so a --cap reset to its default fails
    flags = ["--cap", "100000", "--seed", "3", "--json"]
    before = run(capsys, *flags, *command)
    after = run(capsys, *command, *flags)
    split = run(capsys, *flags[:2], *command, *flags[2:])
    assert before[0] == 0 and before[1].startswith("{")
    assert before == after == split


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def test_bare_package_import_loads_no_layer():
    loaded = _python("-c", "import modelk, sys; "
                     "print(sorted(m for m in sys.modules if m.startswith('modelk.')))")
    assert loaded.returncode == 0 and loaded.stdout.strip() == "[]"
    names = _python("-c", "import modelk; "
                    "print(all(getattr(modelk, n) is not None for n in modelk.__all__))")
    assert names.stdout.strip() == "True"


def test_matrix_groups_load_no_construction_layer():
    loaded = _python("-c", "import modelk.matrix_groups, sys; "
                     "print(*(m for m in sys.modules if m.startswith('modelk.')))")
    assert loaded.returncode == 0
    modules = set(loaded.stdout.split())
    assert "modelk.matrix_groups" in modules
    assert not modules & {"modelk.constructions", "modelk.perms"}


def test_counting_loads_only_the_sets_layers():
    loaded = _python("-c", "import modelk.counting, sys; "
                     "print(*(m for m in sys.modules if m.startswith('modelk.')))")
    assert loaded.returncode == 0
    assert set(loaded.stdout.split()) == {
        "modelk.errors", "modelk.linalg", "modelk.cosets", "modelk.defsets",
        "modelk.counting"}


def test_public_names_come_from_their_layers():
    import modelk
    from modelk import AffineCoset as lazy

    assert lazy is AffineCoset
    assert "count_points_mod_p" in dir(modelk)
    with pytest.raises(AttributeError):
        modelk.no_such_name


def test_python_dash_m_runs_the_cli(capsys):
    done = _python("-m", "modelk", "--json", "k0", CROSS)
    assert done.returncode == 0
    assert main(["--json", "k0", CROSS]) == 0
    assert done.stdout == capsys.readouterr().out
    failed = _python("-m", "modelk", "k1", "--ring", "z", "--free-rank", "0")
    assert failed.returncode == 1 and failed.stderr.startswith("error:")
