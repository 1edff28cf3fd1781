"""Command-line contract: formats, determinism, exit codes."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from selfconcord import cli, concordance, recheck, tensor_from_json_obj, tensors
from selfconcord.cli import _instance_from_obj
from selfconcord.tensors import MAX_DIM, MAX_STARTS

K3_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
FOOTNOTE_DIMACS = "p edge 3 1\ne 1 2\n"
C5_DIMACS = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
SINGLE_EDGE_LIST = "2 1\n1 2\n"


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "selfconcord", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(K3_DIMACS)
    return str(path)


@pytest.fixture
def footnote_file(tmp_path):
    path = tmp_path / "footnote.col"
    path.write_text(FOOTNOTE_DIMACS)
    return str(path)


def test_omega_and_alpha(k3_file, footnote_file):
    proc = run_cli(["omega", k3_file])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"clique_number": 3, "witness": [1, 2, 3]}
    proc = run_cli(["alpha", footnote_file])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stability_number"] == 2


def test_stdin_edge_list():
    proc = run_cli(["omega", "-"], stdin=SINGLE_EDGE_LIST)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["clique_number"] == 2


def test_ms_check_passes(k3_file):
    proc = run_cli(["ms-check", k3_file])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert float(report["clique"]["gap"]) <= 1e-6
    assert float(report["clique"]["twice_max"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # The witness is the sphere point h of the quartic search; its square is the simplex point.
    assert sum(float(h) ** 2 for h in report["clique"]["report"]["witness"]) == pytest.approx(1.0, abs=1e-12)
    # The complement of K3 has no edge: its side is 0 = 1 - 1/1, with no search to report.
    assert report["stability"] == {"twice_max": "0", "target": "0", "gap": "0"}


def test_ms_check_rejects_edgeless():
    proc = run_cli(["ms-check", "-"], stdin="p edge 3 0\n")
    assert proc.returncode == 3
    assert "error" in proc.stderr


def test_nesterov_check(footnote_file):
    proc = run_cli(["nesterov-check", footnote_file])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    # clique side: omega = 2; stability side: alpha = 2 through the complement
    assert float(report["clique"]["scaled_square"]) == pytest.approx(0.5, abs=1e-9)
    assert float(report["stability"]["scaled_square"]) == pytest.approx(0.5, abs=1e-9)


def test_footnote_demo_values():
    proc = run_cli(["footnote-demo"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    err = report["erroneous_identity"]
    assert float(err["lhs"]) == pytest.approx(0.7071067811865476, abs=1e-12)
    assert float(err["rhs"]) == pytest.approx(1.0, abs=1e-6)
    assert float(err["mismatch"]) >= 0.29
    assert float(report["corrected_identity"]["gap"]) <= 1e-9


def test_reduce_then_check_sc_roundtrip(k3_file, tmp_path):
    proc = run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"])
    assert proc.returncode == 0
    instance = json.loads(proc.stdout)
    assert instance["q"] == "1/27"
    assert instance["gamma_cubed"] == "1/54"
    path = tmp_path / "inst.json"
    path.write_text(proc.stdout)

    proc = run_cli(["check-sc", str(path), "--mode", "oracle"])
    assert proc.returncode == 1
    verdict = json.loads(proc.stdout)
    assert verdict["status"] == "NOT_SELF_CONCORDANT"
    assert verdict["certificate"]["kind"] == "witness"


def test_instance_json_fields_must_agree_with_q(k3_file, tmp_path):
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]).stdout)
    path = tmp_path / "inst.json"

    def check(obj):
        path.write_text(json.dumps(obj))
        return run_cli(["check-sc", str(path), "--mode", "oracle"])

    assert check(instance).returncode == 1
    # only the kind's own parameter key is read: a cubic file's tau is ignored
    bare = {key: value for key, value in instance.items() if key not in ("sigma", "gamma_cubed")}
    assert _instance_from_obj({**bare, "tau": "7/3"}).sigma_or_tau is None
    assert _instance_from_obj(instance).sigma_or_tau == Fraction(1, 2)
    # a stated gamma power that contradicts q and sigma is an error naming the field
    unplaced = {key: value for key, value in instance.items() if key != "k"}  # no k to check
    proc = check({**unplaced, "q": "1/1000"})
    assert proc.returncode == 3
    assert "gamma_cubed" in proc.stderr and "Traceback" not in proc.stderr
    # so is a k that gives another threshold than q
    proc = check({**bare, "k": 4})
    assert proc.returncode == 3
    assert "'k'" in proc.stderr and "Traceback" not in proc.stderr


def test_instance_json_k_must_be_an_integer(k3_file, tmp_path, capsys):
    """A k of 3.7 or true is refused naming the field, not read as 3 or 1."""
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]).stdout)
    path = tmp_path / "inst.json"
    for k in (3.7, 3.0, True, "3"):
        path.write_text(json.dumps({**instance, "k": k}))
        assert cli.main(["check-sc", str(path), "--mode", "oracle"]) == 3
        assert f"field 'k' must be an integer, got {k!r}" in capsys.readouterr().err


# (command, path to the field in the K3 instance or, for sigma-opt, in its tensor, value, field named)
JSON_PROBES = [
    ("check-sc", ("q",), True, "field 'q'"),
    ("check-sc", ("q",), 0.5, "field 'q'"),
    ("check-sc", ("sigma",), True, "field 'sigma'"),
    ("check-sc", ("gamma_cubed",), 0.25, "field 'gamma_cubed'"),
    ("check-sc", ("tensor", "order"), True, "field 'tensor.order'"),
    ("check-sc", ("tensor", "dim"), 6.9, "field 'tensor.dim'"),
    ("check-sc", ("tensor", "entries", 0, 0, 1), True, "field 'tensor.entries[0]' index"),
    ("check-sc", ("tensor", "entries", 0, 0, 1), 1.5, "field 'tensor.entries[0]' index"),
    ("check-sc", ("tensor", "entries", 2, 1), 2.5, "field 'tensor.entries[2]' value"),
    ("sigma-opt", ("dim",), True, "field 'dim'"),
    ("sigma-opt", ("entries", 1, 0, 2), 5.0, "field 'entries[1]' index"),
    ("sigma-opt", ("entries", 1, 1), True, "field 'entries[1]' value"),
    # Shapes that used to end in a bare TypeError, ValueError or ZeroDivisionError.
    ("sigma-opt", ("entries",), 5, "field 'entries'"),
    ("sigma-opt", ("entries",), {"a": 1}, "field 'entries'"),
    ("sigma-opt", ("entries", 0, 0), 1, "field 'entries[0]'"),
    ("sigma-opt", ("entries", 0), [[1, 2, 3]], "field 'entries[0]'"),
    ("check-sc", ("tensor",), [1], "field 'tensor'"),
    ("check-sc", ("kind",), ["cubic"], "field 'kind'"),
    ("check-sc", ("q",), "1/0", "field 'q'"),
    ("check-sc", ("tensor", "entries", 0, 1), "1/0", "field 'tensor.entries[0]' value"),
    # Indices that used to be refused naming no field.
    ("check-sc", ("tensor", "entries", 0, 0), [1, 2], "field 'tensor.entries[0]' index"),
    ("sigma-opt", ("entries", 0, 0), [1, 2, 99], "field 'entries[0]' index"),
    # Invalid literals that used to be refused naming no field.
    ("check-sc", ("q",), "x", "field 'q'"),
    ("check-sc", ("sigma",), "x", "field 'sigma'"),
    ("check-sc", ("tensor", "entries", 2, 1), "abc", "field 'tensor.entries[2]' value"),
]


@pytest.mark.parametrize("command, path, value, field", JSON_PROBES)
def test_json_bool_or_float_exits_3_naming_the_field(k3_file, capsys, tmp_path, command, path, value, field):
    """A bool or a float where JSON holds an integer or a rational is refused
    naming the field, not read as 1, truncated, or left to fail unnamed; so
    is a malformed shape, an invalid literal or a zero denominator."""
    assert cli.main(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]) == 0
    instance = json.loads(capsys.readouterr().out)
    obj = instance if command == "check-sc" else instance["tensor"]
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(obj))
    assert cli.main([command, str(input_path)]) == 3
    err = capsys.readouterr().err
    expected = "must be an integer" if type(value) in (bool, float) else "must "
    assert err.startswith(f"selfconcord: error: ValueError: {field} {expected}") and err.count("\n") == 1, err


def test_missing_json_field_exits_3_naming_it(k3_file, capsys, tmp_path):
    """A required field that is absent is refused by its name, with the instance prefix for the tensor's."""
    assert cli.main(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]) == 0
    instance = json.loads(capsys.readouterr().out)
    cases = [("check-sc", {}, "kind")]
    cases += [("check-sc", {k: v for k, v in instance.items() if k != key}, key) for key in ("kind", "q", "tensor")]
    for key in ("order", "dim", "entries"):
        tensor = {k: v for k, v in instance["tensor"].items() if k != key}
        cases += [("check-sc", {**instance, "tensor": tensor}, f"tensor.{key}"), ("sigma-opt", tensor, key)]
    path = tmp_path / "input.json"
    for command, obj, field in cases:
        path.write_text(json.dumps(obj))
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err == f"selfconcord: error: ValueError: field '{field}' is missing\n"


# (command, input text, the line and field the refusal names)
TEXT_PROBES = [
    ("sigma-opt", "3 6\n1 2 99 1/6\n", "line 2: index must be an integer in 1..6, got a 2-digit integer"),
    ("sigma-opt", "3 6\n1 2 x 1/6\n", "line 2: index must be an integer, got 'x'"),
    ("sigma-opt", "3 6\n1 2 3 1/0\n", "line 2: value must be a rational p/q with q nonzero, got '1/0'"),
    ("sigma-opt", "3 6\n# a comment\n1 2 3 1/6\n1 2 3 abc\n",
     "line 4: value must be a rational p/q with q nonzero, got 'abc'"),
    ("sigma-opt", "3 6\n1 2 1/6\n", "line 2: malformed tensor record '1 2 1/6'"),
    ("omega", "p edge 3 1\ne 1 x\n", "line 2: edge vertex must be an integer, got 'x'"),
    ("omega", "p edge 3 1\ne 1 4\n", "line 2: edge vertex must be an integer in 1..3, got '4'"),
    ("omega", "3 1\n\n1 x\n", "line 3: edge vertex must be an integer, got 'x'"),
    # Header fields and over-long digit strings that used to be refused by int() naming no field.
    ("sigma-opt", "3 x\n1 2 3 1/6\n", "header dim must be an integer, got 'x'"),
    ("sigma-opt", "x 6\n1 2 3 1/6\n", "header order must be an integer, got 'x'"),
    ("omega", "3 y\n1 2\n", "header edge count must be an integer, got 'y'"),
    ("omega", "p edge x 1\ne 1 2\n", "header vertex count must be an integer, got 'x'"),
    ("omega", "p edge 3 x\ne 1 2\n", "header edge count must be an integer, got 'x'"),
    pytest.param("sigma-opt", f"3 6\n1 2 {'9' * 5000} 1/6\n",
                 "line 2: index must be an integer in 1..6, got a 5000-digit integer", id="sigma-opt-long-index"),
    pytest.param("omega", f"p edge 3 1\ne 1 {'9' * 5000}\n",
                 "line 2: edge vertex must be an integer in 1..3, got a 5000-digit integer", id="omega-long-vertex"),
    pytest.param("sigma-opt", f"3 {'9' * 5000}\n1 2 3 1/6\n",
                 f"header dim must be an integer in 1..{MAX_DIM}, got a 5000-digit integer", id="sigma-opt-long-dim"),
]


# (command, input text with DIGITS for 5,000 digits, the refusal): past int()'s limit of 4,300 digits.
LONG_PROBES = [
    ("sigma-opt", '{"order": 3, "dim": 6, "entries": [[[1, 2, DIGITS], "1/6"]]}',
     "field 'entries[0]' index must be an integer of at most 4300 digits, got a 5000-digit integer"),
    ("sigma-opt", '{"order": 3, "dim": 6, "entries": [[[1, 2, 3], DIGITS]]}',
     "field 'entries[0]' value must be a rational p/q of at most 4300 digits a side, got a 5000-digit side"),
    ("check-sc", '{"kind": "cubic", "q": "DIGITS/27", "tensor": {"order": 3, "dim": 6, "entries": []}}',
     "field 'q' must be a rational p/q of at most 4300 digits a side, got a 5000-digit side"),
    ("check-sc", '{"kind": "cubic", "q": "1/27", "k": DIGITS, "tensor": {"order": 3, "dim": 6, "entries": []}}',
     "field 'k' must be an integer of at most 4300 digits, got a 5000-digit integer"),
    ("sigma-opt", "3 6\n1 2 3 DIGITS\n",
     "line 2: value must be a rational p/q of at most 4300 digits a side, got a 5000-digit side"),
]


@pytest.mark.parametrize("command, text, message", LONG_PROBES)
def test_long_number_exits_3_naming_the_field_by_its_count(tmp_path, capsys, command, text, message):
    """A JSON integer or a rational side past int()'s digit limit is refused by its count,
    naming the field, in one short line that echoes none of its digits."""
    path = tmp_path / "input"
    path.write_text(text.replace("DIGITS", "1" * 5000))
    assert cli.main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"selfconcord: error: ValueError: {message}\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command, text, message", TEXT_PROBES)
def test_text_record_exits_3_naming_the_line(tmp_path, capsys, command, text, message):
    """A tensor or graph text record that does not convert is refused naming its line and field."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr().err == f"selfconcord: error: ValueError: {message}\n"


def test_huge_exponent_exits_3_naming_the_line_in_under_a_second(tmp_path, capsys):
    """An exponent is refused by its size before Fraction() builds 10**exponent,
    which took seconds and ended in an OverflowError naming no field."""
    path = tmp_path / "exponent.tensor"
    path.write_text("3 6\n1 2 3 1e3000000\n")
    started = time.monotonic()
    assert cli.main(["sigma-opt", str(path)]) == 3
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err == ("selfconcord: error: ValueError: line 2: value must be a rational with an "
                                       "exponent of at most 4300 in magnitude, got a 7-digit exponent\n")


# Thresholds that `read_rational` accepts: past the float range, or with a side past
# str()'s 4,300 digits; then the largest and smallest that still decide.
Q_PROBES = ["1e4300", "1e-4300", "9" * 4300, "1/" + "9" * 4300, "1e400", "1e309", "1e-309",
            "1e308", "1e-308"]


@pytest.mark.parametrize("q", Q_PROBES, ids=lambda q: q if len(q) < 12 else f"{len(q)}-chars")
def test_every_accepted_q_decides_or_exits_3_naming_it(k3_file, footnote_file, tmp_path, capsys, q):
    """Each threshold either decides in every mode, with a certificate that re-checks
    exactly, or exits 3 naming the threshold q; none ends in a bare OverflowError."""
    for graph in (k3_file, footnote_file):
        assert cli.main(["reduce", graph, "--k", "3", "--sigma", "1/2"]) == 0
        instance = json.loads(capsys.readouterr().out)
        for key in ("k", "sigma", "gamma_cubed"):
            del instance[key]
        instance["q"] = q
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        for mode in concordance.MODES:
            code = cli.main(["check-sc", str(path), "--mode", mode])
            out, err = capsys.readouterr()
            if code == 3:
                assert err.startswith("selfconcord: error: ValueError: threshold q must "), err
                continue
            assert code in (0, 1), err
            certificate = json.loads(out)["certificate"]
            assert recheck(tensor_from_json_obj(instance["tensor"]), Fraction(q), certificate) is True
    assert (code == 3) == (max(abs(Fraction(q).numerator), Fraction(q).denominator) > 10**308)


def test_negative_seed_exits_3_naming_it(k3_file, capsys):
    for args in (["check-sc", k3_file, "--k", "3", "--sigma", "1/2"], ["ms-check", k3_file], ["verify-all"]):
        assert cli.main([*args, "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "selfconcord: error: ValueError: seed must be >= 0\n"


def test_instance_json_negative_parameter_exit_3(k3_file, tmp_path):
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]).stdout)
    del instance["gamma_cubed"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**instance, "sigma": "-2"}))
    proc = run_cli(["check-sc", str(path), "--mode", "oracle"])
    assert proc.returncode == 3
    assert "sigma must be positive" in proc.stderr and "Traceback" not in proc.stderr


def test_instance_json_zero_parameter_exit_3(k3_file, tmp_path):
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]).stdout)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**instance, "sigma": "0"}))  # gamma_cubed stays stated
    proc = run_cli(["check-sc", str(path), "--mode", "oracle"])
    assert proc.returncode == 3
    assert "sigma must be positive" in proc.stderr and "ZeroDivisionError" not in proc.stderr


def test_numeric_witness_on_large_gadget_exit_1(tmp_path):
    # G(24, 138): the relax search's witness has 160 coordinates; on one
    # shared denominator its exact check stays short enough to print.
    pairs = list(combinations(range(1, 25), 2))
    edges = random.Random(3).sample(pairs, 138)
    graph = tmp_path / "g.col"
    graph.write_text("p edge 24 138\n" + "".join(f"e {i} {j}\n" for i, j in edges))
    instance = json.loads(run_cli(["reduce", str(graph), "--k", "3", "--sigma", "1/2"]).stdout)
    del instance["graph"], instance["k"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    proc = run_cli(["check-sc", str(path), "--mode", "relax"])
    assert proc.returncode == 1, proc.stderr
    certificate = json.loads(proc.stdout)["certificate"]
    assert len(certificate["rhs"]) < 1000
    assert recheck(tensor_from_json_obj(instance["tensor"]), Fraction(instance["q"]), certificate) is True


def test_reduce_quartic(k3_file):
    proc = run_cli(["reduce", k3_file, "--k", "3", "--kind", "quartic", "--tau", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == "1/4"


def test_check_sc_exit_codes(footnote_file, k3_file, tmp_path):
    # boundary instance: exactly at threshold, oracle says yes
    proc = run_cli(["check-sc", footnote_file, "--k", "3", "--sigma", "1/2", "--mode", "oracle"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "SELF_CONCORDANT"
    # a boundary instance no coloring with k - 1 colors settles (the 5-cycle:
    # omega 2, three colors, k = 3): its clique number settles it exactly, exit 0
    c5_file = tmp_path / "c5.col"
    c5_file.write_text(C5_DIMACS)
    for command, param, value, mode, bound in (("check-sc2", "--tau", "1", "relax", "1/4"),
                                               ("check-sc2", "--tau", "1", "grid", "1/4"),
                                               ("check-sc", "--sigma", "1/2", "grid", "1/27")):
        proc = run_cli([command, str(c5_file), "--k", "3", param, value, "--mode", mode])
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)
        assert verdict["status"] == "SELF_CONCORDANT"
        assert verdict["certificate"] == {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": bound}}
    # one entry off the gadget orbits leaves no support graph; the cubic
    # 5-cycle tensor has dim 10, where the grid ladder runs no rung: undecided, exit 2
    instance = json.loads(run_cli(["reduce", str(c5_file), "--k", "4", "--sigma", "1/2"]).stdout)
    del instance["graph"], instance["k"]
    instance["tensor"]["entries"].append([[1, 1, 1], "1/1000"])
    path = tmp_path / "off_orbit.json"
    path.write_text(json.dumps(instance))
    proc = run_cli(["check-sc", str(path), "--mode", "grid"])
    assert proc.returncode == 2, proc.stderr
    verdict = json.loads(proc.stdout)
    assert verdict["status"] == "UNDECIDED"
    assert "supports dim <= 5, got 10" in verdict["certificate"]["bound_name"]
    # missing parameters on a graph input: error, exit 3
    proc = run_cli(["check-sc", k3_file])
    assert proc.returncode == 3


def test_coloring_verdict_without_provenance(footnote_file, tmp_path):
    """The footnote boundary instance exits 0 with a coloring certificate in
    relax and grid mode, from the graph and from reduce JSON without graph and k."""
    for command, kind, param, mode in (("check-sc", "cubic", "--sigma", "relax"),
                                       ("check-sc2", "quartic", "--tau", "grid")):
        instance = json.loads(run_cli(["reduce", footnote_file, "--k", "3", "--kind", kind, param, "1/2"]).stdout)
        del instance["graph"], instance["k"]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(instance))
        from_graph = run_cli([command, footnote_file, "--k", "3", param, "1/2", "--mode", mode])
        bare = run_cli([command, str(path), "--mode", mode])
        assert from_graph.returncode == bare.returncode == 0, bare.stderr
        verdict, bare_verdict = json.loads(from_graph.stdout), json.loads(bare.stdout)
        assert bare_verdict["status"] == verdict["status"] == "SELF_CONCORDANT"
        assert bare_verdict["certificate"] == verdict["certificate"]
        assert verdict["certificate"]["kind"] == "coloring"
        assert recheck(tensor_from_json_obj(instance["tensor"]), Fraction(instance["q"]), verdict["certificate"]) is True


def test_check_sc2_on_graph_input(k3_file):
    proc = run_cli(["check-sc2", k3_file, "--k", "3", "--tau", "1", "--mode", "oracle"])
    assert proc.returncode == 1
    verdict = json.loads(proc.stdout)
    assert verdict["certificate"]["lhs"] == "3"
    assert verdict["certificate"]["rhs"] == "9/4"


def test_sigma_opt_tensor_text():
    tensor_text = "3 1\n1 1 1 1\n"
    proc = run_cli(["sigma-opt", "-"], stdin=tensor_text)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert float(report["lower"]) == 0.25
    assert float(report["upper"]) == 0.25


def test_deterministic_byte_identical_output(k3_file):
    a = run_cli(["nesterov-check", k3_file, "--seed", "5"])
    b = run_cli(["nesterov-check", k3_file, "--seed", "5"])
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_text_and_json_same_numbers(k3_file):
    js = json.loads(run_cli(["ms-check", k3_file]).stdout)
    txt = run_cli(["ms-check", k3_file, "--format", "text"]).stdout
    assert f"clique.twice_max: {js['clique']['twice_max']}" in txt
    assert f"stability.gap: {js['stability']['gap']}" in txt


def test_bad_arguments_exit_3():
    proc = run_cli(["reduce", "-", "--k", "3"], stdin=K3_DIMACS)
    assert proc.returncode == 3  # missing --sigma
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 3
    proc = run_cli(["check-sc", "-"], stdin='{"kind": "cubic"}')
    assert proc.returncode == 3  # instance object without a tensor
    assert "Traceback" not in proc.stderr
    proc = run_cli(["check-sc", "-", "--k", "3", "--sigma", "1/0"], stdin=K3_DIMACS)
    assert proc.returncode == 3  # zero denominator
    assert proc.stderr == "selfconcord: error: ValueError: sigma must be rational, got '1/0'\n", proc.stderr
    proc = run_cli(["check-sc", "-", "--k", "3", "--sigma", "1/2", "--starts", str(MAX_STARTS + 1)], stdin=K3_DIMACS)
    assert proc.returncode == 3  # a search allocates per start, so the count is capped
    assert proc.stderr == (f"selfconcord: error: ValueError: --starts must be an integer in 1..{MAX_STARTS}, "
                           f"got {MAX_STARTS + 1}\n"), proc.stderr


def test_flags_a_command_does_not_read_exit_3(k3_file):
    for args in (["omega", k3_file], ["alpha", k3_file], ["reduce", k3_file, "--k", "3", "--sigma", "1/2"]):
        proc = run_cli([*args, "--starts", "0"])
        assert proc.returncode == 3
        assert "unrecognized arguments: --starts 0" in proc.stderr
    proc = run_cli(["check-sc", k3_file, "--k", "3", "--sigma", "1/2", "--tol", "1e-13"])
    assert proc.returncode == 3
    assert "unrecognized arguments: --tol 1e-13" in proc.stderr
    proc = run_cli(["verify-all", "--max-iters", "5"])
    assert proc.returncode == 3
    assert "unrecognized arguments: --max-iters 5" in proc.stderr


def test_oversized_vertex_count_exit_3():
    for header in ("p edge 100000000 0\n", "100000000 0\n"):
        proc = run_cli(["omega", "-"], stdin=header)
        assert proc.returncode == 3
        assert "header vertex count must be an integer in 0..10000, got a 9-digit integer" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_identity_checks_count_the_complement_before_building_it(tmp_path, capsys):
    """One edge on 10,000 vertices: the complement has 49,994,999 edges, one
    gadget entry each, so both identity checks exit 3 naming the entry limit
    in under a second, before the complement is listed."""
    path = tmp_path / "sparse.col"
    path.write_text("p edge 10000 1\ne 1 2\n")
    for command in ("ms-check", "nesterov-check"):
        started = time.monotonic()
        assert cli.main([command, str(path)]) == 3
        assert time.monotonic() - started < 1.0
        assert capsys.readouterr().err == ("selfconcord: error: ValueError: the gadget of a complement with "
                                           "49994999 edges holds 49994999 entries, above the limit of 250000\n")


def test_alpha_counts_the_complement_before_building_it(tmp_path, capsys):
    """`alpha` searches the complement for a clique, so it refuses one edge on
    10,000 vertices, whose complement would list 49,994,999 edges, naming both
    counts and the limit in under a second, before the complement is listed."""
    path = tmp_path / "sparse.col"
    path.write_text("p edge 10000 1\ne 1 2\n")
    started = time.monotonic()
    assert cli.main(["alpha", str(path)]) == 3
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err == ("selfconcord: error: ValueError: the complement of a graph with 10000 vertices "
                                       "and 1 edges holds 49994999 edges, above the limit of 250000\n")


def test_instance_json_graph_is_not_read(k3_file, tmp_path, capsys):
    """An instance is decided from its tensor alone: a `graph` that declares
    20,000 vertices, past the graph-file limit, changes no verdict."""
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--kind", "quartic", "--tau", "1"]).stdout)
    path = tmp_path / "inst.json"
    for mode in ("oracle", "relax"):
        outputs = []
        for graph in (instance["graph"], {**instance["graph"], "n": 20_000}):
            path.write_text(json.dumps({**instance, "graph": graph}))
            assert cli.main(["check-sc2", str(path), "--mode", mode]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["cubic", "quartic"])
def test_reduce_json_without_graph_decides_as_the_graph(kind, tmp_path, capsys):
    """`reduce` JSON with `graph` and `k` removed gives byte-identical output
    to the graph input, in every mode: the checker reads the graph from the tensor."""
    command, param = ("check-sc", "--sigma") if kind == "cubic" else ("check-sc2", "--tau")
    for name, text in (("k3", K3_DIMACS), ("footnote", FOOTNOTE_DIMACS), ("c5", C5_DIMACS)):
        graph = tmp_path / f"{name}.col"
        graph.write_text(text)
        for k in ("3", "4"):
            assert cli.main(["reduce", str(graph), "--k", k, "--kind", kind, param, "1/2"]) == 0
            instance = json.loads(capsys.readouterr().out)
            del instance["graph"], instance["k"]
            bare = tmp_path / f"{name}-{k}.json"
            bare.write_text(json.dumps(instance))
            for mode in ("relax", "grid", "oracle"):
                code = cli.main([command, str(graph), "--k", k, param, "1/2", "--mode", mode])
                out = capsys.readouterr().out
                assert cli.main([command, str(bare), "--mode", mode]) == code
                assert capsys.readouterr().out == out, (name, k, mode)


def test_oracle_on_a_tensor_that_is_no_standard_gadget_exit_3(k3_file, tmp_path):
    """Oracle mode needs the gadget of the support graph: one entry of 1/7, or
    the triangle's cubic gadget with its coordinates relabeled, exits 3."""
    instance = json.loads(run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"]).stdout)
    entries = instance["tensor"]["entries"]
    relabeled = [[[1, 2, 3], "1/6"], [[1, 4, 5], "1/6"], [[2, 4, 6], "1/6"]]
    for changed in ([[entries[0][0], "1/7"], *entries[1:]], relabeled):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**instance, "tensor": {**instance["tensor"], "entries": changed}}))
        proc = run_cli(["check-sc", str(path), "--mode", "oracle"])
        assert proc.returncode == 3, proc.stdout
        assert "oracle mode needs a tensor that is the cubic gadget of its support graph" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_tensor_dim_above_the_cap_exit_3(tmp_path, monkeypatch, capsys):
    """A declared dim of MAX_DIM + 1 exits 3 naming the field and the limit,
    before any entry is read or any search draws a start of that length."""
    built = []
    monkeypatch.setattr(tensors, "sym_from_entries", lambda *args: built.append(args))
    monkeypatch.setattr(concordance, "max_form_sphere", lambda *args, **kwargs: built.append(args))
    tensor = {"order": 3, "dim": MAX_DIM + 1, "entries": [[[1, 2, 3], "1/6"]]}
    instance = {"kind": "cubic", "q": "1/27", "tensor": tensor}
    cases = (
        (["sigma-opt"], f"3 {MAX_DIM + 1}\n1 2 3 1/6\n",
         f"header dim must be an integer in 1..{MAX_DIM}, got '{MAX_DIM + 1}'"),
        (["sigma-opt"], json.dumps(tensor), f"field 'dim' must be an integer in 1..{MAX_DIM}, got {MAX_DIM + 1}"),
        (["check-sc", "--mode", "relax"], json.dumps(instance),
         f"field 'tensor.dim' must be an integer in 1..{MAX_DIM}, got {MAX_DIM + 1}"),
    )
    for command, text, expected in cases:
        path = tmp_path / "input"
        path.write_text(text)
        assert cli.main([*command, str(path)]) == 3
        message = capsys.readouterr().err
        assert message == f"selfconcord: error: ValueError: {expected}\n", message
    assert built == []


def test_closed_stdout_exits_3(tmp_path):
    # The report (~240 kB) outgrows the pipe buffer, so the writer is still
    # writing when the reader closes its end after one byte.
    n = 60
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    path = tmp_path / "k60.col"
    path.write_text(f"p edge {n} {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges))
    proc = subprocess.Popen(
        [sys.executable, "-m", "selfconcord", "reduce", str(path), "--k", "3", "--sigma", "1/2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in stderr


def test_verify_all_reduced_suite():
    proc = run_cli(["verify-all", "--max-n", "2", "--format", "text"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "9/9 criteria passed" in proc.stdout


def test_verify_all_max_n_outside_2_to_6_exits_3_before_any_criterion(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: pytest.fail("a criterion ran"))
    for max_n in ("1", "7"):
        assert cli.main(["verify-all", "--max-n", max_n]) == 3
        assert capsys.readouterr().err == f"selfconcord: error: ValueError: --max-n must be in 2..6, got {max_n}\n"


def test_verify_all_json_records(capsys):
    """Each record holds `CriterionResult`'s fields in order, `seconds` as a 17-significant-digit string."""
    assert cli.main(["verify-all", "--max-n", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["criteria", "passed"] and report["passed"] is True
    assert [r["number"] for r in report["criteria"]] == list(range(1, 10))
    for record in report["criteria"]:
        assert list(record) == ["number", "name", "passed", "details", "seconds"]
        assert record["passed"] is True
        assert record["seconds"] == format(float(record["seconds"]), ".17g")


def test_verify_all_tightened_tolerance_fails():
    proc = run_cli(["verify-all", "--max-n", "2", "--identity-tol", "1e-18", "--format", "text"])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_readme_transcript(k3_file, footnote_file):
    """The CLI tour in README.md: footnote-demo lines verbatim, check-sc and reduce fields."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ selfconcord footnote-demo --format text\n", 1)[1].split("```", 1)[0]
    shown = [line for line in block.splitlines() if line and line != "..."]
    assert len(shown) == 8
    proc = run_cli(["footnote-demo", "--format", "text"])
    assert proc.returncode == 0
    printed = proc.stdout.splitlines()
    for line in shown:
        assert line in printed

    proc = run_cli(["check-sc", k3_file, "--k", "3", "--sigma", "1/2", "--mode", "oracle"])
    assert proc.returncode == 1
    verdict = json.loads(proc.stdout)
    assert (verdict["status"], verdict["mode"]) == ("NOT_SELF_CONCORDANT", "oracle")
    assert verdict["certificate"]["kind"] == "witness"
    assert verdict["certificate"]["witness"][:3] == ["1", "1", "1"]

    proc = run_cli(["check-sc", footnote_file, "--k", "3", "--sigma", "1/2", "--mode", "oracle"])
    assert proc.returncode == 0
    verdict = json.loads(proc.stdout)
    assert verdict["status"] == "SELF_CONCORDANT"
    assert verdict["certificate"] == {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": "1/27"}}

    proc = run_cli(["reduce", k3_file, "--k", "3", "--sigma", "1/2"])
    assert proc.returncode == 0
    instance = json.loads(proc.stdout)
    assert list(instance) == ["kind", "graph", "k", "sigma", "gamma_cubed", "q", "tensor"]
    assert (instance["kind"], instance["k"], instance["sigma"]) == ("cubic", 3, "1/2")
    assert (instance["gamma_cubed"], instance["q"]) == ("1/54", "1/27")
