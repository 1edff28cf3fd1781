"""Seeded fuzz of the command line, in process through `cli.main`.

Mutated graph files, mutated instance and tensor JSON, and gadget-shaped
tensors with entries at and around +-1/6 go through the commands that read
them.  Every run must end in a documented exit code (0, 1, 2 or 3, and 3
with a one-line diagnostic, never a traceback), exit 1 must carry a witness
that `recheck` re-verifies, and exit 0 a certificate that `recheck`
re-verifies or a float bound, for which it returns None.  Vertex counts that
mutations write stay small (or jump past the limit), so the whole file runs
in a few seconds; oversized inputs have their own tests in test_cli.py.
"""

import json
from fractions import Fraction

import numpy as np

from selfconcord import build_instance, cli, parse_graph_text, recheck, tensor_from_json_obj, tensors
from selfconcord.graphs import MAX_VERTICES
from selfconcord.tensors import MAX_DIM

SEED = 2025
SEARCH = ["--starts", "2", "--max-iters", "40"]
GRAPH_TEXTS = (
    "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 3\n",
    "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n",
    "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "3 1\n1 2\n",
)
# Values a mutation writes in place of a token or a JSON field.
ODD_TOKENS = ("0", "-1", "2", "7", "x", "1/0", "0/0", "nan", "1e3", "", str(MAX_VERTICES + 1), str(MAX_DIM + 1))
ODD_VALUES = (float("nan"), "1/0", "0/0", 0, -1, 7, "x", None, [], MAX_DIM + 1, 10**30, True, 2.5,
              {"a": 1}, [1], [[1, 2, 3]], [[1, 2, 3], "1/6", 0], ["cubic"])
SIXTH, TINY = Fraction(1, 6), Fraction(1, 10**30)
NEAR_SIXTH = (SIXTH, -SIXTH, SIXTH - TINY, SIXTH + TINY, -(SIXTH + TINY), Fraction(1, 7))


def run(capsys, tmp_path, args, text):
    path = tmp_path / "input"
    path.write_text(text)
    code = cli.main([*args, str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (args, text, code)
    if code == 3:
        assert err.startswith("selfconcord: error:") and "Traceback" not in err, err
        # A field of the wrong shape or value is refused naming it, not left to a bare TypeError.
        assert err.split(": ")[2] in ("ValueError", "KeyError", "JSONDecodeError"), err
    return code, out


def assert_rechecked(code: int, out: str, A, q):
    """A decided verdict's certificate, re-checked from the instance (A, q) alone:
    exit 1 re-verifies exactly, exit 0 re-verifies or is a float bound (None)."""
    if code in (0, 1):
        checked = recheck(A, q, json.loads(out)["certificate"])
        assert checked is True or (code == 0 and checked is None), out


def mutate_text(rng, text: str) -> str:
    lines = text.splitlines()
    choice = rng.integers(5)
    if choice == 0:
        return text[: rng.integers(len(text) + 1)]
    row = int(rng.integers(len(lines)))
    if choice == 1:
        del lines[row]
    elif choice == 2:
        lines.insert(row, lines[row])
    elif choice == 3:
        lines[row], lines[-1] = lines[-1], lines[row]
    else:
        tokens = lines[row].split() or [""]
        tokens[rng.integers(len(tokens))] = ODD_TOKENS[rng.integers(len(ODD_TOKENS))]
        lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def mutate_json(rng, obj: dict) -> str:
    """obj with one field of it (or of its tensor) deleted, added or overwritten, or its text truncated."""
    obj = json.loads(json.dumps(obj))
    target = obj["tensor"] if "tensor" in obj and rng.integers(2) else obj
    keys = sorted(target)
    choice = rng.integers(5)
    if choice == 0:
        text = json.dumps(obj)
        return text[: rng.integers(len(text))]
    if choice == 1:
        del target[keys[rng.integers(len(keys))]]
    elif choice == 2:
        target["extra"] = ODD_VALUES[rng.integers(len(ODD_VALUES))]
    elif choice == 3:
        target[keys[rng.integers(len(keys))]] = ODD_VALUES[rng.integers(len(ODD_VALUES))]
    else:
        entries = obj.get("tensor", obj).get("entries") or [[[1], "0"]]
        entry = entries[rng.integers(len(entries))]
        slot = rng.integers(2)
        entry[slot] = ODD_VALUES[rng.integers(len(ODD_VALUES))] if slot else [0] * len(entry[0])
    return json.dumps(obj)


def reduced(capsys, tmp_path, text: str, kind: str, k: int) -> dict:
    param = ["--sigma", "1/2"] if kind == "cubic" else ["--tau", "1"]
    code, out = run(capsys, tmp_path, ["reduce", "--k", str(k), "--kind", kind, *param], text)
    assert code == 0
    return json.loads(out)


def test_mutated_graph_files(capsys, tmp_path):
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        text = mutate_text(rng, GRAPH_TEXTS[rng.integers(len(GRAPH_TEXTS))])
        code, _ = run(capsys, tmp_path, ["omega"], text)
        assert code in (0, 3)
        for command, kind, param, mode in (("check-sc", "cubic", ["--sigma", "1/2"], "relax"),
                                           ("check-sc2", "quartic", ["--tau", "1"], "grid")):
            code, out = run(capsys, tmp_path, [command, "--k", "3", *param, "--mode", mode, *SEARCH], text)
            if code in (0, 1):
                inst = build_instance(parse_graph_text(text), kind, 3, param[1])
                assert_rechecked(code, out, inst.A, inst.q)


def test_mutated_instance_and_tensor_json(capsys, tmp_path):
    rng = np.random.default_rng(SEED + 1)
    instances = [reduced(capsys, tmp_path, text, kind, k)
                 for text in GRAPH_TEXTS for kind in ("cubic", "quartic") for k in (3, 4)]
    for _ in range(80):
        instance = instances[rng.integers(len(instances))]
        command = "check-sc" if instance["kind"] == "cubic" else "check-sc2"
        mode = ("relax", "grid", "oracle")[rng.integers(3)]
        text = mutate_json(rng, instance)
        code, out = run(capsys, tmp_path, [command, "--mode", mode, *SEARCH], text)
        if code in (0, 1):
            obj = json.loads(text)
            assert_rechecked(code, out, tensor_from_json_obj(obj["tensor"]), Fraction(obj["q"]))
        tensor_text = mutate_json(rng, instances[rng.integers(len(instances))]["tensor"])
        code, _ = run(capsys, tmp_path, ["sigma-opt", *SEARCH], tensor_text)
        assert code in (0, 3)


def test_gadget_shaped_tensors_around_one_sixth(capsys, tmp_path):
    rng = np.random.default_rng(SEED + 2)
    instances = [reduced(capsys, tmp_path, text, kind, 3) for text in GRAPH_TEXTS for kind in ("cubic", "quartic")]
    for _ in range(30):
        reduced_instance = instances[rng.integers(len(instances))]
        tensor = reduced_instance["tensor"]
        q = Fraction(reduced_instance["q"]) * (1 if rng.integers(2) else Fraction(3, 2))
        entries = [[key, str(NEAR_SIXTH[rng.integers(len(NEAR_SIXTH))])] for key, _ in tensor["entries"]]
        instance = {"kind": reduced_instance["kind"], "q": str(q), "tensor": {**tensor, "entries": entries}}
        command = "check-sc" if instance["kind"] == "cubic" else "check-sc2"
        code, out = run(capsys, tmp_path, [command, "--mode", "relax", *SEARCH], json.dumps(instance))
        assert code in (0, 1, 2)
        assert_rechecked(code, out, tensor_from_json_obj(instance["tensor"]), Fraction(instance["q"]))


def test_entry_lists_over_the_cap_exit_3(capsys, tmp_path, monkeypatch):
    """Tensor text, tensor JSON and an instance's tensor with more entries than
    `MAX_ENTRIES` exit 3 naming the limit, before any entry is converted: the
    last record, which no conversion would accept, is never read."""
    monkeypatch.setattr(tensors, "MAX_ENTRIES", 2)
    records = [[[1, 2, 3], "1/6"], [[1, 2, 4], "1/6"], [[1, 2, 5], "x"]]
    tensor = {"order": 3, "dim": 5, "entries": records}
    text = "3 5\n" + "".join(f"{' '.join(map(str, key))} {value}\n" for key, value in records)
    instance = {"kind": "cubic", "q": "1/27", "tensor": tensor}
    cases = (
        (["sigma-opt"], text, "tensor text"),
        (["sigma-opt"], json.dumps(tensor), "field 'entries'"),
        (["check-sc", "--mode", "relax"], json.dumps(instance), "field 'tensor.entries'"),
    )
    for command, text, source in cases:
        path = tmp_path / "input"
        path.write_text(text)
        assert cli.main([*command, *SEARCH, str(path)]) == 3
        message = capsys.readouterr().err
        assert message == f"selfconcord: error: ValueError: {source} holds 3 entries, above the limit of 2\n", message



def refused(capsys, tmp_path, args, text) -> str:
    """The one-line diagnostic of a run that exits 3."""
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.main([*args, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    return err


def test_huge_tensor_values_exit_3_naming_the_entry(capsys, tmp_path):
    """A value past 10^100 would overflow the float kernels' squares, so tensor
    text and an instance's tensor with one exit 3 naming its index; a value at
    the bound decides."""
    footnote = reduced(capsys, tmp_path, GRAPH_TEXTS[3], "cubic", 3)
    for value in ("1e400", "-1e400", "1e200", "1e100", "-1e100"):
        instance = json.loads(json.dumps(footnote))
        instance["tensor"]["entries"].append([[1, 1, 1], value])
        cases = ((["sigma-opt"], f"3 6\n1 2 3 {value}\n", "(1, 2, 3)"),
                 (["check-sc", "--mode", "relax"], json.dumps(instance), "(1, 1, 1)"),
                 (["check-sc", "--mode", "grid"], json.dumps(instance), "(1, 1, 1)"))
        for command, text, index in cases:
            if value.endswith("e100"):
                code, out = run(capsys, tmp_path, [*command, *SEARCH], text)
                assert code in (0, 1), (command, value)
                if command[0] == "check-sc":
                    assert_rechecked(code, out, tensor_from_json_obj(instance["tensor"]), Fraction(instance["q"]))
            else:
                message = refused(capsys, tmp_path, [*command, *SEARCH], text)
                assert message == f"selfconcord: error: ValueError: entry {index} has |value| above 10^100\n", message


def test_starts_past_the_starts_times_entries_cap_exit_3(capsys, tmp_path):
    """--starts 10000 on a 455-entry tensor exits 3 naming the starts and the
    entries, before any start is drawn."""
    keys = [(i, j, w) for i in range(1, 16) for j in range(i + 1, 16) for w in range(j + 1, 16)]
    text = "3 15\n" + "".join(f"{i} {j} {w} 1/7\n" for i, j, w in keys)
    instance = {"kind": "cubic", "q": "1", "tensor": {"order": 3, "dim": 15, "entries": [[k, "1/7"] for k in keys]}}
    for command, text in ((["sigma-opt"], text), (["check-sc", "--mode", "relax"], json.dumps(instance))):
        message = refused(capsys, tmp_path, [*command, "--starts", "10000"], text)
        assert message == ("selfconcord: error: ValueError: starts x entries must be at most 4000000, "
                           "got 10000 starts on 455 entries\n"), message
