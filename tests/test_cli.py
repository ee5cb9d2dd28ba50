"""Exit codes and output of every CLI subcommand, human and JSON forms."""

import dataclasses
import hashlib
import io
import json
import random
import time

import pytest

from coble.cli import main
from coble.fibers import FIBER_NAMES, kodaira_fiber

I2_CONFIG = {
    "nodes": [{"id": "A", "self": -2}, {"id": "B", "self": -2}],
    "edges": [{"a": "A", "b": "B", "count": 2}],
}

CASE9_INPUT = {
    "y_min": "P2",
    "k": 1,
    "m": 4,
    "components": [
        {"role": "M1", "g": 1, "class": [2]},
        {"role": "G", "g": 4, "class": [1]},
    ],
}


# past the interpreter's recursion limit, where the decoder raises RecursionError
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run(capsys, ["reduce", "(6;3,3,2,2,2,2)"])
    assert code == 0
    assert out.splitlines() == ["(6;3,3,2,2,2,2)", "(4;2,2,2)", "(2)", "final: conic"]
    code, out, _ = run(capsys, ["reduce", "(6;3,3,2,2,2,2)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["final"] == {"d": 2, "mults": [1, 1]}
    assert data["final_display"] == "(2)"
    assert data["describe"] == "conic"
    assert [s["op"] for s in data["steps"]] == ["quadratic", "quadratic"]
    code, out, _ = run(capsys, ["reduce", "(5;2,2,2,2,2,2)", "--no-quintic"])
    assert code == 0 and "final: conic" in out


def test_reduce_errors(capsys):
    code, _, err = run(capsys, ["reduce", "(4;2,x)"])
    assert code == 2 and "error:" in err
    # rational but stuck: the greedy step goes inadmissible
    code, _, err = run(capsys, ["reduce", "(7;3,3,3,3,3)"])
    assert code == 1 and "reduction failed" in err
    # non-rational vectors need --force
    code, _, err = run(capsys, ["reduce", "(4;2,2)"])
    assert code == 2 and "genus proxy" in err
    code, out, _ = run(capsys, ["reduce", "(4;2,2)", "--force"])
    assert code == 0


def test_genus(capsys):
    code, out, _ = run(capsys, ["genus", "(6;2,2,2,2,2,2,2,2,2,2)"])
    assert code == 0 and out.strip() == "p_a = 0"
    code, out, _ = run(capsys, ["genus", "(5;2)", "--json"])
    data = json.loads(out)
    assert code == 0 and data["p_a"] == 5 and data["class"] == [5, -2]
    code, _, err = run(capsys, ["genus", "five"])
    assert code == 2 and "error:" in err


def test_classify_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "case9.json"
    path.write_text(json.dumps(CASE9_INPUT))
    code, out, _ = run(capsys, ["classify", "--input", str(path)])
    assert code == 0 and "matched cases: 9" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CASE9_INPUT)))
    code, out, _ = run(capsys, ["classify", "--input", "-", "--json"])
    data = json.loads(out)
    assert code == 0 and data["matched_cases"] == [9]
    assert all(
        {"case", "name", "actual", "required", "passed"} == set(c)
        for c in data["constraints"]
    )
    assert data["assumed"]["9"]


def test_classify_no_match_and_errors(capsys, tmp_path):
    broken = dict(CASE9_INPUT, components=[
        {"role": "M1", "g": 1, "class": [2]},
        {"role": "G", "g": 5, "class": [1]},
    ])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, ["classify", "--input", str(path)])
    assert code == 1 and "no case matched" in out and "FAIL" in out
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(capsys, ["classify", "--input", str(bad)])
    assert code == 2 and "cannot read classification input" in err
    code, _, err = run(capsys, ["classify", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def _case9(**changes):
    data = json.loads(json.dumps(CASE9_INPUT))
    for key, value in changes.items():
        if key in ("g", "class"):
            data["components"][0][key] = value
        else:
            data[key] = value
    return json.dumps(data)


@pytest.mark.parametrize("text, field", [
    (_case9(g=1.9), "components[0].g must be a JSON integer, got 1.9"),
    (_case9(**{"class": [1.7]}), "components[0].class[0] must be a JSON integer, got 1.7"),
    (_case9(k=True), "k must be a JSON integer, got true"),
    (_case9(m="4"), 'm must be a JSON integer, got "4"'),
    (_case9(**{"class": [1, "1"]}), "components[0].class[1] must be a JSON integer"),
    (_case9(**{"class": [2, 0]}), "components[0].class needs 1 coefficients"),
    (_case9(marked_point={"on": [0.0]}), "marked_point.on[0] must be a JSON integer"),
    (_case9(marked_point=[0]), "marked_point must be a JSON object"),
    (_case9(components=5), "components must be a JSON array"),
    (_case9(components=[5]), "components[0] must be a JSON object"),
    (_case9(y_min={"Fb": 2.5}), "unknown base {'Fb': 2.5}"),
    (_case9(y_min="P3"), "unknown base 'P3'"),
    ("[]", "classification input must be a JSON object"),
    ('{"y_min": "P2"}', "missing field components"),
    (DEEP_JSON, "nested too deeply"),
], ids=["float-g", "float-class", "bool-k", "string-m", "string-class", "class-length", "float-marked-point",
        "marked-point-list", "number-components", "number-component", "float-Fb", "P3", "list", "no-components",
        "deep"])
def test_classify_refuses_malformed_input(capsys, tmp_path, text, field):
    # exact arithmetic: a number that is not a JSON integer is refused, not truncated
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read classification input: ") and field in err


@pytest.mark.parametrize("argv, value", [
    (["genus", "(3037000500)"], 3037000500**2),
    (["genus", "(4294967296;1)"], 2**64 - 1),
    (["classify", "--input", _case9(**{"class": [99999999999999999999]})], 99999999999999999999),
    (["classify", "--input", _case9(**{"class": [3037000500]})], 3037000500**2),
], ids=["genus-degree", "genus-pairing", "classify-coefficient", "classify-pairing"])
def test_int64_overflow_is_a_usage_error(capsys, tmp_path, argv, value):
    if argv[0] == "classify":
        path = tmp_path / "big.json"
        path.write_text(argv[-1])
        argv = argv[:-1] + [str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"value {value} leaves the signed 64-bit range" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, ["enumerate", "--points", "3", "--cap", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 6" and "e0-e1-e2" in lines
    code, out, _ = run(
        capsys,
        ["enumerate", "--points", "3", "--cap", "5", "--json"],
    )
    data = json.loads(out)
    assert code == 0 and data["count"] == 6 and [0, 1, 0, 0] in data["classes"]
    code, out, _ = run(
        capsys,
        ["enumerate", "--base", "F2", "--points", "0", "-n", "2", "--cap", "4", "--json"],
    )
    data = json.loads(out)
    assert code == 0 and data["classes"] == [[0, 1]]


def test_enumerate_base_spellings(capsys):
    # --base goes through the one base parser: P1xP1 and F0 name the same surface
    outputs = [
        run(capsys, ["enumerate", "--base", base, "--points", "2", "--cap", "2", "--json"])
        for base in ("P1xP1", "F0")
    ]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert json.loads(outputs[0][1])["base"] == "F0"


def test_enumerate_errors(capsys):
    code, _, err = run(capsys, ["enumerate", "--points", "20"])
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, ["enumerate", "--base", "X3"])
    assert code == 2 and "unknown base" in err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--shape", "everything"])
    assert exc.value.code == 2


def test_verify_example(capsys):
    code, out, _ = run(capsys, ["verify-example", "triangle-pencil"])
    assert code == 0 and out.rstrip().endswith("result: pass")
    code, out, _ = run(
        capsys,
        [
            "verify-example", "scroll-fiber-tower",
            "--param", "n=4", "--param", "t=1", "--param", "b=11", "--json",
        ],
    )
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    assert data["parameters"] == {"n": 4, "t": 1, "b": 11}


def test_verify_example_errors(capsys):
    code, _, err = run(capsys, ["verify-example", "nonesuch"])
    assert code == 2 and "available:" in err
    code, _, err = run(capsys, ["verify-example", "triangle-pencil", "--param", "n=3"])
    assert code == 2 and "takes no parameters" in err
    code, _, err = run(
        capsys, ["verify-example", "scroll-fiber-tower", "--param", "n=big"]
    )
    assert code == 2 and "must be an integer" in err
    code, _, err = run(
        capsys, ["verify-example", "scroll-fiber-tower", "--param", "n4"]
    )
    assert code == 2 and "NAME=INTEGER" in err


def test_verify_example_claim_key_error_is_not_an_unknown_name(capsys, monkeypatch):
    # a KeyError raised while a claim is checked is the claim's fault, not
    # a missing catalog entry
    from coble import constructions

    build = constructions.BUILDERS["triangle-pencil"]

    def broken():
        bundle = build()
        claim = {**bundle.claims[0], "check": "no-such-check"}
        return dataclasses.replace(bundle, claims=(claim,) + bundle.claims[1:])

    monkeypatch.setitem(constructions.BUILDERS, "triangle-pencil", broken)
    code, out, err = run(capsys, ["verify-example", "triangle-pencil"])
    assert (code, out, err) == (2, "", "error: unknown check 'no-such-check'\n")


def test_verify_example_unknown_parameter(capsys):
    code, out, err = run(
        capsys, ["verify-example", "scroll-fiber-tower", "--param", "x=3"]
    )
    assert code == 2 and out == ""
    assert err == (
        "error: catalog entry 'scroll-fiber-tower' takes no parameters named x "
        "(accepted: n, t, b)\n"
    )


def test_check_config(capsys, tmp_path, monkeypatch):
    path = tmp_path / "i2.json"
    path.write_text(json.dumps(I2_CONFIG))
    code, out, _ = run(capsys, ["check-config", "--input", str(path)])
    assert code == 0
    assert "fiber type: I2" in out and "p_a: 1" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(I2_CONFIG)))
    code, out, _ = run(capsys, ["check-config", "--input", "-", "--json"])
    data = json.loads(out)
    assert code == 0
    assert data["fiber_type"] == "I2" and data["p_a"] == 1
    assert data["k3_type"] is True and data["terminal"] is False
    assert data["snc"] is True and data["snc_violations"] == []


def test_check_config_errors(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"nodes": [{"id": "A", "self": -1}],
                                "edges": [{"a": "A", "b": "B"}]}))
    code, _, err = run(capsys, ["check-config", "--input", str(path)])
    assert code == 1 and "invalid configuration" in err
    code, _, err = run(capsys, ["check-config", "--input", str(tmp_path / "gone.json")])
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("text, field", [
    ("[]", "JSON object"),
    ("null", "JSON object"),
    ('{"nodes": 5}', "'nodes'"),
    ('{"nodes": [{"id": "A", "self": null}]}', "'self'"),
    ('{"nodes": [{"id": "A", "self": -1}], "triples": [5]}', "'triples'"),
    ('{"nodes": []}', "'nodes'"),
    pytest.param(json.dumps({**kodaira_fiber("IV").to_json(), "triples": [["A", "B", "C", "A"]]}),
                 "must name three distinct nodes", id="four-entry-triple"),
    pytest.param(DEEP_JSON, "nested too deeply", id="deep"),
])
def test_check_config_malformed_input(capsys, tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["check-config", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("invalid configuration: ") and field in err


@pytest.mark.parametrize("node, edge, field", [
    ({"self": -1.5}, {}, "'self'"),
    ({"self": -1.0}, {}, "'self'"),
    ({"self": "-1"}, {}, "'self'"),
    ({"self": -1, "mult": True}, {}, "'mult'"),
    ({"self": -1, "genus": 0.5}, {}, "'genus'"),
    ({"self": -1}, {"count": 2.0}, "'count'"),
    ({"self": -1}, {"tangency": False}, "'tangency'"),
])
def test_check_config_refuses_non_integers(capsys, tmp_path, node, edge, field):
    # exact arithmetic: a number that is not a JSON integer is refused, not truncated
    data = {"nodes": [{"id": "A", **node}, {"id": "B", "self": -1}],
            "edges": [{"a": "A", "b": "B", **edge}]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["check-config", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("invalid configuration: ") and field in err and "integer" in err


def _cycle(n, mult):
    return {"nodes": [{"id": f"C{i}", "self": -2, "mult": mult} for i in range(n)],
            "edges": [{"a": f"C{i}", "b": f"C{(i + 1) % n}"} for i in range(n)]}


def _chain(n, mult):
    return {"nodes": [{"id": f"C{i}", "self": -2, "mult": mult} for i in range(n)],
            "edges": [{"a": f"C{i}", "b": f"C{i + 1}"} for i in range(n - 1)]}


def _istar(b):
    # the I_b* shape: a chain of b + 1 doubled curves with two leaves at each end
    data = _chain(b + 1, 2)
    data["nodes"] += [{"id": f"L{i}", "self": -2} for i in range(4)]
    data["edges"] += [{"a": f"L{i}", "b": "C0" if i < 2 else f"C{b}"} for i in range(4)]
    return data


@pytest.mark.parametrize("data, p_a", [
    (_cycle(25, 2), "undetermined"),  # 2 I25: the halves pair to 0
    (_istar(20), "1"),                # I20*-shaped, 25 components
    (_chain(20, 2), "undetermined"),  # 3^20 decompositions, past the budget
])
def test_check_config_past_the_scan_limits(capsys, tmp_path, data, p_a):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, ["check-config", "--input", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert f"p_a: {p_a}" in out


def _relabelled(rng, data):
    """A model's JSON with its nodes renamed and both lists shuffled, and
    each edge's ends swapped at random."""
    nodes = [dict(n) for n in data["nodes"]]
    rng.shuffle(nodes)
    rename = {n["id"]: f"x{k}" for n, k in zip(nodes, rng.sample(range(100, 1000), len(nodes)))}
    for n in nodes:
        n["id"] = rename[n["id"]]
    edges = [{**e, "a": rename[e["b"]], "b": rename[e["a"]]} if rng.random() < 0.5
             else {**e, "a": rename[e["a"]], "b": rename[e["b"]]} for e in data["edges"]]
    rng.shuffle(edges)
    out = {"nodes": nodes, "edges": edges}
    if "triples" in data:
        out["triples"] = [rng.sample([rename[x] for x in t], 3) for t in data["triples"]]
    return out


def _edited(rng, data, edit):
    """``data`` with one edit: an edge dropped, a self-intersection moved by
    one, or a multiplicity, count or tangency raised by one."""
    data = {**data, "nodes": [dict(n) for n in data["nodes"]], "edges": list(data["edges"])}
    if edit in ("self", "mult"):
        data["nodes"][rng.randrange(len(data["nodes"]))][edit] += 1 if edit == "mult" else rng.choice((-1, 1))
    else:
        k = rng.randrange(len(data["edges"]))
        if edit == "drop":
            data["edges"].pop(k)
        else:
            data["edges"][k] = {**data["edges"][k], edit: data["edges"][k][edit] + 1}
    return data


def kodaira_check_config_inputs(seed=27):
    """Each of the 28 Kodaira models in two seeded relabellings, then each
    one-edit variant of the first (edge edits only where there are edges)."""
    rng, inputs = random.Random(seed), []
    for name in FIBER_NAMES:
        model = kodaira_fiber(name).to_json()
        first = _relabelled(rng, model)
        inputs += [first, _relabelled(rng, model)]
        edits = ("drop", "self", "mult", "count", "tangency") if model["edges"] else ("self", "mult")
        inputs += [_edited(rng, first, edit) for edit in edits]
    return inputs


# exit code and stdout of `coble check-config --json` on every input of
# kodaira_check_config_inputs(), in order, hashed together
KODAIRA_CHECK_CONFIG_SHA256 = "8907f588549e6e7744ffd1932468e62e79dd7b1e4ae96e67ff1aa65f89b4249a"


def test_check_config_json_is_pinned_on_kodaira_models_and_edits(capsys, tmp_path):
    path, digest = tmp_path / "cfg.json", hashlib.sha256()
    for data in kodaira_check_config_inputs():
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check-config", "--input", str(path), "--json"])
        assert err == ""
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == KODAIRA_CHECK_CONFIG_SHA256


def test_check_config_reads_a_split_edge_as_one_pair(capsys, tmp_path):
    # I2 with its two meeting points written as two count-1 edge records:
    # the same adjacency as one count-2 record, so the same report but for
    # the number of edge records
    rng, path = random.Random(27), tmp_path / "cfg.json"
    for _ in range(2):
        whole = _relabelled(rng, kodaira_fiber("I2").to_json())
        (edge,) = whole["edges"]
        split = {**whole, "edges": [{**edge, "count": 1}, {**edge, "count": 1}]}
        reports = []
        for data in (whole, split):
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, ["check-config", "--input", str(path), "--json"])
            assert code == 0 and err == ""
            reports.append(json.loads(out))
        assert reports[0]["fiber_type"] == "I2"
        assert reports[1] == {**reports[0], "edges": 2}


def test_catalog(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    for name in ("triangle-pencil", "scroll-fiber-tower", "quintic-plus-line"):
        assert name in out
    code, out, _ = run(capsys, ["catalog", "--json"])
    data = json.loads(out)
    assert code == 0 and len(data) == 7


@pytest.mark.parametrize("argv", [
    ["reduce", "(6;3,3,2,2,2,2)"],
    ["genus", "(5;2)"],
    ["classify", "--input", CASE9_INPUT],
    ["enumerate", "--points", "3", "--cap", "5"],
    ["verify-example", "triangle-pencil"],
    ["check-config", "--input", I2_CONFIG],
    ["catalog"],
])
def test_json_output_is_one_indented_document(capsys, tmp_path, argv):
    # the report is written to stdout piece by piece; the bytes are those of
    # json.dumps with indent 1 and one closing newline
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
