import csv
import enum
import importlib.util
import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import pytest
from click.testing import CliRunner

from blowdyn import cli
from blowdyn.errors import JordanMismatch, SchemaError
from blowdyn.lifting import lift
from blowdyn.normalform import epsilon_vector, normal_form
from blowdyn.scalars import GaussianRational, parse_scalar
from blowdyn.series import TruncatedSeries

from conftest import fatou_germ

FATOU_SPEC = {
    "schema": "blowdyn/1",
    "dim": 2,
    "blocks": [{"mu": 2, "lambda": "1"}],
    "terms": [{"j": 2, "exp": [2, 0], "coeff": "1"}],
    "options": {"degree_cap": 4, "precision_bits": 128, "field": "exact"},
}

NONGENERIC_SPEC = {
    "dim": 2,
    "blocks": [{"mu": 2, "lambda": "1"}],
    "terms": [
        {"j": 1, "exp": [2, 0], "coeff": "1"},
        {"j": 2, "exp": [1, 1], "coeff": "1"},
    ],
    "options": {"degree_cap": 3},
}


# complex, negative and fractional eigenvalues and coefficients
COMPLEX_SPEC = {
    "dim": 3,
    "blocks": [{"mu": 2, "lambda": "1/2+i"}, {"mu": 1, "lambda": "-3/4"}],
    "terms": [
        {"j": 2, "exp": [2, 0, 0], "coeff": "-2/3+1/5i"},
        {"j": 1, "exp": [1, 1, 0], "coeff": "7/2"},
        {"j": 3, "exp": [0, 1, 2], "coeff": "-i"},
        {"j": 3, "exp": [2, 0, 0], "coeff": "5/7"},
    ],
    "options": {"degree_cap": 4},
}

UNIPOTENT_SPEC = {
    "dim": 3,
    "blocks": [{"mu": 3, "lambda": "1"}],
    "terms": [
        {"j": 3, "exp": [2, 0, 0], "coeff": "-2/3+1/5i"},
        {"j": 1, "exp": [1, 1, 0], "coeff": "7/2"},
        {"j": 2, "exp": [0, 1, 1], "coeff": "-i"},
        {"j": 3, "exp": [1, 2, 0], "coeff": "5/7"},
    ],
    "options": {"degree_cap": 3},
}


def term_table(series, numbered=False):
    """The JSON term list of `series`, built from the public coeffs view."""
    rows = []
    for j, s in enumerate(series, start=1):
        for e, c in sorted(s.coeffs.items()):
            row = {"j": j} if numbered else {}
            row["exp"] = list(e)
            row["coeff"] = str(c)
            rows.append(row)
    return rows


def lift_reference(F, stage, cap):
    L = lift(F, stage, cap)
    return {
        "schema": "blowdyn/1",
        "kind": "lifted-map",
        "structure": {"mu": list(F.structure.mu),
                      "lambda": [str(x) for x in F.structure.lam]},
        "stage": stage,
        "degree_cap": cap,
        "components": [term_table([s]) for s in L.series.components],
        "semiconjugacy_exact": True,
    }


def write_spec(tmp_path, data, name="map.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(*args):
    return CliRunner().invoke(cli.main, list(args))


# -- map description parsing ----------------------------------------------

def test_parse_map_spec_worked_example():
    germ, opts = cli.parse_map_spec(FATOU_SPEC)
    assert germ.structure.mu == (2,)
    assert germ.is_generic()
    assert opts == {"degree_cap": 4, "precision_bits": 128}


def test_parse_map_spec_schema_tag_is_optional():
    data = dict(FATOU_SPEC)
    del data["schema"]
    germ, _ = cli.parse_map_spec(data)
    assert germ.structure.n == 2
    data["schema"] = "other/1"
    with pytest.raises(SchemaError):
        cli.parse_map_spec(data)


def test_parse_map_spec_redundant_linear_term_accepted():
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"].append({"j": 1, "exp": [0, 1], "coeff": "1"})
    germ, _ = cli.parse_map_spec(data)
    assert germ.map.components[0].coefficient((0, 1)) == GaussianRational(1)


def test_parse_map_spec_linear_conflict_is_jordan_mismatch():
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"].append({"j": 1, "exp": [0, 1], "coeff": "2"})
    with pytest.raises(JordanMismatch):
        cli.parse_map_spec(data)


def test_parse_map_spec_sums_split_linear_entries():
    """Degree-1 entries are summed like every other term: two halves of
    the Jordan entry restate it."""
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"] += [{"j": 1, "exp": [0, 1], "coeff": "1/2"},
                      {"j": 1, "exp": [0, 1], "coeff": "1/2"}]
    germ, _ = cli.parse_map_spec(data)
    assert germ.map.components[0].coefficient((0, 1)) == GaussianRational(1)
    assert [s._form for s in germ.map.components] == [
        s._form for s in cli.parse_map_spec(FATOU_SPEC)[0].map.components]


def test_parse_map_spec_repeated_linear_entry_is_jordan_mismatch(tmp_path):
    """A Jordan entry listed twice sums to twice the entry: refused, with
    exit code 2 from the command line."""
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"] += [{"j": 1, "exp": [0, 1], "coeff": "1"},
                      {"j": 1, "exp": [0, 1], "coeff": "1"}]
    with pytest.raises(JordanMismatch) as info:
        cli.parse_map_spec(data)
    assert str(info.value) == ("linear term (component 1, variable 2) is 2 "
                               "but the declared blocks require 1")
    res = run("lift", "--map", write_spec(tmp_path, data), "--stage", "2")
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == "JordanMismatch"


def test_parse_map_spec_rejects_zero_eigenvalue():
    data = json.loads(json.dumps(FATOU_SPEC))
    data["blocks"][0]["lambda"] = "0"
    with pytest.raises(Exception):
        cli.parse_map_spec(data)


class Exact(str):
    """A refusal's whole message, where a plain str is a fragment of it."""


@pytest.mark.parametrize("mangle,msgpart", [
    (lambda d: d.update(dim="2"), "dim"),
    (lambda d: d.update(blocks=[]), "blocks"),
    (lambda d: d.update(dim=3), "sum"),
    (lambda d: d["terms"].append({"j": 5, "exp": [2, 0]}), "terms[1].j"),
    (lambda d: d["terms"].append({"j": 1, "exp": [1]}), "exp"),
    (lambda d: d["terms"].append({"j": 1, "exp": [0, 0]}), "degree 0"),
    (lambda d: d["terms"].append({"j": 1, "exp": [2, 0], "coeff": "x"}),
     "coeff"),
    (lambda d: d.setdefault("options", {}).update(field="float"), "field"),
    (lambda d: d.setdefault("options", {}).update(degree_cap=1),
     "degree_cap"),
    pytest.param(lambda d: d["terms"].append([1, [2, 0], "1"]),
                 Exact("terms[1] must be an object"), id="term-not-object"),
    pytest.param(lambda d: d["terms"].append({"j": True, "exp": [2, 0]}),
                 Exact("terms[1].j must be in 1..2"), id="j-true"),
    pytest.param(lambda d: d["terms"].append({"j": 1, "exp": [True, 1]}),
                 Exact("terms[1].exp must be 2 nonnegative integers"),
                 id="exp-true"),
    pytest.param(lambda d: d["terms"].append({"j": 1, "exp": [3, -1]}),
                 Exact("terms[1].exp must be 2 nonnegative integers"),
                 id="exp-negative"),
    pytest.param(lambda d: d["terms"].append(
        {"j": 1, "exp": [2, 0], "coeff": 0.5}),
        Exact("terms[1].coeff: 0.5 is not a string literal or an integer; "
              "quote the literal"), id="coeff-float"),
    pytest.param(lambda d: d["options"].update(precision_bits=8),
                 Exact("precision_bits must be an integer in 24..4096, "
                       "got 8"), id="precision-low"),
    pytest.param(lambda d: d["options"].update(precision_bits=True),
                 Exact("precision_bits must be an integer in 24..4096, "
                       "got True"), id="precision-bool"),
    pytest.param(lambda d: d["options"].update(degree_cap=2)
                 or d["terms"].append({"j": 1, "exp": [1, 2]}),
                 Exact("degree_cap 2 below a declared term of degree 3"),
                 id="cap-below-degree"),
])
def test_parse_map_spec_field_level_errors(mangle, msgpart):
    data = json.loads(json.dumps(FATOU_SPEC))
    mangle(data)
    with pytest.raises(SchemaError) as info:
        cli.parse_map_spec(data)
    if isinstance(msgpart, Exact):
        assert str(info.value) == msgpart
    else:
        assert msgpart in str(info.value)


def _reference_forms(doc):
    """The integer forms of the germ a map description declares, summed
    with Fraction arithmetic: the Jordan linear part of the blocks plus
    every term of degree >= 2, duplicates added up."""
    n = doc["dim"]
    cap = doc.get("options", {}).get("degree_cap")
    if cap is None:
        cap = max([2] + [sum(t["exp"]) for t in doc["terms"]])
    comps = [{} for _ in range(n)]
    base = 0
    for b in doc["blocks"]:
        lam = Fraction(b.get("lambda", "1"))
        for j in range(base, base + b["mu"]):
            comps[j][tuple(int(i == j) for i in range(n))] = lam
            if j < base + b["mu"] - 1:
                comps[j][tuple(int(i == j + 1) for i in range(n))] = 1
        base += b["mu"]
    for t in doc["terms"]:
        if sum(t["exp"]) >= 2:
            c = comps[t["j"] - 1]
            e = tuple(t["exp"])
            c[e] = c.get(e, 0) + Fraction(t.get("coeff", "1"))
    return [TruncatedSeries(n, cap, {e: GaussianRational(q)
                                     for e, q in c.items()})._form
            for c in comps]


def _pool_maps():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        yield from workloads.Pool(name, "pool").maps.values()


def test_parse_map_spec_sums_terms_as_fractions():
    docs = list(_pool_maps())
    assert len(docs) > 100
    docs.append({
        "dim": 3, "blocks": [{"mu": 2, "lambda": "2"}, {"mu": 1, "lambda": "-1/3"}],
        "terms": [
            {"j": 1, "exp": [2, 0, 0], "coeff": "1/2"},
            {"j": 1, "exp": [2, 0, 0], "coeff": "1/3"},      # duplicates
            {"j": 1, "exp": [2, 0, 0], "coeff": "-007/06"},
            {"j": 2, "exp": [1, 1, 0], "coeff": "3/4"},
            {"j": 3, "exp": [0, 1, 2], "coeff": "5"},
            {"j": 2, "exp": [1, 1, 0], "coeff": "-3/4"},     # sums to zero
            {"j": 3, "exp": [0, 1, 2], "coeff": "+2/7"},
            {"j": 1, "exp": [0, 1, 0], "coeff": "1"},        # restated
            {"j": 3, "exp": [0, 0, 2]},
        ],
    })
    for doc in docs:
        germ, _ = cli.parse_map_spec(doc)
        got = [s._form for s in germ.map.components]
        assert got == _reference_forms(doc)


def test_parse_map_spec_component_range_message():
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"].append({"j": 3, "exp": [2, 0]})
    with pytest.raises(SchemaError) as info:
        cli.parse_map_spec(data)
    assert str(info.value) == "terms[1].j must be in 1..2"


def test_degree_cap_defaults_to_largest_term():
    data = {
        "dim": 2,
        "blocks": [{"mu": 2, "lambda": "1"}],
        "terms": [{"j": 2, "exp": [3, 0], "coeff": "1"}],
    }
    germ, opts = cli.parse_map_spec(data)
    assert opts["degree_cap"] == 3
    assert germ.map.cap == 3


# -- the indented JSON writer ---------------------------------------------

class Level(enum.IntEnum):
    LOW = 1


_TEXT = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\r", "\b",
         "\f", "\u00e9", "\u20ac", "\u2028", "\U0001f600", "a", "Z", "0", " "]
_FLOATS = [-0.0, 0.0, 1e300, -1e-300, 5e-324, 1e16, 0.1, 1 / 3,
           math.nan, math.inf, -math.inf]
_LEAVES = [True, False, 1, 0, -1, None, 2 ** 100, -(3 ** 80), Level.LOW]


def _random_json(rng, depth):
    kind = rng.randrange(7 if depth >= 5 else 10)
    if kind < 2:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind < 4:
        return rng.choice(_LEAVES + [rng.randint(-10 ** 30, 10 ** 30)])
    if kind < 5:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind < 7:
        return [rng.choice([0, 1, -5, 2 ** 70]) for _ in range(rng.randrange(4))]
    size = rng.choice([0, 0, 1, 2, 3, 4])
    if kind == 7:
        return {"".join(rng.choice(_TEXT) for _ in range(3)) + str(i):
                _random_json(rng, depth + 1) for i in range(size)}
    items = [_random_json(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 8 else items


def test_json_text_matches_json_dumps():
    rng = random.Random(2024)
    cases = [_random_json(rng, 0) for _ in range(600)]
    nested = {}
    for _ in range(6):  # empty containers at every depth
        nested = {"a": [nested, [], {}], "b": ({}, []), "c": []}
    cases += [nested, [], {}, (), [[[]]], [True, 1, False, 0, 1.0],
              [1, True], [Level.LOW, 2], ["x", 1], {"": ""}]
    for x in cases:
        assert cli.json_text(x) == json.dumps(x, indent=2), x
    assert sum(1 for x in cases if isinstance(x, (dict, list, tuple)) and x) > 200


@pytest.mark.parametrize("bad", [{1: "a"}, {"a": {None: 1}}, [{(1,): 2}],
                                 {"a": object()}, [1, {2, 3}], b"bytes"])
def test_json_text_rejects_what_it_cannot_spell_alike(bad):
    with pytest.raises(TypeError):
        cli.json_text(bad)


def _command_argv(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    planar = write_spec(tmp_path, NONGENERIC_SPEC, "planar.json")
    csv_path = str(tmp_path / "orbit.csv")
    return [
        ["partition", "--mu", "2,2", "--lambda", "2,3"],
        ["charts", "--mu", "3,1"],
        ["lift", "--map", spec, "--stage", "2"],
        ["lift", "--map", spec, "--stage", "1", "--out",
         str(tmp_path / "lifted.json")],
        ["chardirs", "--map", spec],
        ["invariants", "--map", planar],
        ["normalform", "--map", spec],
        ["orbit", "--map", spec, "--start", "3/1250,-3/31250", "--steps",
         "400", "--csv", csv_path, "--k0", "50"],
        ["classify", "--map", spec, "--csv", csv_path],
    ]


def test_every_command_prints_indented_json(tmp_path):
    calls = _command_argv(tmp_path)
    assert {argv[0] for argv in calls} == {
        "partition", "charts", "lift", "chardirs", "invariants",
        "normalform", "orbit", "classify"}
    for argv in calls:
        res = run(*argv)
        assert res.exit_code == 0, (argv, res.output)
        out = res.stdout
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


# -- command surface -------------------------------------------------------

def test_partition_command():
    res = run("partition", "--mu", "2,2", "--lambda", "2,3")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["schema"] == "blowdyn/1"
    assert out["structure"]["stages"] == 3
    assert len(out["splittings"]) == 4
    assert out["splittings"][3]["primed"] == [1, 2, 4]


def test_charts_command():
    res = run("charts", "--mu", "2", "--lambda", "1", "--stage", "2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    (table,) = out["charts"]
    assert table["forward"] == [[1, 1], [1, 2]]
    assert table["inverse"] == [[2, -1], [-1, 1]]
    assert table["required_nonzero"] == [1, 2]


def test_lift_round_trip(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    out_path = str(tmp_path / "lifted.json")
    res = run("lift", "--map", spec, "--stage", "2", "--degree", "4",
              "--out", out_path)
    assert res.exit_code == 0
    summary = json.loads(res.output)
    assert summary["semiconjugacy_exact"] is True
    want = lift_reference(fatou_germ(), 2, 4)
    text = (tmp_path / "lifted.json").read_text()
    assert json.loads(text) == want
    assert text == json.dumps(want, indent=2)


@pytest.mark.parametrize("spec,stage", [(FATOU_SPEC, 2), (COMPLEX_SPEC, 1),
                                        (COMPLEX_SPEC, 2)])
def test_lift_writes_the_reference_json(tmp_path, spec, stage):
    path = write_spec(tmp_path, spec)
    F, opts = cli.load_map_spec(path)
    want = json.dumps(lift_reference(F, stage, opts["degree_cap"]), indent=2)
    res = run("lift", "--map", path, "--stage", str(stage))
    assert res.exit_code == 0, res.output
    assert res.stdout == want + "\n"
    out = tmp_path / "lifted.json"
    res = run("lift", "--map", path, "--stage", str(stage), "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_text() == want


@pytest.mark.parametrize("spec", [FATOU_SPEC, UNIPOTENT_SPEC])
def test_normalform_writes_the_reference_json(tmp_path, spec):
    path = write_spec(tmp_path, spec)
    nf = normal_form(cli.load_map_spec(path)[0])
    want = {
        "schema": "blowdyn/1",
        "epsilon_table": [[str(x) for x in row] for row in nf.epsilon],
        "epsilon_vector": [str(x) for x in epsilon_vector(nf)],
        "alpha": [str(x) for x in nf.alpha],
        "j0": nf.j0,
        "normalized": term_table(nf.normalized.components, numbered=True),
        "conjugator": term_table(nf.conjugator.components, numbered=True),
    }
    res = run("normalform", "--map", path)
    assert res.exit_code == 0, res.output
    assert res.stdout == json.dumps(want, indent=2) + "\n"


def test_term_tables_spell_like_json_dumps():
    """TermTable inside json_text, at several indents and with empty
    series, against json.dumps of the reference term list; up to the
    tower's sizes, where exponents have two digits and caps exceed 9."""
    rng = random.Random(21)
    units = [parse_scalar(x) for x in ("i", "-i", "-1/3i", "2-i")]
    spelled = set()
    for nvars, cap in [(1, 0), (1, 5), (2, 4), (4, 3), (6, 10), (8, 16)]:
        def exponent():
            # degree on one or two variables, so one exponent can reach cap
            e = [0] * nvars
            hot = rng.sample(range(nvars), rng.randint(1, min(2, nvars)))
            for _ in range(rng.randint(0, cap)):
                e[rng.choice(hot)] += 1
            return tuple(e)

        def coefficient():
            if rng.random() < 0.3:
                return rng.choice(units)
            return GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                rng.choice([0, Fraction(-1, 3), 2]))

        size = 4 if cap < 10 else 40
        comps = [TruncatedSeries(nvars, cap, {
            exponent(): coefficient() for _ in range(rng.randint(0, size))})
            for _ in range(3)]
        comps.append(TruncatedSeries(nvars, cap,
                                     {exponent(): c for c in units}))
        comps.append(TruncatedSeries.zero(nvars, cap))
        if cap >= 10:
            assert any(max(e) >= 10 for s in comps for e in s.coeffs)
        spelled |= {str(c) for s in comps for c in s.coeffs.values()}
        for numbered in (False, True):
            x = {"a": [cli.TermTable(comps, numbered), cli.TermTable([])],
                 "b": cli.TermTable(comps[4:], numbered)}
            want = {"a": [term_table(comps, numbered), []], "b": []}
            assert cli.json_text(x) == json.dumps(want, indent=2)
    assert {"i", "-i", "-1/3i", "2-i"} <= spelled


def test_chardirs_command(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    res = run("chardirs", "--map", spec)
    assert res.exit_code == 0
    out = json.loads(res.output)
    (d,) = out["directions"]
    assert d["v"] == ["3", "2"]
    assert d["lambda"] == "1"
    assert d["allowable"] is True
    assert d["attraction_spectrum"] == ["-3"]
    assert "span" not in d and "numeric_stats" not in out


def test_chardirs_reports_families_once_without_spectra(tmp_path):
    spec = write_spec(tmp_path, {
        "dim": 4, "blocks": [{"mu": 2}, {"mu": 2}],
        "terms": [{"j": 2, "exp": [2, 0, 0, 0]}, {"j": 4, "exp": [2, 0, 0, 0]},
                  {"j": 1, "exp": [1, 1, 0, 0]}],
    })
    res = run("chardirs", "--map", spec)
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert {d["mode"] for d in out["directions"]} == {"factored"}
    plane = [d for d in out["directions"] if d["degenerate"]]
    assert plane == [{"v": ["0", "0", "1", "0"], "lambda": "0",
                      "degenerate": True, "allowable": False,
                      "mode": "factored", "span": [["0", "0", "0", "1"]]}]
    # the final chart's divisor is v1 v2 v4 = 0 and every entry lies in it
    assert not any(d["allowable"] for d in out["directions"])
    for d in out["directions"]:
        assert ("attraction_spectrum" in d) == (
            not d["degenerate"] and "span" not in d)
    assert run("chardirs", "--map", spec, "--mode", "factored").output \
        == res.output.replace('"mode": "auto"', '"mode": "factored"')
    assert run("chardirs", "--map", spec, "--mode", "numeric").exit_code == 2


def test_chardirs_reads_the_cap_two_lift(tmp_path):
    terms = [{"j": 3, "exp": [2, 0, 0, 0], "coeff": "2"},
             {"j": 1, "exp": [1, 1, 0, 0], "coeff": "-1/3"},
             {"j": 4, "exp": [1, 0, 0, 1], "coeff": "5"},
             {"j": 2, "exp": [0, 1, 1, 0], "coeff": "1"}]
    high = [{"j": 1, "exp": [3, 0, 0, 0], "coeff": "7"},
            {"j": 3, "exp": [2, 1, 0, 1], "coeff": "-2"},
            {"j": 4, "exp": [0, 0, 5, 0], "coeff": "1/2"}]
    doc = {"dim": 4, "blocks": [{"mu": 3, "lambda": "1"},
                                {"mu": 1, "lambda": "1"}]}
    cap2 = write_spec(tmp_path, dict(doc, terms=terms,
                                     options={"degree_cap": 2}), "cap2.json")
    cap8 = write_spec(tmp_path, dict(doc, terms=terms + high,
                                     options={"degree_cap": 8}), "cap8.json")
    res2, res8 = run("chardirs", "--map", cap2), run("chardirs", "--map", cap8)
    assert res2.exit_code == 0, res2.output
    assert json.loads(res2.output)["directions"]
    assert res8.output == res2.output


def test_invariants_command(tmp_path):
    spec = write_spec(tmp_path, NONGENERIC_SPEC)
    res = run("invariants", "--map", spec)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["epsilon"] == "3/2"
    assert out["eta"] == "1/4"
    assert out["xi"] == "1/9"
    assert out["kind"] == "planar-nongeneric"
    assert out["curves"] == 2


def _planar_spec(terms, cap=3, mu=(2,), lam="1"):
    return {"dim": sum(mu),
            "blocks": [{"mu": m, "lambda": lam} for m in mu],
            "terms": [{"j": j, "exp": list(e), "coeff": c}
                      for j, e, c in terms],
            "options": {"degree_cap": cap}}


def _fl(re, im="0.0"):
    return {"re": re, "im": im}


def _closed_form(v, lam, rate):
    return {"v": v, "lambda": lam, "degenerate": False, "allowable": True,
            "mode": "closed-form", "attraction_spectrum": [rate]}


IRRATIONAL_NOTE = ("square root of the second invariant is irrational; "
                   "directions reported in floating point")

# stdout of the invariants command, byte for byte, on a map with a rational
# root of the second invariant, one with an irrational root, and one where
# both invariants vanish
INVARIANTS_OUTPUTS = [
    ([(1, (2, 0), "1"), (2, (1, 1), "1")],
     {"epsilon": "3/2", "eta": "1/4", "xi": "1/9",
      "kind": "planar-nongeneric", "curves": 2, "stage": 1,
      "directions": [_closed_form(["1", "0"], "1", "-1/2"),
                     _closed_form(["1", "-1/2"], "1/2", "1")],
      "notes": []}),
    ([(1, (2, 0), "1"), (2, (1, 1), "2/3"), (2, (3, 0), "5/3")],
     {"epsilon": "4/3", "eta": "34/9", "xi": "17/8",
      "kind": "planar-nongeneric", "curves": 2, "stage": 1,
      "directions": [
          _closed_form([_fl("1.0"), _fl("0.6384919824742167")],
                       _fl("1.6384919824742168"),
                       _fl("-1.1862436022909775")),
          _closed_form([_fl("1.0"), _fl("-1.3051586491408833")],
                       _fl("-0.3051586491408834"),
                       _fl("-6.369311953264577", "-0.0"))],
      "notes": [IRRATIONAL_NOTE]}),
    ([(1, (2, 0), "1"), (2, (1, 1), "-2"), (2, (3, 0), "-2")],
     {"epsilon": "0", "eta": "0", "xi": None, "kind": "unresolved",
      "curves": None, "stage": None, "directions": [], "notes": []}),
]


@pytest.mark.parametrize("terms,payload", INVARIANTS_OUTPUTS,
                         ids=["rational", "irrational-eta", "both-vanish"])
def test_invariants_output_from_one_normal_form(tmp_path, monkeypatch, terms,
                                                payload):
    from blowdyn import normalform

    calls = []
    real = normalform.normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(normalform, "normal_form", counted)
    res = run("invariants", "--map",
              write_spec(tmp_path, _planar_spec(terms)))
    assert res.exit_code == 0
    assert res.stdout == json.dumps({"schema": "blowdyn/1", **payload},
                                    indent=2) + "\n"
    assert len(calls) == 1


@pytest.mark.parametrize("spec,error,message", [
    (FATOU_SPEC, "GenericInput",
     "second component has a z_1^2 term; these invariants only exist in "
     "the degenerate case"),
    (_planar_spec([(1, (2, 0, 0), "1")], mu=(3,)), "PreconditionViolated",
     "planar invariants require dimension 2"),
    (_planar_spec([(1, (2, 0), "1"), (2, (1, 1), "1")], lam="2"),
     "NotJordan", "linear part is not the unipotent Jordan block: entry (1,1)"),
    (_planar_spec([(1, (2, 0), "1"), (2, (1, 1), "1")], cap=2),
     "PreconditionViolated", "third-order data needed: cap must be >= 3"),
], ids=["generic", "dimension-3", "lambda-2", "cap-2"])
def test_invariants_errors(tmp_path, spec, error, message):
    res = run("invariants", "--map", write_spec(tmp_path, spec))
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"schema": "blowdyn/1", "error": error,
                                      "message": message}


def test_orbit_and_classify_commands(tmp_path):
    import mpmath

    from blowdyn import dynamics

    spec = write_spec(tmp_path, FATOU_SPEC)
    seed = dynamics.standard_orbit_seed(fatou_germ(), k0=50, settle=2000,
                                        precision_bits=128)
    with mpmath.workprec(128):
        start = ",".join(mpmath.nstr(mpmath.mpf(x.real), 40) for x in seed)
    csv_path = str(tmp_path / "orbit.csv")
    res = run("orbit", "--map", spec, "--start", start, "--steps", "800",
              "--prec", "128", "--csv", csv_path, "--k0", "50")
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["points"] == 801
    assert summary["diverged"] is False

    res2 = run("classify", "--map", spec, "--csv", csv_path)
    assert res2.exit_code == 0, res2.output
    rep = json.loads(res2.output)
    assert rep["classification"] == "standard"
    assert rep["matched_direction"]["v"] == ["3", "2"]
    assert rep["match_distance"] < 1e-4


def test_classify_reads_the_doubles_float_reads(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "orbit.csv"
    res = run("orbit", "--map", spec, "--start", "6/2500,-12/125000",
              "--steps", "200", "--prec", "256", "--csv", str(csv_path),
              "--k0", "50")
    assert res.exit_code == 0, res.output
    ks, z = cli._read_trace_csv(str(csv_path), 2)
    rows = list(csv.reader(csv_path.read_text().splitlines()))[1:]
    assert ks == [int(r[0]) for r in rows] == list(range(50, 251))
    want = [[complex(float(r[1 + 2 * j]), float(r[2 + 2 * j]))
             for j in range(2)] for r in rows]
    assert z.shape == (201, 2)
    assert repr(z.tolist()) == repr(want)


@pytest.mark.parametrize("body,message", [
    ("1,0.5,0,0.25,0\n1.5,0.5,0,0.25,0\n", "'1.5'"),
    ("1.0,0.5,0,0.25,0\n2.0,0.5,0,0.25,0\n", "'1.0'"),
    ("", "empty trace"),
    ("1,0.5,0,0.25,0\n2,0.5,0,0.25\n", "columns"),
    ("1,0.5,0,0.25,0\n3,0.5,0,0.25,0\n", "increase by 1"),
], ids=["non-integer-k", "integer-valued-float-k", "header-only",
        "ragged-row", "k-gap"])
def test_classify_rejects_malformed_csv(tmp_path, body, message):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("k,re_z1,im_z1,re_z2,im_z2\n" + body)
    # warnings are shown, not raised, as when the command runs; none may
    # reach the caller, and none may stand in for the error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run("classify", "--map", spec, "--csv", str(csv_path))
    assert [str(w.message) for w in caught] == []
    assert res.exit_code == 2
    assert res.stdout == ""
    line, = res.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "SchemaError"
    assert message in err["message"]


def test_classify_trace_beyond_the_double_range(tmp_path):
    # |z1|^2 and z1^2 / z2 overflow a double; a typed error, not exit 3
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("k,re_z1,im_z1,re_z2,im_z2\n" + "".join(
        "%d,%r,0,%r,0\n" % (k, 1e160 / k, 1e140 / k ** 2)
        for k in range(1, 301)))
    res = run("classify", "--map", spec, "--csv", str(csv_path))
    assert res.exit_code == 1, res.output
    assert res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "NonConvergent"
    assert err["message"] == \
        "stage 2 chart coordinates overflow double precision"


@pytest.mark.parametrize("rows,k", [(2000, 10), (300, 150)])
@pytest.mark.parametrize("value", ["nan", "inf", "1e309"])
def test_classify_rejects_non_finite_values(tmp_path, rows, k, value):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "trace.csv"
    lines = ["%d,%r,0,%r,0" % (i, 1 / i, 1 / i ** 2) for i in range(1, rows + 1)]
    lines[k - 1] = "%d,%s,0,%r,0" % (k, value, 1 / k ** 2)
    csv_path.write_text("k,re_z1,im_z1,re_z2,im_z2\n" + "\n".join(lines) + "\n")
    res = run("classify", "--map", spec, "--csv", str(csv_path))
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "SchemaError"
    shown = "nan" if value == "nan" else "inf"
    assert err["message"] == ("CSV value %s at k = %d, column re_z1, is not "
                              "a finite double" % (shown, k))


def test_normalform_command(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    res = run("normalform", "--map", spec)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["epsilon_vector"] == ["0", "1"]
    assert out["j0"] == 1
    assert out["alpha"] == ["1", "0"]


def unipotent_spec(n, cap):
    return {"dim": n, "blocks": [{"mu": n}],
            "terms": [{"j": n, "exp": [2] + [0] * (n - 1), "coeff": "1"}],
            "options": {"degree_cap": cap}}


@pytest.mark.parametrize("n,cap", [(7, 6), (9, 4), (4, 12), (12, 16)])
def test_normalform_refuses_shapes_over_the_joint_bound(tmp_path,
                                                        monkeypatch, n, cap):
    """dim and degree_cap are each in range, but their joint cost is not:
    the refusal comes before any solve."""
    def solved(*args):
        raise AssertionError("normalform solved a refused shape")

    monkeypatch.setattr(cli, "normal_form", solved)
    cost = n * math.comb(n + cap, n)
    assert cost > cli.NORMALFORM_COST
    path = write_spec(tmp_path, unipotent_spec(n, cap))
    res = run("normalform", "--map", path)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "SchemaError"
    assert err["message"] == (
        "degree_cap %d with dim %d: normalform cost dim*C(dim+degree_cap, "
        "dim) = %d exceeds %d" % (cap, n, cost, cli.NORMALFORM_COST))


@pytest.mark.parametrize("n,cap", [(6, 3), (12, 3), (3, 16)])
def test_normalform_accepts_shapes_within_the_joint_bound(tmp_path, n, cap):
    # (6, 3) is the largest benchmark shape; (12, 3) and (3, 16) reach the
    # dim and degree_cap limits inside the joint bound
    assert n * math.comb(n + cap, n) <= cli.NORMALFORM_COST
    path = write_spec(tmp_path, unipotent_spec(n, cap))
    res = run("normalform", "--map", path)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["j0"] == 1


def test_fatou_demo_command():
    res = run("fatou-demo", "--settle", "2000", "--steps", "800")
    assert res.exit_code == 0, res.output
    assert "PASS  stage-1 lift semiconjugacy exact" in res.output
    assert "FAIL  literal profile seed tracks 5000 steps" in res.output
    assert "classified standard" in res.output


# -- error channel ---------------------------------------------------------

def test_jordan_mismatch_exit_code(tmp_path):
    bad = json.loads(json.dumps(FATOU_SPEC))
    bad["terms"].append({"j": 1, "exp": [0, 1], "coeff": "2"})
    spec = write_spec(tmp_path, bad)
    res = run("lift", "--map", spec, "--stage", "1")
    assert res.exit_code == 2
    err = json.loads(res.stderr)
    assert err["error"] == "JordanMismatch"
    assert "component 1" in err["message"]


def test_missing_file_exit_code():
    res = run("lift", "--map", "/nonexistent.json", "--stage", "1")
    assert res.exit_code == 2
    err = json.loads(res.stderr)
    assert err["error"] == "SchemaError"


def test_malformed_json_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    res = run("chardirs", "--map", str(p))
    assert res.exit_code == 2


def test_runtime_errors_exit_one(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = str(tmp_path / "tiny.csv")
    res = run("orbit", "--map", spec, "--start", "1/100,1/100",
              "--steps", "20", "--csv", csv_path)
    assert res.exit_code == 0
    res2 = run("classify", "--map", spec, "--csv", csv_path)
    assert res2.exit_code == 1  # too few points: a declared runtime error
    err = json.loads(res2.stderr)
    assert err["error"] == "InsufficientData"


def test_orbit_start_dimension_check(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    res = run("orbit", "--map", spec, "--start", "1/100",
              "--steps", "5", "--csv", str(tmp_path / "x.csv"))
    assert res.exit_code == 2


@pytest.mark.parametrize("flag,values", [
    ("--prec", ["-5", "23", "4097"]),
    ("--steps", ["0", "1000001"]),
    ("--settle", ["0", "1000001"]),
    ("--window", ["1", "4", "1000001"]),
    ("--radius", ["inf", "nan", "0", "-1"]),
])
def test_orbit_path_flag_bounds(tmp_path, flag, values):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = str(tmp_path / "x.csv")
    orbit = ["orbit", "--map", spec, "--start", "1/100,1/100",
             "--steps", "5", "--csv", csv_path]
    commands = {
        "--prec": [orbit, ["fatou-demo"]],
        "--steps": [orbit[:-4] + ["--csv", csv_path], ["fatou-demo"]],
        "--settle": [["fatou-demo"]],
        "--window": [["classify", "--map", spec, "--csv", csv_path]],
        "--radius": [orbit],
    }[flag]
    for argv in commands:
        for value in values:
            res = run(*(argv + [flag, value]))
            assert res.exit_code == 2, (argv, value, res.output)
            err = json.loads(res.stderr)
            assert err["error"] == "SchemaError"
            assert err["message"].startswith(flag)
    if flag != "--window":
        res = run(*(commands[0] + [flag, "64" if flag == "--prec" else "2"]))
        assert res.exit_code == 0, res.output


@pytest.mark.parametrize("flag,values,admitted", [
    ("--degree", ["1", "17", "24"], ["2", "16"]),
    ("--stage", ["0", "-1", "3"], ["1", "2"]),
    ("--tau", ["-1", "0", "nan", "inf", "-inf"], ["1e-3", "0.5"]),
])
def test_lift_charts_classify_flag_bounds(tmp_path, flag, values, admitted):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = str(tmp_path / "x.csv")
    res = run("orbit", "--map", spec, "--start", "3/1250,-3/31250",
              "--steps", "400", "--csv", csv_path)
    assert res.exit_code == 0, res.output
    commands = {
        "--degree": [["lift", "--map", spec, "--stage", "2"]],
        "--stage": [["lift", "--map", spec], ["charts", "--mu", "2"]],
        "--tau": [["classify", "--map", spec, "--csv", csv_path]],
    }[flag]
    for argv in commands:
        for value in values:
            res = run(*(argv + [flag, value]))
            assert res.exit_code == 2, (argv, value, res.output)
            err = json.loads(res.stderr)
            assert err["error"] == "SchemaError"
            assert err["message"].startswith(flag)
        for value in admitted:
            res = run(*(argv + [flag, value]))
            assert res.exit_code == 0, (argv, value, res.output)


def test_block_structure_refusals(tmp_path):
    refused = [
        (["charts", "--mu", "40", "--stage", "1"], "--mu"),
        (["partition", "--mu", "13"], "--mu"),
        (["partition", "--mu", "0"], "--mu"),
        (["partition", "--mu", "2,-1"], "--mu"),
        (["partition", "--mu", "1"], "--mu"),
        (["charts", "--mu", "1,2"], "--mu"),
        (["partition", "--mu", "2", "--lambda", "0"], "--lambda"),
        (["charts", "--mu", "2,1", "--lambda", "2,0"], "--lambda"),
    ]
    for sizes, lams in [((1, 2), ("1", "1")), ((1, 1), ("1", "1")),
                        ((2,), ("0",))]:
        data = {"dim": sum(sizes),
                "blocks": [{"mu": m, "lambda": x}
                           for m, x in zip(sizes, lams)]}
        path = write_spec(tmp_path, data, name="%s.json" % (sizes,))
        refused.append((["lift", "--map", path, "--stage", "1"], "blocks"))
    for argv, prefix in refused:
        res = run(*argv)
        assert res.exit_code == 2, (argv, res.output)
        err = json.loads(res.stderr)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith(prefix), (argv, err)
    admitted = [
        ["charts", "--mu", "12", "--stage", "1"],
        ["partition", "--mu", "4,4,4"],
        ["partition", "--mu", "2,1", "--lambda", "2,5"],
        ["lift", "--map", write_spec(tmp_path, {
            "dim": 3, "blocks": [{"mu": 2}, {"mu": 1, "lambda": "3"}]}),
         "--stage", "1"],
    ]
    for argv in admitted:
        res = run(*argv)
        assert res.exit_code == 0, (argv, res.output)


def test_orbit_k0_bounds(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "x.csv"
    orbit = ["orbit", "--map", spec, "--start", "3/1250,-3/31250",
             "--steps", "300", "--csv", str(csv_path), "--k0"]
    for value in (2 ** 62 + 1, -2 ** 62 - 1):
        res = run(*orbit, str(value))
        assert res.exit_code == 2, (value, res.output)
        err = json.loads(res.stderr)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith("--k0")
    # every k of an admitted orbit fits the int64 column classify reads
    res = run(*orbit, str(2 ** 62))
    assert res.exit_code == 0, res.output
    last = int(csv_path.read_text().splitlines()[-1].split(",")[0])
    assert 2 ** 62 < last <= 2 ** 62 + 300
    res = run("classify", "--map", spec, "--csv", str(csv_path))
    assert res.exit_code == 0, res.output


def test_decimal_exponent_bound_in_map_files_and_flags(tmp_path):
    data = json.loads(json.dumps(FATOU_SPEC))
    data["terms"][0]["coeff"] = "1e5000"
    refused = [
        ["lift", "--map", write_spec(tmp_path, data), "--stage", "1"],
        ["orbit", "--map", write_spec(tmp_path, FATOU_SPEC, "f.json"),
         "--start", "1e-5000,0", "--steps", "5",
         "--csv", str(tmp_path / "x.csv")],
        ["partition", "--mu", "2", "--lambda", "1e5000"],
    ]
    for argv in refused:
        res = run(*argv)
        assert res.exit_code == 2, (argv, res.output)
        err = json.loads(res.stderr)
        assert err["error"] == "SchemaError"
        assert "decimal exponent beyond 4300" in err["message"]


@pytest.mark.parametrize("mangle,key", [
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(dim=13), "dim"),
    (lambda d: d["options"].update(degree_cap=17), "degree_cap"),
    (lambda d: d["options"].update(precision_bits=23), "precision_bits"),
    (lambda d: d["options"].update(precision_bits=4097), "precision_bits"),
])
def test_map_file_bounds(tmp_path, mangle, key):
    data = json.loads(json.dumps(FATOU_SPEC))
    mangle(data)
    with pytest.raises(SchemaError) as info:
        cli.parse_map_spec(data)
    assert str(info.value).startswith(key + " must be an integer in")
    res = run("lift", "--map", write_spec(tmp_path, data), "--stage", "1")
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == "SchemaError"


BASE_3 = {"dim": 3, "blocks": [{"mu": 2}, {"mu": 1, "lambda": "2"}],
          "terms": [{"j": 2, "exp": [2, 0, 0], "coeff": "1"}],
          "options": {"degree_cap": 2, "precision_bits": 128}}


@pytest.mark.parametrize("mangle,message", [
    (lambda d: d.update(dim=True), "dim must be an integer in 1..12"),
    (lambda d: d["blocks"][1].update(mu=True),
     "blocks[1].mu must be a positive integer"),
    (lambda d: d["terms"][0].update(j=True), "terms[0].j must be in 1..3"),
    (lambda d: d["terms"][0].update(exp=[True, True, 0]),
     "terms[0].exp must be 3 nonnegative integers"),
    (lambda d: d["options"].update(degree_cap=True),
     "degree_cap must be an integer in 2..16"),
    (lambda d: d["options"].update(precision_bits=False),
     "precision_bits must be an integer in 24..4096"),
    (lambda d: d["terms"][0].update(coeff=0.1),
     "terms[0].coeff: 0.1 is not a string literal or an integer; quote "
     "the literal"),
    (lambda d: d["terms"][0].update(coeff=True),
     "terms[0].coeff: True is not a string literal"),
    (lambda d: d["blocks"][1].update({"lambda": 2.0}),
     "blocks[1].lambda: 2.0 is not a string literal"),
], ids=["dim", "mu", "j", "exp", "degree_cap", "precision_bits",
        "float-coeff", "bool-coeff", "float-lambda"])
def test_map_file_json_types(tmp_path, mangle, message):
    """JSON true and false are not integers, and a JSON float is not an
    exact coefficient or eigenvalue: each is refused with exit code 2."""
    data = json.loads(json.dumps(BASE_3))
    cli.parse_map_spec(json.loads(json.dumps(data)))
    mangle(data)
    with pytest.raises(SchemaError) as info:
        cli.parse_map_spec(data)
    assert str(info.value).startswith(message)
    res = run("lift", "--map", write_spec(tmp_path, data), "--stage", "1")
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == "SchemaError"


def test_map_file_integer_scalars_are_exact():
    data = json.loads(json.dumps(BASE_3))
    data["terms"][0]["coeff"] = -3
    data["blocks"][1]["lambda"] = 2
    germ, _ = cli.parse_map_spec(data)
    assert germ.structure.lam[1] == GaussianRational(2)
    assert germ.a(2, 1, 1) == GaussianRational(-3)


def test_map_file_bounds_admit_their_limits():
    data = {"dim": 12, "blocks": [{"mu": 12}],
            "options": {"degree_cap": 16, "precision_bits": 4096}}
    germ, opts = cli.parse_map_spec(data)
    assert germ.structure.n == 12
    assert opts["degree_cap"] == 16 and opts["precision_bits"] == 4096


def test_orbit_precision_defaults_to_the_map_file(tmp_path):
    data = json.loads(json.dumps(FATOU_SPEC))
    data["options"]["precision_bits"] = 64
    spec = write_spec(tmp_path, data)
    csv_path = tmp_path / "orbit.csv"
    args = ["orbit", "--map", spec, "--start", "1/3,1/7", "--steps", "3",
            "--csv", str(csv_path)]
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["precision_bits"] == 64
    default_rows = csv_path.read_text()
    res = run(*(args + ["--prec", "64"]))
    assert csv_path.read_text() == default_rows
    res = run(*(args + ["--prec", "96"]))
    assert json.loads(res.output)["precision_bits"] == 96
    assert csv_path.read_text() != default_rows


def test_orbit_csv_spells_values_as_nstr(tmp_path):
    import mpmath

    from blowdyn import dynamics

    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "orbit.csv"
    res = run("orbit", "--map", spec, "--start", "1/3,-2/7+1/9i",
              "--steps", "12", "--prec", "96", "--csv", str(csv_path))
    assert res.exit_code == 0, res.output
    rows = csv_path.read_text().splitlines()[1:]
    start = (parse_scalar("1/3"), parse_scalar("-2/7+1/9i"))
    trace = dynamics.orbit_iterate(fatou_germ(), start, 12, precision_bits=96)
    digits = int(96 * 0.30103) + 3
    want = []
    with mpmath.workprec(96):
        for i, z in enumerate(trace.points):
            cells = [str(i)]
            for x in z:
                cells.append(mpmath.nstr(mpmath.mpf(x.real), digits))
                cells.append(mpmath.nstr(mpmath.mpf(x.imag), digits))
            want.append(",".join(cells))
    assert rows == want


def test_orbit_csv_spells_tiny_values_as_to_str(tmp_path):
    """Start coordinates near 10^-1100 lie more than 3500 binary orders
    below 1, where mpmath's to_str rescales by a power of ten first."""
    from mpmath.libmp import to_str

    from blowdyn import dynamics

    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "orbit.csv"
    tiny = "0" * 1100
    start = ("1/1" + tiny, "-3/7" + tiny + "+1/9" + tiny + "i")
    res = run("orbit", "--map", spec, "--start", ",".join(start),
              "--steps", "6", "--prec", "128", "--csv", str(csv_path),
              "--k0", "-2")
    assert res.exit_code == 0, res.output
    trace = dynamics.orbit_iterate(
        fatou_germ(), [parse_scalar(x) for x in start], 6,
        precision_bits=128)
    digits = int(128 * 0.30103) + 3
    want = ["k,re_z1,im_z1,re_z2,im_z2"] + [
        ",".join([str(k)] + [to_str(x, digits) for x in raw])
        for k, raw in enumerate(trace.raw_points(), -2)]
    text = csv_path.read_bytes().decode()
    assert text == "".join(row + "\r\n" for row in want)
    # every value but the start point's zero im_z1, which is "0.0"
    assert text.count("e-110") == 7 * 4 - 1


@pytest.mark.parametrize("prec", (64, 128, 256))
def test_orbit_csv_bytes_are_to_str_rows(tmp_path, prec):
    """A profile-like fatou orbit, written row by row, spells every value
    as to_str does, at each precision the benchmark uses."""
    from mpmath.libmp import to_str

    from blowdyn import dynamics

    spec = write_spec(tmp_path, FATOU_SPEC)
    csv_path = tmp_path / "orbit.csv"
    start = ("6/2500+1/3000000i", "-12/125000")
    res = run("orbit", "--map", spec, "--start", ",".join(start),
              "--steps", "400", "--prec", str(prec), "--csv", str(csv_path),
              "--k0", "50")
    assert res.exit_code == 0, res.output
    trace = dynamics.orbit_iterate(
        fatou_germ(), [parse_scalar(x) for x in start], 400,
        precision_bits=prec)
    digits = int(prec * 0.30103) + 3
    want = ["k,re_z1,im_z1,re_z2,im_z2"] + [
        ",".join([str(k)] + [to_str(x, digits) for x in raw])
        for k, raw in enumerate(trace.raw_points(), 50)]
    assert csv_path.read_bytes() == "".join(
        row + "\r\n" for row in want).encode()
    assert len(want) == 1 + len(trace) > 200


def test_preimage_failure_reports_its_step(monkeypatch):
    from blowdyn import dynamics
    from blowdyn.errors import NonConvergent

    def stalls(*args, **kwargs):
        raise NonConvergent("preimage Newton iteration stalled", step=7)

    monkeypatch.setattr(dynamics, "standard_orbit_seed", stalls)
    res = run("fatou-demo", "--settle", "10", "--steps", "10")
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "NonConvergent" and err["step"] == 7


def test_unexpected_errors_exit_three(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "lift", broken)
    spec = write_spec(tmp_path, FATOU_SPEC)
    res = run("lift", "--map", spec, "--stage", "1")
    assert res.exit_code == 3
    err = json.loads(res.stderr)
    assert err["error"] == "RuntimeError" and err["message"] == "boom"
    assert "RuntimeError: boom" in err["traceback"]


# -- in-process use --------------------------------------------------------

def test_in_process_calls_release_their_output_streams(tmp_path):
    import contextlib
    import gc
    import io
    import weakref

    spec = write_spec(tmp_path, FATOU_SPEC)
    calls = [["lift", "--map", spec, "--stage", "2"],
             ["partition", "--mu", "2"],
             ["lift", "--map", str(tmp_path / "missing.json"), "--stage", "1"],
             ["fatou-demo", "--settle", "10", "--steps", "10"]]
    refs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=argv, prog_name="blowdyn")
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
