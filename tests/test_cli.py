import json

import pytest
from click.testing import CliRunner

from blowdyn import cli
from blowdyn.errors import JordanMismatch, SchemaError
from blowdyn.lifting import lift
from blowdyn.scalars import GaussianRational, parse_scalar

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
    assert opts == {"degree_cap": 4, "precision_bits": 128, "field": "exact"}


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


def test_parse_map_spec_rejects_zero_eigenvalue():
    data = json.loads(json.dumps(FATOU_SPEC))
    data["blocks"][0]["lambda"] = "0"
    with pytest.raises(Exception):
        cli.parse_map_spec(data)


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
])
def test_parse_map_spec_field_level_errors(mangle, msgpart):
    data = json.loads(json.dumps(FATOU_SPEC))
    mangle(data)
    with pytest.raises(SchemaError) as info:
        cli.parse_map_spec(data)
    assert msgpart in str(info.value)


def test_degree_cap_defaults_to_largest_term():
    data = {
        "dim": 2,
        "blocks": [{"mu": 2, "lambda": "1"}],
        "terms": [{"j": 2, "exp": [3, 0], "coeff": "1"}],
    }
    germ, opts = cli.parse_map_spec(data)
    assert opts["degree_cap"] == 3
    assert germ.map.cap == 3


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
    data = json.loads((tmp_path / "lifted.json").read_text())
    L = cli.lifted_map_from_json(data)
    direct = lift(fatou_germ(), 2, 4)
    assert L.series == direct.series
    assert L.stage == direct.stage and L.cap == direct.cap
    emitted = cli.lifted_map_to_json(L)
    core = {k: v for k, v in data.items() if k != "semiconjugacy_exact"}
    assert emitted == core


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


def test_normalform_command(tmp_path):
    spec = write_spec(tmp_path, FATOU_SPEC)
    res = run("normalform", "--map", spec)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["epsilon_vector"] == ["0", "1"]
    assert out["j0"] == 1
    assert out["alpha"] == ["1", "0"]


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
    ("--window", ["1", "1000001"]),
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
