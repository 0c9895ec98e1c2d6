import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as Q

import pytest

import grasscy.cli as cli
import grasscy.qh as qh
from grasscy.cli import main
from grasscy.dop import AmbiguousAnnihilator, DOp
from grasscy.errors import UsageError
from grasscy.hypergeom import MAX_ORDER, a_series, factorial_trick
from grasscy.laurent import laurent_from_json
from grasscy.mirror_analysis import NonIntegralInstanton, NotMUM, yukawa_z
from grasscy.pipeline import fit_operator, run_case
from grasscy.qh import NoDependence
from grasscy.registry import ENTRY_KEYS, RegistryError, _load_json, registry_load
from grasscy.series import PowerSeries, TruncationError, series_from_json, series_to_json
from grasscy.upoly import InexactDivision


def test_registry_has_six_cases(registry):
    assert sorted(registry) == [
        "X1111111_G27",
        "X111111_G36",
        "X11112_G26",
        "X113_G25",
        "X122_G25",
        "X4_G24",
    ]


def test_registry_invariants(registry):
    for case in registry.values():
        assert case.chi == 2 * (case.h11 - case.h21)
        assert case.alpha == (case.k - 1) * (case.n - case.k - 1)
    assert registry["X1111111_G27"].alpha == 4
    assert registry["X1111111_G27"].expected_p == 14


def test_registry_holds_no_derived_chi_or_alpha(tmp_path, registry):
    """chi and alpha are computed from the case, so the shipped registry
    lists neither, and a stale copy of either in a registry is ignored."""
    data = _load_json(None)
    assert not any({"chi", "alpha"} & set(rec) for rec in data["cases"])
    for rec in data["cases"]:
        rec["chi"], rec["alpha"] = 1, -1
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    assert registry_load(stale) == registry


def test_registry_rejects_bad_node_count(tmp_path):
    import grasscy.registry as regmod

    data = regmod._load_json(None)
    data["cases"][0]["p"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(RegistryError):
        registry_load(bad)


def test_registry_rejects_fixture_denominator_vanishing_at_zero(tmp_path):
    data = _load_json(None)
    data["cases"][0]["kz3_denominator"] = [0, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(RegistryError, match="denominator vanishes at z = 0"):
        registry_load(bad)


def test_kz3_fixture_of_the_quartic(registry):
    """X4_G24's fixture 8 / (1 - 1024 z) expands to 8 * 1024^m."""
    want = PowerSeries("z", tuple(8 * Q(1024) ** m for m in range(21)))
    assert registry["X4_G24"].kz3_fixture(20) == want


@pytest.mark.parametrize("name", sorted(registry_load()))
def test_kz3_fixture_equals_the_fitted_yukawa_z(registry, name):
    case = registry[name]
    assert case.kz3_fixture(30) == yukawa_z(fit_operator(case), case.n0, 30)


def _registry_without_k() -> dict:
    data = _load_json(None)
    del data["cases"][0]["k"]
    return data


@pytest.mark.parametrize("content,message", [
    ([], "not a case registry: missing 'cases'"),
    ({"case": []}, "not a case registry: missing 'cases'"),
    ({"cases": [1]}, "not a registry case: missing " + ", ".join(map(repr, ENTRY_KEYS))),
    (_registry_without_k(), "not a registry case: missing 'k'"),
], ids=["list", "no-cases", "entry-not-an-object", "entry-without-k"])
def test_registry_load_names_missing_keys(tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    with pytest.raises(UsageError) as e:
        registry_load(bad)
    assert str(e.value) == message


@pytest.mark.parametrize("field,value,message", [
    ("pf_max_zdeg", 1.5, "pf_max_zdeg must be an int >= 0, got 1.5"),
    ("pf_max_zdeg", "1", "pf_max_zdeg must be an int >= 0, got '1'"),
    ("pf_max_zdeg", -1, "pf_max_zdeg must be an int >= 0, got -1"),
    ("instantons", "abc", "instantons must be null or a list of ints, got 'abc'"),
    ("instantons", [1, 2.5], "instantons must be null or a list of ints, got [1, 2.5]"),
    ("degrees", [0, 2, 3], "every degree must be >= 1"),
    ("k", 0, "need 1 <= k < n, got (0,4)"),
    ("h11", [1], "h11 must be an int, got [1]"),
    ("h21", "86", "h21 must be an int, got '86'"),
    ("n", 4.0, "n must be an int, got 4.0"),
    ("k", True, "k must be an int, got True"),
    ("p", None, "p must be an int, got None"),
    ("name", 7, "name must be a str, got 7"),
    ("degrees", [4.0], "degrees must be a list of ints, got [4.0]"),
    ("degrees", 4, "degrees must be a list of ints, got 4"),
    ("strata_degrees", "1", "strata_degrees must be a list of ints, got '1'"),
    ("expected_Y", [1, 2, 3.0], "expected_Y must be a list of ints, got [1, 2, 3.0]"),
    ("kz3_numerator", ["1/0"], "every entry of kz3_numerator must be a rational, got '1/0'"),
    ("kz3_denominator", ["x"], "every entry of kz3_denominator must be a rational, got 'x'"),
    ("kz3_denominator", 1, "kz3_denominator must be a list of rationals, got 1"),
    ("kz3_numerator", [0.1], "every entry of kz3_numerator must be a rational, got 0.1"),
    ("kz3_denominator", [True], "every entry of kz3_denominator must be a rational, got True"),
], ids=["zdeg-float", "zdeg-string", "zdeg-negative", "instantons-string", "instantons-float",
        "degree-zero", "k-zero", "h11-list", "h21-string", "n-float", "k-bool", "p-null",
        "name-int", "degrees-float", "degrees-int", "strata-string", "expected-Y-float",
        "kz3-zero-denominator", "kz3-not-rational", "kz3-not-a-list", "kz3-float",
        "kz3-bool"])
def test_cli_registry_rejects_bad_field(tmp_path, capsys, monkeypatch, field, value, message):
    """A registry field of the wrong type or sign is refused when the
    registry is loaded, before any series is built: exit 2, one JSON line
    on stderr, no traceback."""
    data = _load_json(None)
    data["cases"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setattr(cli, "run_case", _raise(AssertionError("a series was built")))
    assert main(["verify-all", "--registry", str(bad)]) == 2
    error = _usage_error(capsys)
    assert error == f"RegistryError: {data['cases'][0]['name']}: {message}"


@pytest.mark.parametrize("reader,content,message", [
    (laurent_from_json, {"nvars": 1, "terms": 5}, "terms must be a list, got 5"),
    (laurent_from_json, {"nvars": "1", "terms": []}, "nvars must be an int >= 0, got '1'"),
    (laurent_from_json, {"nvars": 1, "terms": [{"exp": 1, "c": "1"}]},
     "exp must be a list of ints, got 1"),
    (laurent_from_json, {"nvars": 1, "terms": [{"exp": [1], "c": "1/0"}]},
     "c must be a rational, got '1/0'"),
    (series_from_json, {"var": "z", "trunc": 0, "coeffs": 5},
     "coeffs must be a list of rationals, got 5"),
    (series_from_json, {"var": "z", "trunc": 1, "coeffs": ["1", "x"]},
     "every entry of coeffs must be a rational, got 'x'"),
    (series_from_json, {"var": "z", "trunc": 1, "coeffs": [0.1, "1"]},
     "every entry of coeffs must be a rational, got 0.1"),
    (series_from_json, {"var": "z", "trunc": 1, "coeffs": ["0", True]},
     "every entry of coeffs must be a rational, got True"),
    (laurent_from_json, {"nvars": 1, "terms": [{"exp": [1], "c": 1.5}]},
     "c must be a rational, got 1.5"),
    (laurent_from_json, {"nvars": 1, "terms": [{"exp": [1], "c": False}]},
     "c must be a rational, got False"),
], ids=["terms-int", "nvars-string", "exp-int", "c-zero-denominator", "coeffs-int",
        "coeffs-not-rational", "coeffs-float", "coeffs-bool", "c-float", "c-bool"])
def test_readers_refuse_wrong_types(reader, content, message):
    """A JSON value of the wrong type is bad input, named by the reader."""
    with pytest.raises(UsageError) as e:
        reader(content)
    assert type(e.value) is UsageError and str(e.value) == message


def _registry_with_expected_Y(value) -> dict:
    data = _load_json(None)
    data["cases"][0]["expected_Y"] = value
    return data


@pytest.mark.parametrize("argv,option,content,error", [
    (["verify-all"], "--registry", _registry_with_expected_Y([1, 2]),
     RegistryError("X4_G24: expected_Y must hold h11, h21 and chi, got [1, 2]")),
    (["verify-all"], "--registry", _registry_with_expected_Y([]),
     RegistryError("X4_G24: expected_Y must hold h11, h21 and chi, got []")),
    (["pf-fit", "--max-order", "1", "--max-degree", "0"], "--series",
     {"var": "z", "trunc": -1, "coeffs": []},
     UsageError("coeffs must hold at least the constant coefficient")),
    (["period", "--order", "2"], "--poly", {"nvars": 2, "terms": [{"exp": [1], "c": "1"}]},
     UsageError("exp must hold nvars = 2 ints, got [1]")),
], ids=["expected-Y-short", "expected-Y-empty", "coeffs-empty", "exp-short"])
def test_readers_refuse_wrong_values(tmp_path, argv, option, content, error):
    """A JSON value of the right type but the wrong length is bad input,
    named by the reader in-process, and exit 2 with one JSON line through
    the command line."""
    read = {"--registry": registry_load, "--series": series_from_json,
            "--poly": laurent_from_json}[option]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    with pytest.raises(UsageError) as e:
        read(bad if option == "--registry" else content)
    assert type(e.value) is type(error) and str(e.value) == str(error)
    proc = subprocess.run([sys.executable, "-m", "grasscy.cli", *argv, option, str(bad)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (2, "", 1)
    assert json.loads(proc.stderr)["error"] == f"{type(error).__name__}: {error}"


def _counting(calls: list, fn):
    """`fn`, recording each call in `calls`."""
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("argv,stage", [
    (["verify-all"], "run_case"),
    (["instanton", "--case", "X4_G24"], "run_case"),
    (["yukawa", "--case", "X4_G24"], "fit_operator"),
], ids=["verify-all", "instanton", "yukawa"])
def test_cli_fit_bound_past_the_cap_is_refused_before_any_case_runs(
        tmp_path, capsys, monkeypatch, argv, stage):
    """pf_max_zdeg 40 needs the A-series to order 5 * 41 + GUARD = 215,
    past MAX_ORDER: exit 2 with an error that names the case and the
    bound, before any case runs, even the five that sort before it."""
    data = _load_json(None)
    next(rec for rec in data["cases"] if rec["name"] == "X4_G24")["pf_max_zdeg"] = 40
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    calls = []
    monkeypatch.setattr(cli, stage, _counting(calls, getattr(cli, stage)))
    assert main([*argv, "--registry", str(bad)]) == 2
    assert calls == []
    assert _usage_error(capsys) == ("RegistryError: X4_G24: pf_max_zdeg 40 needs the A-series "
                                    "to order 215, past the resource cap 200")
    # a command that runs another case of the registry does not check this one
    assert main(["instanton", "--case", "X113_G25", "--count", "1", "--registry", str(bad)]) == 0


def _registry_with_duplicate() -> dict:
    """X113_G25 twice, the first with wrong instanton numbers: a dict keyed
    by name would keep only the second, and the run would pass."""
    data = _load_json(None)
    good = next(rec for rec in data["cases"] if rec["name"] == "X113_G25")
    data["cases"] = [dict(good, instantons=[1, 2, 3]), good]
    return data


@pytest.mark.parametrize("content,message", [
    ({"cases": []}, "cases must be a non-empty list, got []"),
    ({"cases": {"X4_G24": {}}}, "cases must be a non-empty list, got {'X4_G24': {}}"),
    (_registry_with_duplicate(), "X113_G25: two cases share this name"),
], ids=["empty", "not-a-list", "duplicate-name"])
def test_cli_registry_rejects_bad_case_list(tmp_path, capsys, monkeypatch, content, message):
    """A registry with no cases, or two of one name, is refused when it is
    loaded, before any series is built: exit 2, one JSON line on stderr."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    monkeypatch.setattr(cli, "run_case", _raise(AssertionError("a series was built")))
    assert main(["verify-all", "--registry", str(bad)]) == 2
    assert _usage_error(capsys) == f"RegistryError: {message}"


SERIES = "<valid series file>"
FIT_BOUNDS = "need max_order >= 1, max_zdeg >= 0 for a fit"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_toric_json(capsys):
    code, out = run_cli(["toric", "2", "4", "--facets"], capsys)
    assert code == 0
    assert len(out["vertices"]) == 6
    assert len(out["facets"]) == 6
    assert out["reflexive"] is True


def test_cli_toric_facets_g36(capsys):
    code, out = run_cli(["toric", "3", "6", "--facets"], capsys)
    assert code == 0
    assert len(out["facets"]) == 20
    assert out["reflexive"] is True


def test_cli_toric_facets_g37(capsys):
    code, out = run_cli(["toric", "3", "7", "--facets"], capsys)
    assert code == 0
    assert len(out["facets"]) == 35
    assert all(f["c"] == "1" for f in out["facets"])
    assert out["reflexive"] is True


def test_cli_toric_facets_over_cap_is_usage_error(capsys):
    assert main(["toric", "4", "8", "--facets"]) == 2
    assert "C(8,4) = 70 Pluecker coordinates exceed the bound 35" in _usage_error(capsys)


def test_cli_toric_over_cap_is_refused_before_delta_is_built(monkeypatch, capsys):
    """Delta(2,400) has 1196 vertices of dimension 796; the cap on C(n,k)
    refuses it without building them."""
    def build_delta(k, n):
        pytest.fail(f"build_delta({k}, {n}) ran")

    monkeypatch.setattr(cli, "build_delta", build_delta)
    assert main(["toric", "2", "400"]) == 2
    assert "C(400,2) = 79800 Pluecker coordinates exceed the bound 35" in _usage_error(capsys)


def test_cli_aseries_trivial(capsys):
    code, out = run_cli(["aseries", "2", "4", "--order", "0"], capsys)
    assert code == 0
    assert out["coeffs"] == ["1"]


def test_cli_phi(capsys):
    code, out = run_cli(["phi", "2", "5", "--degrees", "1,1,3", "--order", "2"], capsys)
    assert code == 0
    assert out["coeffs"] == ["1", "18", "1710"]
    assert out["var"] == "z"


def test_cli_qh_operator(capsys):
    code, out = run_cli(["qh-operator", "2", "4"], capsys)
    assert code == 0
    assert out["order"] == 5


def test_cli_verify_conjecture_exit_codes(capsys):
    code, out = run_cli(["verify-conjecture", "2", "4", "--order", "12"], capsys)
    assert code == 0 and out["pass"] is True


def test_cli_pf_fit_roundtrip(tmp_path, capsys):
    code, phi = run_cli(["phi", "2", "4", "--degrees", "4", "--order", "20"], capsys)
    f = tmp_path / "series.json"
    f.write_text(json.dumps(phi))
    code, out = run_cli(
        ["pf-fit", "--series", str(f), "--max-order", "4", "--max-degree", "1"],
        capsys,
    )
    assert code == 0
    assert out["order"] == 4
    assert out["var"] == "z"


def test_cli_instanton_pass(capsys):
    code, out = run_cli(["instanton", "--case", "X113_G25", "--count", "3"], capsys)
    assert code == 0
    assert out["pass"] is True
    assert out["instantons"] == [540, 12555, 621315]


def test_cli_lax_and_period(tmp_path, capsys):
    code, lax = run_cli(["lax", "2", "4"], capsys)
    assert code == 0
    f = tmp_path / "lax.json"
    f.write_text(json.dumps(lax))
    code, out = run_cli(["period", "--poly", str(f), "--order", "2"], capsys)
    assert code == 0
    assert out["coeffs"] == ["1", "48", "15120"]
    # C(40,1) = 40 and C(8,3) = 56 exceed DIM_BOUND, but the polynomials
    # stay within the bound on vertex entries: 40 monomials in 39
    # variables, and 24 in 15
    for argv, terms in ((["lax", "1", "40"], 40), (["lax", "3", "8"], 24)):
        code, out = run_cli(argv, capsys)
        assert code == 0 and len(out["terms"]) == terms


@pytest.mark.parametrize("argv,digest", [
    (["1", "4", "--order", "4"], "a5823960316b2e160ae7580369d1daea5e383bd1538564845973f1e379880cf9"),
    (["1", "4", "--order", "4", "--param-bound", "0"],
     "a5823960316b2e160ae7580369d1daea5e383bd1538564845973f1e379880cf9"),
    (["2", "5", "--order", "4"], "ecd4c365f9687e36885bc213e1767d7b96518b137ff4875c0344bc1f4d891c0a"),
    (["2", "5", "--order", "4", "--param-bound", "2"],
     "7eace56169118d6a0194a5f6aff1f771af7a565b8a1ab30911a15ecff3aa3070"),
    (["3", "6", "--order", "3"], "b7fcf23ea3cb0a4c719a09f4fa3994feeafbfc05bcaca638c1d33dae39eed1e4"),
    (["3", "6", "--order", "3", "--param-bound", "2"],
     "d62cbcb23c7fc87dda8042975e6918ae67c4dd4f65fa530998172866c010643c"),
    (["4", "7", "--order", "2"], "dd2bb7b71d72f36eac74fea30613dac0db35f3504030862dec4ce57a5806480c"),
    (["4", "7", "--order", "2", "--param-bound", "2"],
     "6de0f82a48012d0cd4b8ebd50d895fb3ad89f43a9c3acccbcdd93f4e995a14f0"),
])
def test_cli_aseries_keep_params_output_is_pinned(capsys, argv, digest):
    """`aseries --keep-params` prints the multivariate series byte for byte
    as recorded: the sha256 of its stdout."""
    assert main(["aseries", *argv, "--keep-params"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_aseries_keep_params_of_a_thousand_cells(capsys):
    """G(2,1003) to order 0: the count cap admits every grid at order 0,
    and the listing of its 1000 cells is one report, not a recursion per
    cell."""
    code, out = run_cli(["aseries", "2", "1003", "--order", "0", "--keep-params"], capsys)
    assert code == 0
    assert out["terms"] == [{"m": 0, "s": [0] * 1000, "c": "1"}]


def test_cli_mirror_system(capsys):
    code, out = run_cli(["mirror-system", "2", "5", "--degrees", "1,1,3"], capsys)
    assert code == 0
    assert len(out["polys"]) == 5
    assert len(out["equations"]) == 3
    code, out = run_cli(["mirror-system", "1", "40", "--degrees", "40"], capsys)  # C(40,1) = 40
    assert code == 0
    assert (len(out["polys"]), len(out["equations"])) == (40, 1)


def test_cli_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["instanton", "--case", "NOPE"]) == 2


def test_cli_help_exits_0(capsys):
    assert main(["verify-all", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: grasscy verify-all") and captured.err == ""


# every command, in the order `grasscy --help` lists them
COMMAND_NAMES = ["toric", "aseries", "phi", "pf-fit", "qh-operator", "verify-conjecture",
                 "yukawa", "instanton", "lax", "period", "mirror-system", "verify-all"]


def _full_parser_help(argv) -> str:
    """What the parser with every command registered prints for `argv`."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        cli.build_parser([]).parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_cli_command_help_equals_the_full_parsers(capsys, name):
    """A command's parser is built alone, and its help is the same bytes as
    the parser with every command registered prints."""
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: grasscy {name} ")
    assert captured.out == _full_parser_help([name, "--help"])


def test_cli_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == _full_parser_help(["--help"])
    listed = out.split("{", 1)[1].split("}", 1)[0]
    assert listed.split(",") == COMMAND_NAMES


def test_cli_missing_or_unknown_command_keeps_argparses_message(capsys):
    """No command, or a name that is none of the twelve, is refused by the
    parser with every command registered: its messages name them all."""
    assert main([]) == 2
    assert _usage_error(capsys) == ("UsageError: grasscy: the following arguments are required: "
                                    "command")
    assert main(["no-such-command"]) == 2
    message = _usage_error(capsys)
    head = "UsageError: grasscy: argument command: invalid choice: 'no-such-command' (choose from "
    assert message.startswith(head)
    assert [c.strip(" ')") for c in message[len(head):].split(",")] == COMMAND_NAMES


def test_cli_verify_all_report_bytes_are_pinned(capsys):
    """Default `verify-all` prints the recorded bytes: the sha256 of its stdout."""
    assert main(["verify-all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ec8a8a37740d0c6d9c12d45f630dab1a12dbf5e094c7878f6629a546762cc428"


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    """A valid series file: phi of the quartic in G(2,4) to order 30."""
    phi = factorial_trick(a_series(2, 4, 30), (4,))
    f = tmp_path_factory.mktemp("series") / "phi.json"
    f.write_text(json.dumps(series_to_json(phi)))
    return str(f)


def _usage_error(capsys) -> str:
    """The error of a run that exited 2: nothing on stdout, one JSON line on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv,message", [
    (["instanton", "--case", "X113_G25", "--count", "0"], "count must be >= 1, got 0"),
    (["verify-all", "--count", "0"], "count must be >= 1, got 0"),
    (["mirror-system", "2", "5", "--degrees", "0,2,3"], "every degree must be >= 1"),
    (["aseries", "2", "4", "--keep-params", "--param-bound", "-1"],
     "parameter degree bound -1 must be >= 0"),
    (["aseries", "2", "5", "--order", "2", "--param-bound", "1"],
     "a parameter degree bound needs keep_params"),
    (["qh-operator", "0", "3"], "need 1 <= k < n, got (0,3)"),
    (["verify-conjecture", "0", "3"], "need 1 <= k < n, got (0,3)"),
    (["pf-fit", "--series", SERIES, "--max-order", "0", "--max-degree", "1"], FIT_BOUNDS),
    (["pf-fit", "--series", SERIES, "--max-order", "-1", "--max-degree", "1"], FIT_BOUNDS),
    (["pf-fit", "--series", SERIES, "--max-order", "4", "--max-degree", "-3"], FIT_BOUNDS),
    (["pf-fit", "--series", SERIES, "--max-order", "4", "--max-degree", "1", "--guard", "5"],
     "unrecognized arguments: --guard 5"),
    (["toric", "5", "12"], "C(12,5) = 792 Pluecker coordinates exceed the bound 35"),
    (["qh-operator", "4", "8"], "C(8,4) = 70 Pluecker coordinates exceed the bound 35"),
    (["verify-conjecture", "100", "200"], "Pluecker coordinates exceed the bound 35"),
    (["toric", "40", "80"], "Pluecker coordinates exceed the bound 35"),
    (["toric", "1000000", "2000000"],
     "C(2000000,1000000) > 2^1024 Pluecker coordinates exceed the bound 35"),
    (["verify-all", "--bogus"], "unrecognized arguments: --bogus"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
    (["phi", "2", "5", "--degrees", "-1,3,3"], "argument --degrees: expected one argument"),
    (["lax", "6", "12"], "Delta(6,12) has 2232 vertex entries, more than the bound 2000"),
    (["lax", "100", "200"], "Delta(100,200) has 198020000 vertex entries, more than the bound 2000"),
    (["mirror-system", "40", "80", "--degrees", "80"],
     "Delta(40,80) has 4995200 vertex entries, more than the bound 2000"),
    (["lax", "1000000", "2000000"],
     "Delta(1000000,2000000) has at least 2000000 vertex entries, more than the bound 2000"),
    (["aseries", "2", "5", "--order", "2", "--param-bound", "-1"],
     "parameter degree bound -1 must be >= 0"),
    (["aseries", "3", "6", "--order", "200", "--keep-params"],
     "A-series terms of G(3,6) to order 200 exceed the resource cap 1048576"),
    (["period", "--poly", SERIES, "--nparams", "1"], "unrecognized arguments: --nparams 1"),
])
def test_cli_bad_input_is_usage_error(capsys, series_file, argv, message):
    """Rejected before any computation: exit 2, nothing on stdout, one JSON
    error line on stderr."""
    assert main([series_file if a == SERIES else a for a in argv]) == 2
    assert message in _usage_error(capsys)


@pytest.mark.parametrize("terms,order,message", [
    ([{"exp": [1, -1], "c": "1"}, {"exp": [-1, 2], "c": "1"}], "1",
     "tracked parameter exponents must be non-negative"),
    ([{"exp": [1, 0], "c": "1"}, {"exp": [1, 1], "c": "1"}, {"exp": [-1, 0], "c": "1"}], "3",
     "monomials do not lie on an affine hyperplane at height 1"),
])
def test_cli_period_bad_tracked_input_is_usage_error(tmp_path, capsys, terms, order, message):
    f = tmp_path / "poly.json"
    f.write_text(json.dumps({"nvars": 2, "terms": terms}))
    assert main(["period", "--poly", str(f), "--order", order]) == 2
    assert message in _usage_error(capsys)


@pytest.mark.parametrize("argv,content,message", [
    (["lax", "2", "4", "--q", "1/0"], None, "bad --q '1/0': ZeroDivisionError"),
    (["mirror-system", "2", "5", "--degrees", "1,1,3", "--q", "1/0"], None,
     "bad --q '1/0': ZeroDivisionError"),
    (["lax", "2", "4", "--q", "abc"], None, "bad --q 'abc': ValueError"),
    (["mirror-system", "2", "5", "--degrees", "1,1,3", "--partition", "1;2;x"], None,
     "bad --partition '1;2;x': ValueError"),
    (["verify-all", "--registry", "FILE"], [], "not a case registry: missing 'cases'"),
    (["verify-all", "--registry", "FILE"], _registry_without_k(),
     "not a registry case: missing 'k'"),
    (["period", "--poly", "FILE"], {"nvars": 1, "terms": [{"c": "1"}]},
     "not a Laurent term: missing 'exp'"),
    (["period", "--poly", "FILE"], None, "FileNotFoundError"),
    (["period", "--poly", "FILE"], "{not json", "JSONDecodeError"),
])
def test_cli_unparsable_input_is_usage_error(tmp_path, capsys, argv, content, message):
    """A file or string that cannot be read or parsed exits 2 with one JSON
    error line, whatever the parser raised; no traceback.  A JSON file
    without a key its reader needs is refused by the reader, which names
    the key."""
    f = tmp_path / "input.json"
    if isinstance(content, str):
        f.write_text(content)
    elif content is not None:
        f.write_text(json.dumps(content))
    assert main([str(f) if a == "FILE" else a for a in argv]) == 2
    error = _usage_error(capsys)
    if message.startswith("not a "):
        assert error == f"UsageError: {message}"
    else:
        assert error.startswith("UsageError: bad ") and message in error


@pytest.mark.parametrize("producer,consumer,message", [
    (["aseries", "2", "4", "--order", "2"], ["period", "--poly"],
     "not a Laurent polynomial: missing 'nvars', 'terms'"),
    (["lax", "2", "4"], ["pf-fit", "--max-order", "1", "--max-degree", "1", "--series"],
     "not a power series: missing 'var', 'trunc', 'coeffs'"),
])
def test_cli_wrong_input_file_names_missing_keys(tmp_path, capsys, producer, consumer, message):
    """One subcommand's output fed to another that reads a different kind
    of file: exit 2, and the error names what the file lacks."""
    code, doc = run_cli(producer, capsys)
    f = tmp_path / "input.json"
    f.write_text(json.dumps(doc))
    assert main(consumer + [str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"UsageError: {message}"


def test_cli_resource_cap(capsys):
    code = main(["aseries", "2", "4", "--order", str(MAX_ORDER + 1)])
    assert code == 2


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


def test_cli_non_integral_instanton_is_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_case", _raise(NonIntegralInstanton(3, Q(1, 2))))
    assert main(["instanton", "--case", "X113_G25"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("NonIntegralInstanton: instanton number n_3 = 1/2")


def test_cli_no_dependence_is_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(qh, "scalar_operator", _raise(NoDependence("no dependence")))
    assert main(["qh-operator", "2", "5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoDependence: no dependence"


def test_cli_qh_operator_certifies_its_operator(monkeypatch, capsys):
    """`qh-operator` prints no operator that fails to annihilate the A-series."""
    D, q = DOp.D(), DOp.z()
    wrong = (D**5 - 3 * q * (2 * D + 1)).canonical()  # G(2,4) has 2q, not 3q
    monkeypatch.setattr(qh, "scalar_operator", lambda k, n: wrong)
    assert main(["qh-operator", "2", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "NoDependence: computed operator for G(2,4) fails to annihilate "
        "the hypergeometric series to order 20")


def test_cli_pf_fit_no_annihilator_is_mismatch(tmp_path, capsys):
    """A fit that finds no operator is a mismatch (1), not a usage error (2)."""
    rng = random.Random(0)
    coeffs = [1] + [rng.randint(-1000, 1000) for _ in range(29)]
    f = tmp_path / "series.json"
    f.write_text(json.dumps({"var": "z", "trunc": 29, "coeffs": [str(c) for c in coeffs]}))
    code = main(["pf-fit", "--series", str(f), "--max-order", "1", "--max-degree", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("NoAnnihilator: no annihilator within bounds (1,1)")


@pytest.mark.parametrize("target,argv,exc", [
    ("run_case", ["instanton", "--case", "X113_G25"], AmbiguousAnnihilator("dimension 2")),
    ("run_case", ["instanton", "--case", "X113_G25"], NotMUM("not MUM")),
    ("scalar_operator", ["qh-operator", "2", "5"], InexactDivision("(2,) does not divide (0, 1)")),
])
def test_cli_failed_check_is_mismatch(monkeypatch, capsys, target, argv, exc):
    # `qh-operator` imports its stage from grasscy.qh when it runs
    monkeypatch.setattr(qh if target == "scalar_operator" else cli, target, _raise(exc))
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == f"{type(exc).__name__}: {exc}"


def test_cli_internal_fault_is_exit_1(monkeypatch, capsys):
    """A GrasscyError that is not a usage error, here a coefficient read past
    a truncation inside the chain, is a fault of the run: exit 1, not 2."""
    exc = TruncationError("coefficient of degree 13 beyond truncation 12")
    monkeypatch.setattr(cli, "run_case", _raise(exc))
    assert main(["instanton", "--case", "X113_G25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"TruncationError: {exc}"


def test_cli_instanton_count_beyond_kz_order(capsys):
    """count 12, past the five published numbers, reads K_z to order 12,
    the order of the K_z fixture."""
    code, out = run_cli(["instanton", "--case", "X113_G25", "--count", "12"], capsys)
    assert code == 0
    assert out["pass"] is True
    assert len(out["instantons"]) == 12
    assert out["instantons"][:5] == [540, 12555, 621315, 44892765, 3995437590]


def test_run_case_builds_kz_to_count(registry):
    """K_q reads K_z to count, so past the fixture order the report's K_z
    stops there."""
    assert run_case(registry["X4_G24"], 30).kz3.trunc == 30


def test_run_report_holds_no_timing(reports):
    """The report is a function of the registry case: every key is one of
    its deterministic facts."""
    for report in reports.values():
        assert sorted(report.to_json()) == [
            "case", "expected_Y", "expected_instantons", "expected_p", "hodge_Y", "instantons",
            "kz3", "kz3_fixture_match", "node_count", "operator", "pass"]


def test_cli_yukawa_fixture(capsys):
    code, out = run_cli(["yukawa", "--case", "X113_G25"], capsys)
    assert code == 0
    assert out["fixture_match"] is True
    assert out["kz3"]["trunc"] == 12


def test_cli_verify_all_deterministic():
    """Two runs print byte-identical reports."""

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "grasscy.cli", "verify-all", "--count", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        return proc.stdout

    out1, out2 = run(), run()
    assert out1 == out2
    r1 = json.loads(out1)
    assert r1["pass"] is True
    assert [c["case"] for c in r1["cases"]] == sorted(c["case"] for c in r1["cases"])


@pytest.mark.parametrize("argv", [["verify-all"], ["lax", "2", "4"]])
def test_cli_closed_stdout_ends_quietly(argv):
    """Output to a reader that has exited ends the run with 128 + SIGPIPE
    and nothing on stderr: not a traceback, and not 1, which is a mismatch."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "grasscy.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b"")
    assert cli.EXIT_PIPE == 141
