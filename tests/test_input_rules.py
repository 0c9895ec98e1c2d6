"""Each input rule is checked by one function, so every entry point that
shares the rule refuses the same bad input with the same message: the
library functions with a UsageError, the commands with exit 2 and one JSON
error line on stderr."""

import json

import pytest

from grasscy.cli import main
from grasscy.dop import DOp, pf_fit
from grasscy.errors import UsageError
from grasscy.hypergeom import (
    MAX_ORDER,
    MAX_TERMS,
    a_series,
    a_series_qspecialized,
    a_series_terms,
    check_order,
    factorial_trick,
)
from grasscy.laurent import LaurentPoly, ct_of_product
from grasscy.laxmirror import (
    canonical_gauge_coeffs,
    lax_operator,
    mirror_period,
    mirror_system,
    period_ct,
)
from grasscy.mirror_analysis import frobenius, yukawa_z
from grasscy.pipeline import run_case
from grasscy.qh import build_qh_matrix, verify_conjecture
from grasscy.series import PowerSeries, Q
from grasscy.registry import RegistryCase, registry_load
from grasscy.toric import VERTEX_ENTRY_BOUND, build_delta

from support import int_digit_cap


D, z = DOp.D(), DOp.z()
QUINTIC = D**4 - 5 * z * (5 * D + 1) * (5 * D + 2) * (5 * D + 3) * (5 * D + 4)


def _refusal(capsys, entry) -> str:
    """The message with which `entry`, a callable or a command line, refuses
    its input."""
    if callable(entry):
        with pytest.raises(UsageError) as exc:
            entry()
        return str(exc.value)
    assert main(entry) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return json.loads(captured.err)["error"]


@pytest.mark.parametrize("entry", [
    pytest.param(lambda: a_series(0, 3, 5), id="a_series"),
    pytest.param(lambda: a_series_terms(0, 3, 5), id="a_series_terms"),
    pytest.param(lambda: a_series_qspecialized(0, 3, 5), id="a_series_qspecialized"),
    pytest.param(lambda: lax_operator(0, 3), id="lax_operator"),
    pytest.param(lambda: build_delta(0, 3), id="build_delta"),
    pytest.param(lambda: canonical_gauge_coeffs(0, 3), id="canonical_gauge_coeffs"),
    pytest.param(lambda: mirror_system(0, 3, (3,), ((1, 2, 3),), {}, {}), id="mirror_system"),
    pytest.param(lambda: build_qh_matrix(0, 3), id="build_qh_matrix"),
    pytest.param(lambda: verify_conjecture(0, 3, 5), id="verify_conjecture"),
    pytest.param(["aseries", "0", "3"], id="cli-aseries"),
    pytest.param(["aseries", "0", "3", "--keep-params"], id="cli-aseries-keep-params"),
    pytest.param(["phi", "0", "3", "--degrees", "3"], id="cli-phi"),
    pytest.param(["lax", "0", "3"], id="cli-lax"),
    pytest.param(["verify-conjecture", "0", "3"], id="cli-verify-conjecture"),
    pytest.param(["mirror-system", "0", "3", "--degrees", "3"], id="cli-mirror-system"),
])
def test_shape_rule(capsys, entry):
    assert _refusal(capsys, entry).endswith("need 1 <= k < n, got (0,3)")


@pytest.mark.parametrize("order,message", [
    (-1, "order must be >= 0, got -1"),
    (MAX_ORDER + 1, f"order {MAX_ORDER + 1} exceeds resource cap {MAX_ORDER}"),
])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda o: a_series(2, 4, o), id="a_series"),
    pytest.param(lambda o: a_series_terms(2, 4, o), id="a_series_terms"),
    pytest.param(lambda o: a_series_qspecialized(2, 4, o), id="a_series_qspecialized"),
    pytest.param(lambda o: verify_conjecture(2, 4, o), id="verify_conjecture"),
    pytest.param(lambda o: period_ct(lax_operator(2, 4), 1, o), id="period_ct"),
    pytest.param(lambda o: mirror_period(mirror_system(2, 4, (4,), ((1, 2, 3, 4),),
                                                       *canonical_gauge_coeffs(2, 4)), o),
                 id="mirror_period"),
    pytest.param(lambda o: frobenius(QUINTIC, o), id="frobenius"),
    pytest.param(lambda o: yukawa_z(QUINTIC, 5, o), id="yukawa_z"),
    pytest.param(["aseries", "2", "4", "--order"], id="cli-aseries"),
    pytest.param(["aseries", "2", "4", "--keep-params", "--order"], id="cli-aseries-keep-params"),
    pytest.param(["phi", "2", "4", "--degrees", "4", "--order"], id="cli-phi"),
    pytest.param(["verify-conjecture", "2", "4", "--order"], id="cli-verify-conjecture"),
    pytest.param(["yukawa", "--case", "X4_G24", "--order"], id="cli-yukawa"),
])
def test_order_rule(capsys, entry, order, message):
    if callable(entry):
        refusal = _refusal(capsys, lambda: entry(order))
    else:
        refusal = _refusal(capsys, entry + [str(order)])
    assert refusal.endswith(message)


@pytest.mark.parametrize("count,message", [
    (0, "count must be >= 1, got 0"),
    (MAX_ORDER + 1, f"count {MAX_ORDER + 1} exceeds resource cap {MAX_ORDER}"),
])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda c: run_case(registry_load()["X1111111_G27"], c), id="run_case"),
    pytest.param(["instanton", "--case", "X1111111_G27", "--count"], id="cli-instanton"),
    pytest.param(["verify-all", "--count"], id="cli-verify-all"),
])
def test_count_rule(capsys, monkeypatch, entry, count, message):
    """The instanton count is refused before any stage runs."""
    monkeypatch.setattr("grasscy.pipeline.fit_operator", lambda case: pytest.fail("a stage ran"))
    if callable(entry):
        refusal = _refusal(capsys, lambda: entry(count))
    else:
        refusal = _refusal(capsys, entry + [str(count)])
    assert refusal.endswith(message)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda c: run_case(registry_load()["X1111111_G27"], c), id="run_case"),
    pytest.param(["instanton", "--case", "X1111111_G27", "--count"], id="cli-instanton"),
    pytest.param(["verify-all", "--count"], id="cli-verify-all"),
])
def test_count_at_the_cap_runs(capsys, monkeypatch, entry):
    """The count MAX_ORDER reaches every stage, and no stage refuses the
    order it derives from it.  The two stages that take seconds there are
    stubs; the stubbed K_q gives zeros, not the published numbers."""
    monkeypatch.setattr("grasscy.pipeline.mirror_map", lambda fp: None)
    monkeypatch.setattr("grasscy.pipeline.yukawa_q",
                        lambda kz3, fp, maps: PowerSeries("q", (Q(0),) * (MAX_ORDER + 1)))
    if callable(entry):
        assert entry(MAX_ORDER).instantons == [0] * MAX_ORDER
    else:
        assert main(entry + [str(MAX_ORDER)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and '"pass": false' in captured.out


@pytest.mark.parametrize("entry,where", [
    (lambda: factorial_trick(PowerSeries("q", (1, 1)), (1, 0, 4)), "degrees (1, 0, 4)"),
    (lambda: RegistryCase("X", 2, 5, (1, 0, 4), (1, 1), 1, 76, (3, 72, -138), 6, (1,), (1,), 1),
     "X"),
    (["phi", "2", "5", "--degrees", "1,0,4"], "bad --degrees '1,0,4'"),
    (["mirror-system", "2", "5", "--degrees", "1,0,4"], "bad --degrees '1,0,4'"),
], ids=["factorial_trick", "RegistryCase", "cli-phi", "cli-mirror-system"])
def test_degrees_rule(capsys, entry, where):
    assert _refusal(capsys, entry).endswith(f"{where}: every degree must be >= 1")


@pytest.mark.parametrize("entry", [
    pytest.param(lambda: a_series(1000, 2000, 1), id="a_series"),
    pytest.param(lambda: a_series_qspecialized(1000, 2000, 1), id="a_series_qspecialized"),
    pytest.param(["aseries", "1000", "2000", "--order", "1"], id="cli-aseries"),
    pytest.param(["phi", "1000", "2000", "--degrees", "1", "--order", "1"], id="cli-phi"),
])
def test_transfer_size_rule(capsys, entry):
    assert _refusal(capsys, entry).endswith(
        f"transfer weights of G(1000,2000) to order 1 exceed the resource cap {MAX_TERMS}")


LINE = LaurentPoly(2, {(1, 0): Q(1), (-1, 0): Q(1)})  # x + 1/x


@pytest.mark.parametrize("factors,message", [
    ([], "need at least one factor"),
    ([(LINE, 1), (LaurentPoly(3, {(1, 0, 0): Q(1)}), 2)], "factors must have one nvars, got 2, 3"),
    ([(LINE, 1), (LINE, 0)], "weight must be an int >= 1, got 0"),
    ([(LINE, -2)], "weight must be an int >= 1, got -2"),
    ([(LINE, Q(3, 2))], "weight must be an int >= 1, got 3/2"),
    ([(LINE, 2.0)], "weight must be an int >= 1, got 2.0"),
], ids=["no-factors", "nvars", "zero-weight", "negative-weight", "fraction-weight",
        "float-weight"])
def test_product_form_rule(monkeypatch, factors, message):
    """The factors of `ct_of_product` are refused before the echelon."""
    monkeypatch.setattr("grasscy.laurent.echelon", lambda rows: pytest.fail("echelon reached"))
    assert _refusal(None, lambda: ct_of_product(factors, {2})).endswith(message)


@pytest.mark.parametrize("k,n,count", [
    (6, 12, "2232"),
    (1, 2000, "3998000"),  # lax_operator(1, 2000) alone would take 75 MB
    (1, 10**9, f"at least {10**9}"),  # refused before the count is formed
])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda k, n: lambda: build_delta(k, n), id="build_delta"),
    pytest.param(lambda k, n: lambda: lax_operator(k, n), id="lax_operator"),
    pytest.param(lambda k, n: lambda: canonical_gauge_coeffs(k, n), id="canonical_gauge_coeffs"),
    pytest.param(lambda k, n: lambda: mirror_system(k, n, (n,), (range(1, n + 1),), {}, {}),
                 id="mirror_system"),
    pytest.param(lambda k, n: ["lax", str(k), str(n)], id="cli-lax"),
    pytest.param(lambda k, n: ["mirror-system", str(k), str(n), "--degrees", str(n)],
                 id="cli-mirror-system"),
])
def test_vertex_entry_rule(capsys, entry, k, n, count):
    """Each refuses Delta(k,n) past the bound before it builds anything on
    its vertices."""
    assert _refusal(capsys, entry(k, n)).endswith(
        f"Delta({k},{n}) has {count} vertex entries, more than the bound {VERTEX_ENTRY_BOUND}")


@pytest.mark.parametrize("entry,message", [
    (lambda: lax_operator(1, 10**5000), "Delta(1,{n}) has at least {n} vertex entries"),
    (lambda: a_series(10**5000, 3, 1), "need 1 <= k < n, got ({n},3)"),
    (lambda: check_order(10**5000), "order {n} exceeds resource cap"),
    (lambda: period_ct(lax_operator(2, 4), 10**5000, 3), "nparams must be 1, got {n}"),
    (lambda: ct_of_product([(LINE, -10**5000)], {1}), "weight must be an int >= 1, got {n}"),
    (lambda: pf_fit(PowerSeries("z", (1,) * 30), max_order=10**5000, max_zdeg=1),
     "too small for bounds ({n},1)"),
], ids=["lax_operator", "a_series", "check_order", "period_ct", "ct_of_product", "pf_fit"])
def test_a_huge_integer_is_named_by_its_size(entry, message):
    """An int past 1024 bits is named by its size, so that it is refused
    with a UsageError also under the interpreter's default cap of 4300
    digits, which 10^5000 passes."""
    with int_digit_cap(4300):
        refusal = _refusal(None, entry)
    assert message.format(n="<an int of 16610 bits>") in refusal
