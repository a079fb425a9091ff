"""Tests for the command-line interface."""

import json
import os

import pytest
from click.testing import CliRunner

from critkernels.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, tmp_path, args):
    out = tmp_path / "data.csv"
    result = runner.invoke(main, args + ["--out", str(out)])
    report = out.with_name(out.name + ".report.json")
    return result, out, report


def test_phase_multicritical(runner, tmp_path):
    # [PAPER] the multi-critical point is classified as such
    result, out, report = _run(runner, tmp_path,
                               ["phase", "--alpha", "-1", "--tau", "1"])
    assert result.exit_code == 0, result.output
    assert "Multicritical" in result.output
    assert out.exists() and report.exists()


def test_phase_refused_gamma_exit_2(runner, tmp_path):
    # [TRIVIAL] where gamma's cubic has three positive roots the command
    # prints no phase label, exits 2 and writes the report naming the point
    result, _, report = _run(runner, tmp_path,
                             ["phase", "--alpha", "10", "--tau", "4"])
    assert result.exit_code == 2, result.output
    assert "Case" not in result.output
    assert "alpha = 10.0, tau = 4.0" in json.loads(report.read_text())["error"]


def test_density_grid(runner, tmp_path):
    # [PAPER] mu1 density CSV: requested row count, near-zero endpoints
    result, out, report = _run(
        runner, tmp_path,
        ["density", "--measure", "mu1", "--alpha", "-1", "--tau", "1",
         "--grid", "-3.1:3.1:50"])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 51
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert abs(first) < 1e-6 and abs(last) < 1e-6


@pytest.mark.parametrize("measure,grid,zero_at", [
    ("mu1", "4:5:3", [4.0, 4.5, 5.0]),
    ("mu3", "-1:1:3", [0.0]),
], ids=["mu1-outside-support", "mu3-through-origin"])
def test_density_zero_outside_support(runner, tmp_path, measure, grid, zero_at):
    # [TRIVIAL] grid points outside the support, all of them or only x = 0
    # for mu3, are written as density 0 and the command succeeds
    result, out, _ = _run(
        runner, tmp_path,
        ["density", "--measure", measure, "--alpha", "-1", "--tau", "1",
         "--grid", grid])
    assert result.exit_code == 0, result.output
    rows = [tuple(map(float, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for x, rho in rows:
        assert (rho == 0.0) == (x in zero_at)


def test_hm_pii_residual_from_second_derivative(runner, tmp_path):
    # [DERIVED] the reported residual of q'' = sigma q + 2 q^3 sees the
    # solution's own error (~1e-13), not that of a finite difference
    result, _, report = _run(runner, tmp_path, ["hm", "--grid", "-8:8:161"])
    assert result.exit_code == 0, result.output
    checks = {ck["name"]: ck for ck in json.loads(report.read_text())["checks"]}
    assert checks["pii_residual"]["value"] < 1e-12
    assert checks["pii_residual"]["tolerance"] == 1e-5


def test_pinned_airy_value_is_mpmath_ai8():
    # [TRIVIAL] the Ai(8) that hm's airy_match_at_8 divides by is
    # mpmath's, bit for bit
    import mpmath

    from critkernels import cli
    assert cli._AI_8 == float(mpmath.airyai(8.0))


@pytest.mark.parametrize("which", ["cr", "tac", "pii"])
def test_kernel_diagonal_dispatch(runner, tmp_path, which):
    # [TRIVIAL] u == v gives the library's diagonal value
    from critkernels import kernels

    opts, diag = {
        "cr": (["--s", "0", "--t", "0"],
               lambda: kernels.kernel_cr_diag(1.0, 0.0, 0.0)),
        "tac": (["--r", "1", "--s", "0.3"],
                lambda: kernels.kernel_tac_diag(1.0, 1.0, 0.3)),
        "pii": (["--nu", "1"], lambda: kernels.kernel_pii_diag(1.0, 1.0)),
    }[which]
    result, out, _ = _run(
        runner, tmp_path,
        ["kernel", "--which", which, *opts, "--u", "1.0", "--v", "1.0"])
    assert result.exit_code == 0, result.output
    printed = float(result.output.splitlines()[0])
    assert abs(printed - diag().real) < 1e-12


def test_report_schema(runner, tmp_path):
    # [TRIVIAL] report carries command, params, checks, versions
    result, out, report = _run(runner, tmp_path, ["hm", "--grid", "-2:2:21"])
    assert result.exit_code == 0, result.output
    doc = json.loads(report.read_text())
    assert doc["command"] == "hm"
    assert set(doc) == {"command", "params", "checks", "versions"}
    for ck in doc["checks"]:
        assert set(ck) == {"name", "value", "tolerance", "pass"}
    assert "critkernels" in doc["versions"]


def test_csv_deterministic(runner, tmp_path):
    # [TRIVIAL] identical config gives byte-identical CSV
    args = ["density", "--measure", "sigma2", "--alpha", "-1", "--tau", "1",
            "--grid", "0.5:2.0:11"]
    _, out1, _ = _run(runner, tmp_path, args)
    data1 = out1.read_bytes()
    out2 = tmp_path / "again.csv"
    runner.invoke(main, args + ["--out", str(out2)])
    assert data1 == out2.read_bytes()
    assert b"\r" not in data1


def test_density_sign_change_fails_nonnegative(runner, tmp_path):
    # [DERIVED] at (-2, 1.5) the mu1 density of the modified surface dips
    # to -2038 on this grid: the command writes its data and report and
    # exits 1 on the nonnegative check; at (-1, 1) the check passes
    result, out, report = _run(runner, tmp_path,
                               ["density", "--measure", "mu1", "--alpha", "-2",
                                "--tau", "1.5", "--grid", "-3:3:61"])
    assert result.exit_code == 1, result.output
    assert out.exists()
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["values_finite"]["pass"] and not checks["nonnegative"]["pass"]
    result, out, report = _run(runner, tmp_path,
                               ["density", "--measure", "mu1", "--alpha", "-1",
                                "--tau", "1", "--grid", "-3.1:3.1:400"])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["nonnegative"]["pass"]


def test_config_error_exit_2(runner, tmp_path):
    # [TRIVIAL] bad grid and bad parameters exit 2
    result, _, _ = _run(runner, tmp_path,
                        ["density", "--measure", "mu1", "--alpha", "-1",
                         "--tau", "1", "--grid", "oops"])
    assert result.exit_code == 2
    result, _, _ = _run(runner, tmp_path,
                        ["finite-n", "--n", "7"])
    assert result.exit_code == 2
    result, _, _ = _run(runner, tmp_path,
                        ["double-scaling", "--a", "1.0", "--sigma", "0.5"])
    assert result.exit_code == 2
    for args in (["kernel", "--which", "tac", "--u", "-1", "--v", "1"],
                 ["kernel", "--which", "cr", "--u", "nan", "--v", "1"],
                 ["density", "--alpha", "-1", "--tau", "-1"],
                 ["hm", "--grid", "-20:20:5"],
                 ["double-scaling", "--a", "4", "--sigma", "0.5", "--u", "inf"],
                 ["density", "--measure", "mu2", "--alpha", "1", "--tau", "1"]):
        result, _, report = _run(runner, tmp_path, args)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        doc = json.loads(report.read_text())
        assert doc["command"] == args[0] and "error" in doc, args
        report.unlink()


@pytest.mark.parametrize("args,bad", [
    (["rh-check", "--s", "inf"], "s"),
    (["lax-check", "--s", "nan"], "s"),
    (["lax-check", "--t", "-inf"], "t"),
])
def test_non_finite_deformation_exit_2(runner, tmp_path, args, bad):
    # [TRIVIAL] a non-finite s or t is a configuration error naming it
    result, _, report = _run(runner, tmp_path, args)
    assert result.exit_code == 2, result.output
    assert json.loads(report.read_text())["error"].startswith(f"{bad} must be finite")


@pytest.mark.parametrize("r0,error", [("nan", "r0 must be finite"), ("inf", "r0 must be finite"),
                                      ("0", "r0 must be positive"), ("-3", "r0 must be positive")])
def test_rh_check_bad_r0_exit_2(runner, tmp_path, r0, error):
    # [TRIVIAL] a non-finite or non-positive anchor radius is a
    # configuration error naming r0, reported before any transport
    result, out, report = _run(runner, tmp_path, ["rh-check", "--s", "0", "--t", "0", "--r0", r0])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert json.loads(report.read_text())["error"].startswith(error)
    assert not out.exists()


@pytest.mark.parametrize("grid,bad", [("nan:1:3", "grid_min"), ("-1:inf:3", "grid_max"),
                                      ("-inf:1:3", "grid_min")])
@pytest.mark.parametrize("command", [
    ["density", "--measure", "mu1", "--alpha", "-1", "--tau", "1"], ["hm"],
    ["asym-check", "--which", "cr"],
], ids=["density", "hm", "asym-check"])
def test_non_finite_grid_exit_2(runner, tmp_path, command, grid, bad):
    # [TRIVIAL] a nan or inf grid bound is a configuration error naming
    # it, reported with no data file (density used to write rows at
    # x = nan or inf and exit 0)
    result, out, report = _run(runner, tmp_path, command + ["--grid", grid])
    assert result.exit_code == 2, result.output
    assert json.loads(report.read_text())["error"].startswith(f"{bad} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("args,bad", [
    (["finite-n", "--n", "6", "--alpha", "nan"], "alpha"),
    (["finite-n", "--n", "6", "--tau", "inf"], "tau"),
])
def test_finite_n_non_finite_exit_2(runner, tmp_path, args, bad):
    # [TRIVIAL] a non-finite alpha or tau is a configuration error naming it
    result, _, report = _run(runner, tmp_path, args)
    assert result.exit_code == 2, result.output
    assert json.loads(report.read_text())["error"].startswith(f"{bad} must be finite")


def test_finite_n_solves_zeros_once(runner, tmp_path, monkeypatch):
    # [TRIVIAL] the zeros and their Kolmogorov distance share one solve
    # of the zeros, the one the family keeps
    from critkernels import finiten

    calls = []
    solve_zeros = finiten._solve_zeros

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_zeros(*args, **kwargs)

    monkeypatch.setattr(finiten, "_solve_zeros", counted)
    result, out, report = _run(runner, tmp_path, ["finite-n", "--n", "6"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 7


def test_config_error_writes_report(runner, tmp_path):
    # [TRIVIAL] a configuration error still writes the report, with the
    # command, its parameters and the error in place of checks
    result, out, report = _run(runner, tmp_path,
                               ["kernel", "--which", "tac", "--u", "-1",
                                "--v", "1"])
    assert result.exit_code == 2, result.output
    doc = json.loads(report.read_text())
    assert doc["command"] == "kernel"
    assert doc["params"]["which"] == "tac" and doc["params"]["u"] == -1.0
    assert "kernel_tac requires u, v > 0" in doc["error"]
    assert not out.exists()


def test_lax_check_passes(runner, tmp_path):
    result, out, report = _run(runner, tmp_path, ["lax-check"])
    assert result.exit_code == 0, result.output
    doc = json.loads(report.read_text())
    assert all(ck["pass"] for ck in doc["checks"])


@pytest.mark.slow
def test_asym_check_cr(runner, tmp_path):
    result, out, _ = _run(runner, tmp_path,
                          ["asym-check", "--which", "cr", "--grid", "15:30:16"])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert len(lines) == 17


def test_double_scaling_report_diagnostics(runner, tmp_path):
    # [TRIVIAL] the double-scaling report carries the solve's diagnostics,
    # read from the cached evaluator the gap was computed with
    from critkernels.dscale import _ds_for

    result, _, report = _run(runner, tmp_path, ["double-scaling", "--a", "4", "--sigma", "0.5"])
    assert result.exit_code == 0, result.output
    ds = _ds_for(4.0, 0.5, (-0.5, 0.7))
    assert json.loads(report.read_text())["diagnostics"] == {
        "gmres_iterations": ds.gmres_iterations, "resid_norm": ds.resid_norm,
        "ntot": 704, "eps": ds.eps}
    assert 5 <= ds.gmres_iterations <= 20 and ds.resid_norm <= 1e-9


def test_rh_check_report_diagnostics(runner, tmp_path):
    # [DERIVED] the rh-check report carries the chain fit's condition
    # number, the largest matching residual and the Taylor counters of the
    # solver it read; the fit is well conditioned at (0, 0) and not at
    # (3, 0), where K_cr is known to be wrong (ROADMAP item 1)
    from critkernels.rhsolver import get_solver

    conditions = []
    for s, t in ((0.0, 0.0), (3.0, 0.0)):
        result, _, report = _run(runner, tmp_path, ["rh-check", "--s", str(s), "--t", str(t)])
        assert result.exit_code in (0, 1) and "Traceback" not in result.output
        solver = get_solver(s, t)
        assert json.loads(report.read_text())["diagnostics"] == {
            "fit_condition": solver.fit_condition,
            "matching_residual": max(solver.matching_residual(k) for k in range(10)),
            "taylor_steps": solver.taylor_steps, "taylor_passes": solver.taylor_passes}
        conditions.append(solver.fit_condition)
    assert conditions[0] < 10.0 and conditions[1] > 1e9
