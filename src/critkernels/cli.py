"""Command-line front end: batch evaluation, CSV/JSON artifacts, checks.

Every subcommand writes one data file and one JSON report next to it
(``<out>.report.json``).  The report records the inputs, every check
that was run with its value and tolerance, and the package versions.
Exit status: 0 if all checks pass, 1 if any check fails (the report is
still written), 2 on configuration errors.  A configuration error found
once the options are parsed also writes the report, with the options
and an ``error`` string in place of the checks, and no data file.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .errors import CritKernelsError, _finite

_CSV_FMT = "{:.17g}"
_AI_8 = 4.6922076160992316e-08      # Ai(8), float(mpmath.airyai(8.0))
# what exits 2: `_output` writes the report and raises a click.UsageError
_CONFIG_ERRORS = (CritKernelsError, ValueError, click.UsageError)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.rsplit(":", 2)
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise click.UsageError(f"bad grid spec {spec!r}; expected min:max:count")
    if count < 2:
        raise click.UsageError("grid count must be >= 2")
    _finite(grid_min=lo, grid_max=hi)
    return np.linspace(lo, hi, count)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_CSV_FMT.format(v) for v in row) + "\n")


def _emit(command: str, params: dict, checks: list[dict],
          out: str, fmt: str, header: list[str], rows, **extra) -> None:
    """Write the data file and the report, echo the checks, exit 1 on a failure.

    Extra keyword fields, such as ``diagnostics``, go into the report.
    """
    if fmt == "csv":
        _write_csv(out, header, rows)
    else:
        data = [dict(zip(header, row)) for row in rows]
        with open(out, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    _write_report(out, command, params, checks=checks, **extra)
    for ck in checks:
        status = "pass" if ck["pass"] else "FAIL"
        click.echo(f"[{status}] {ck['name']} = {ck['value']:.6g} "
                   f"(tol {ck['tolerance']:g})")
    if not all(ck["pass"] for ck in checks):
        sys.exit(1)


def _write_report(out: str, command: str, params: dict, **outcome) -> None:
    """<out>.report.json: command, params, the outcome fields, versions.

    The mpmath version is recorded if the command loaded mpmath.
    """
    versions = {"critkernels": __version__, "numpy": np.__version__}
    if "mpmath" in sys.modules:
        versions["mpmath"] = sys.modules["mpmath"].__version__
    report = {"command": command, "params": params, **outcome,
              "versions": versions}
    with open(out + ".report.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(abs(value) <= tolerance)}


def _output(default: str):
    """The --out and --format options of a subcommand writing ``default``.

    A configuration error inside the subcommand writes the report with
    the error and leaves as a click.UsageError, which exits 2.
    """
    out = click.option("--out", default=default, show_default=True)
    fmt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                       default="csv")

    def wrap(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            try:
                return fn(**kwargs)
            except _CONFIG_ERRORS as exc:
                params = {k.rstrip("_"): v for k, v in kwargs.items()
                          if k not in ("out", "fmt")}
                command = click.get_current_context().info_name
                _write_report(kwargs["out"], command, params, error=str(exc))
                raise click.UsageError(str(exc)) from exc

        return out(fmt(run))

    return wrap


@click.group()
def main() -> None:
    """Critical kernels of the quartic/quadratic two-matrix model."""


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--tau", type=float, required=True)
@_output("phase.csv")
def phase(alpha: float, tau: float, out: str, fmt: str) -> None:
    """Classify the (alpha, tau) point in the phase diagram."""
    from . import surface

    label = surface.classify_phase(alpha, tau)
    p = surface.SurfaceParams.from_alpha_tau(alpha, tau)
    click.echo(label)
    checks = [_check("gamma_positive", 0.0 if p.gamma > 0 else 1.0, 0.5)]
    _emit("phase", {"alpha": alpha, "tau": tau, "phase": label}, checks,
          out, fmt, ["alpha", "tau", "gamma", "c"],
          [(alpha, tau, p.gamma, p.c)])


@main.command()
@click.option("--measure", type=click.Choice(["mu1", "mu2", "mu3", "sigma2"]),
              default="mu1", show_default=True)
@click.option("--alpha", type=float, required=True)
@click.option("--tau", type=float, required=True)
@click.option("--grid", default="-3.0:3.0:200", show_default=True)
@_output("density.csv")
def density(measure: str, alpha: float, tau: float, grid: str,
            out: str, fmt: str) -> None:
    """Equilibrium-measure density on a grid."""
    from . import measures, surface

    p = surface.SurfaceParams.from_alpha_tau(alpha, tau)
    xs = _parse_grid(grid)
    # outside its support a measure has density 0
    inside = {"mu1": np.abs(xs) < p.c, "mu3": xs != 0.0}.get(
        measure, np.ones(len(xs), dtype=bool))
    fn = {"mu1": lambda x: measures.density_mu1(x, p),
          "mu2": lambda x: measures.density_mu2(x, p),
          "mu3": lambda x: measures.density_mu3(x, p),
          "sigma2": lambda x: measures.sigma2_density(x, alpha, tau)}[measure]
    vals = np.zeros(len(xs))
    vals[inside] = fn(xs[inside])
    rows = list(zip(xs.tolist(), vals.tolist()))
    checks = [_check("values_finite", 0.0 if np.all(np.isfinite(vals)) else 1.0,
                     0.5),
              _check("nonnegative", max(0.0, -float(vals.min())), 0.0)]
    _emit("density", {"measure": measure, "alpha": alpha, "tau": tau,
                      "grid": grid}, checks, out, fmt, ["x", "density"], rows)


@main.command()
@click.option("--grid", default="-8.0:8.0:161", show_default=True)
@_output("hm.csv")
def hm(grid: str, out: str, fmt: str) -> None:
    """Hastings-McLeod solution q, q', u on a grid."""
    from . import painleve

    sol = painleve.default_solution()
    xs = _parse_grid(grid)
    rows = [(float(x),) + tuple(sol(float(x))) for x in xs]
    # residual of q'' = sigma q + 2 q^3 with the solver's own second derivative
    sig = np.linspace(max(xs[0], -8.0), min(xs[-1], 8.0), 33)
    q = np.array([sol.q(x) for x in sig])
    resid = np.max(np.abs(sol.qsecond(sig) - (sig * q + 2.0 * q ** 3)))
    checks = [
        _check("pii_residual", resid, 1e-5),
        _check("airy_match_at_8", sol.q(8.0) / _AI_8 - 1.0, 1e-4),
    ]
    _emit("hm", {"grid": grid}, checks, out, fmt,
          ["sigma", "q", "qprime", "u"], rows)


@main.command("lax-check")
@click.option("--s", "s_", type=float, default=0.3, show_default=True)
@click.option("--t", "t_", type=float, default=-0.2, show_default=True)
@_output("lax-check.csv")
def lax_check(s_: float, t_: float, out: str, fmt: str) -> None:
    """Compatibility of the 4x4 Lax pair at (s, t)."""
    from . import laxpair

    zetas = (0.7 + 0.4j, -1.1 + 0.9j, 2.0j)
    comp = max(laxpair.compatibility_residual(z, s_, t_) for z in zetas)
    idents = laxpair.identity_residuals(s_, t_)
    worst = max(idents.values())
    rows = [(s_, t_, comp, worst)]
    checks = [_check("compatibility", comp, 1e-6),
              _check("scalar_identities", worst, 1e-6)]
    _emit("lax-check", {"s": s_, "t": t_}, checks, out, fmt,
          ["s", "t", "compatibility", "identities"], rows)


@main.command("rh-check")
@click.option("--s", "s_", type=float, default=0.0, show_default=True)
@click.option("--t", "t_", type=float, default=0.0, show_default=True)
@click.option("--r0", type=float, default=14.0, show_default=True)
@_output("rh-check.csv")
def rh_check(s_: float, t_: float, r0: float, out: str, fmt: str) -> None:
    """Jump and determinant residuals of the 4x4 model RH solution."""
    from . import rhsolver

    solver = rhsolver.get_solver(s_, t_, r0=r0)
    jump = max(solver.jump_residual(ray, rad)
               for ray in range(10) for rad in (2.0, 3.0))
    det = max(abs(solver.det_m(z) - 1.0)
              for z in (1.0 + 0.5j, -2.0 + 1.0j, 1.5j))
    diagnostics = {"fit_condition": solver.fit_condition,
                   "matching_residual": max(map(solver.matching_residual, range(10))),
                   "taylor_steps": solver.taylor_steps, "taylor_passes": solver.taylor_passes}
    rows = [(s_, t_, jump, det)]
    checks = [_check("jump_residual", jump, 1e-4),
              _check("det_minus_one", det, 1e-6)]
    _emit("rh-check", {"s": s_, "t": t_, "r0": r0}, checks, out, fmt,
          ["s", "t", "jump_residual", "det_residual"], rows, diagnostics=diagnostics)


@main.command()
@click.option("--which", type=click.Choice(["cr", "tac", "pii"]), required=True)
@click.option("--u", "u_", type=float, required=True)
@click.option("--v", "v_", type=float, required=True)
@click.option("--s", "s_", type=float, default=0.0, show_default=True)
@click.option("--t", "t_", type=float, default=0.0, show_default=True)
@click.option("--r", "r_", type=float, default=1.0, show_default=True)
@click.option("--nu", type=float, default=0.0, show_default=True)
@_output("kernel.csv")
def kernel(which: str, u_: float, v_: float, s_: float, t_: float,
           r_: float, nu: float, out: str, fmt: str) -> None:
    """One kernel value K(u, v); the diagonal when u == v."""
    from . import kernels

    if which == "cr":
        val = kernels.kernel_cr(u_, v_, s_, t_)
        params = {"which": which, "u": u_, "v": v_, "s": s_, "t": t_}
    elif which == "tac":
        val = kernels.kernel_tac(u_, v_, r_, s_)
        params = {"which": which, "u": u_, "v": v_, "r": r_, "s": s_}
    else:
        val = kernels.kernel_pii(u_, v_, nu)
        params = {"which": which, "u": u_, "v": v_, "nu": nu}
    click.echo(_CSV_FMT.format(val.real))
    checks = [_check("imaginary_part", val.imag, 1e-5 * max(1.0, abs(val.real)))]
    _emit("kernel", params, checks, out, fmt,
          ["u", "v", "value", "imag"], [(u_, v_, val.real, val.imag)])


@main.command("asym-check")
@click.option("--which", type=click.Choice(["cr", "tac"]), required=True)
@click.option("--s", "s_", type=float, default=0.3, show_default=True)
@click.option("--t", "t_", type=float, default=-0.2, show_default=True)
@click.option("--r", "r_", type=float, default=1.0, show_default=True)
@click.option("--grid", default="15:30:31", show_default=True)
@_output("asym-check.csv")
def asym_check(which: str, s_: float, t_: float, r_: float, grid: str,
               out: str, fmt: str) -> None:
    """Large-u expansion residuals of the kernel diagonal."""
    from . import kernels

    us = _parse_grid(grid)
    if which == "cr":
        d = kernels.kernel_cr_diag(us, s_, t_).real
        asym = kernels.cr_diag_asym(us, s_, t_)
        params = {"which": which, "s": s_, "t": t_, "grid": grid}
    else:
        d = kernels.kernel_tac_diag(us, r_, s_).real
        asym = kernels.tac_diag_asym(us, r_, s_)
        params = {"which": which, "r": r_, "s": s_, "grid": grid}
    resid = (d - asym) * us ** 1.5
    rows = list(zip(us, d, asym, resid))
    checks = [_check("scaled_residual", float(np.max(np.abs(resid))), 0.5)]
    _emit("asym-check", params, checks, out, fmt,
          ["u", "diag", "expansion", "scaled_residual"], rows)


@main.command("double-scaling")
@click.option("--a", "a_", type=float, required=True)
@click.option("--sigma", type=float, required=True)
@click.option("--u", "x_", type=float, default=-0.5, show_default=True)
@click.option("--v", "y_", type=float, default=0.7, show_default=True)
@_output("double-scaling.csv")
def double_scaling(a_: float, sigma: float, x_: float, y_: float,
                   out: str, fmt: str) -> None:
    """Gap between the rescaled critical kernel and K_PII."""
    from .dscale import _ds_for, double_scaling_gap

    gap = double_scaling_gap(a_, sigma, x_, y_)
    ds = _ds_for(a_, sigma, (x_, y_))        # the evaluator the gap built, from its cache
    diagnostics = {"gmres_iterations": ds.gmres_iterations, "resid_norm": ds.resid_norm,
                   "ntot": ds.ntot, "eps": ds.eps}
    rows = [(a_, sigma, x_, y_, gap)]
    checks = [_check("gap_below_unity", gap, 1.0)]
    _emit("double-scaling", {"a": a_, "sigma": sigma, "x": x_, "y": y_},
          checks, out, fmt, ["a", "sigma", "x", "y", "gap"], rows, diagnostics=diagnostics)


@main.command("finite-n")
@click.option("--n", "n_", type=int, required=True)
@click.option("--alpha", type=float, default=-1.0, show_default=True)
@click.option("--tau", type=float, default=1.0, show_default=True)
@click.option("--precision-bits", type=int, default=None)
@_output("finite-n.csv")
def finite_n(n_: int, alpha: float, tau: float, precision_bits: int | None,
             out: str, fmt: str) -> None:
    """Zeros of p_{n,n} and their distance to the limiting measure."""
    from . import finiten

    fam = finiten.biorthogonal(
        finiten.bimoment_matrix(n_, alpha, tau, precision_bits=precision_bits))
    zeros = finiten.polynomial_zeros(fam)
    dist = finiten.zero_counting_kolmogorov(fam)
    rows = [(float(z.real), float(z.imag)) for z in zeros]
    checks = [
        _check("max_imag_zero", float(np.max(np.abs(zeros.imag))), 1e-10),
        _check("kolmogorov_mu1", dist, 0.15),
    ]
    _emit("finite-n", {"n": n_, "alpha": alpha, "tau": tau,
                       "precision_bits": fam.precision_bits},
          checks, out, fmt, ["zero_re", "zero_im"], rows)


if __name__ == "__main__":
    main()
