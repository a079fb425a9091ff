"""In-memory spans around the public entry points of critkernels.

The library is not edited: `install()` puts an import hook in front of
the path finder, and every critkernels module named in `ENTRIES` has its
entry points wrapped right after the module body runs, before any other
module can bind them with ``from .x import f``.  Modules the process
never imports are never loaded for tracing, so a CLI subcommand pays
only for the modules it uses.

A span is ``[name, start, end, parent, info]``; ``info`` holds counts
read from the call's arguments or its returned object (points passed,
contour nodes, GMRES residual, tail estimates, precision retries).
Spans stay in memory until `summary()` folds them into per-entry
statistics at the end of the process.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import math
import statistics
import sys
import time

import workloads

# module -> entry points; "Class.method" wraps the method on the class.
ENTRIES = {
    "painleve": ("solve_hastings_mcleod",),
    "series": ("build_series",),
    "laxpair": ("lax_coefficients", "lax_matrices", "compatibility_residual",
                "identity_residuals"),
    "rhsolver": ("RhSolver.__init__", "RhSolver.m_balanced",
                 "RhSolver.jump_residual", "RhSolver.det_m",
                 "RhSolver.hm_extract"),
    "kernels": ("kernel_cr", "kernel_cr_diag", "kernel_tac", "kernel_tac_diag",
                "kernel_pii", "kernel_pii_diag"),
    "piisolver": ("PiiSolver.__init__", "PiiSolver.psi"),
    "dscale": ("DoubleScaling.__init__", "DoubleScaling.kernel",
               "double_scaling_gap"),
    "surface": ("xi_branches", "theta_branches", "xi_sheet_on_path",
                "cubic_sheet_on_path"),
    "measures": ("mass_mu1", "mass_mu2", "mass_mu3", "density_mu1",
                 "density_mu2", "density_mu3"),
    "finiten": ("bimoment_matrix", "biorthogonal", "polynomial_zeros",
                "zero_counting_kolmogorov", "kernel_n"),
}

CLI_COMMANDS = tuple(line.split()[0] for line in workloads.CLI_README)
KERNEL_SPANS = tuple(f"kernels.{e}" for e in ENTRIES["kernels"])


def span_name(module: str, entry: str) -> str:
    """Metric prefix of an entry: methods keep their class only for __init__."""
    cls, _, meth = entry.rpartition(".")
    return f"{module}.{entry}" if meth == "__init__" else f"{module}.{meth}"


def _size(value) -> int:
    shape = getattr(value, "shape", ())
    return math.prod(shape) if shape else 1


def _info(name: str, args, result) -> dict | None:
    """Counts taken from a finished call's arguments or result."""
    if name == "rhsolver.m_balanced":
        return {"points": len(args[1])}
    if name in ("surface.xi_sheet_on_path", "surface.cubic_sheet_on_path"):
        return {"points": len(args[0])}
    if name in KERNEL_SPANS:
        return {"entries": _size(result)}
    if name == "piisolver.PiiSolver.__init__":
        return {"nu": repr(args[0].nu)}
    if name == "dscale.DoubleScaling.__init__":
        ds = args[0]
        return {"param": repr((ds.a, ds.sigma)), "ntot": int(ds.ntot),
                "resid": float(ds.resid_norm)}
    if name in ("measures.mass_mu2", "measures.mass_mu3"):
        mass, tail = result
        return {"tail_share": float(tail) / float(mass)}
    if name == "finiten.biorthogonal":
        return {"retries": round(math.log2(result.precision_bits
                                           / args[0].precision_bits))}
    return None


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            spans[idx][4] = _info(name, args, result)
            return result

        return traced

    def instrument(self, short: str, module) -> None:
        for entry in ENTRIES[short]:
            owner, attr = module, entry
            if "." in entry:
                cls, attr = entry.split(".")
                owner = getattr(module, cls)
            setattr(owner, attr, self.wrap(span_name(short, entry),
                                           getattr(owner, attr)))

    def install(self) -> None:
        """Wrap each critkernels module of `ENTRIES` when it is imported."""
        tracer = self

        class Finder(importlib.abc.MetaPathFinder):
            def find_spec(self, fullname, path, target=None):
                pkg, _, short = fullname.partition(".")
                if pkg != "critkernels" or short not in ENTRIES:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path)
                exec_module = spec.loader.exec_module

                def exec_and_wrap(module):
                    exec_module(module)
                    tracer.instrument(short, module)

                spec.loader.exec_module = exec_and_wrap
                return spec

        sys.meta_path.insert(0, Finder())

    def summary(self) -> dict:
        """Per-entry [calls, total_s, self_s] plus the counts of this process.

        total_s counts only spans with no enclosing span of the same name,
        so recursion is not counted twice; self_s is each span's duration
        minus the durations of its direct children (children of one span
        never overlap, the process being single-threaded).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors(i):
            i = spans[i][3]
            while i >= 0:
                yield spans[i][0]
                i = spans[i][3]

        entries: dict[str, list] = {}
        raw = {"m_balanced_points": 0, "m_balanced_points_pairs": 0,
               "kernel_entries": 0, "path_points": 0,
               "retries": 0, "xi_calls_in_kolmogorov": 0,
               "cr_pair_ms": [], "ntot": [], "resid": [], "tail_share": {}}
        nus, params = [], []
        for i, (name, start, end, parent, info) in enumerate(spans):
            dur = end - start
            up = set(ancestors(i))
            st = entries.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[2] += dur - child_time[i]
            if name not in up:
                st[1] += dur
            info = info or {}
            if name in KERNEL_SPANS and not up.intersection(KERNEL_SPANS):
                raw["kernel_entries"] += info.get("entries", 0)
                if name == "kernels.kernel_cr":
                    raw["cr_pair_ms"].append(1e3 * dur)
            elif name == "rhsolver.m_balanced":
                raw["m_balanced_points"] += info.get("points", 0)
                if "kernels.kernel_cr" in up:
                    raw["m_balanced_points_pairs"] += info.get("points", 0)
            elif name in ("surface.xi_sheet_on_path",
                          "surface.cubic_sheet_on_path"):
                raw["path_points"] += info.get("points", 0)
            elif name == "surface.xi_branches":
                raw["xi_calls_in_kolmogorov"] += (
                    "finiten.zero_counting_kolmogorov" in up)
            elif name == "piisolver.PiiSolver.__init__" and info:
                nus.append(info["nu"])
            elif name == "dscale.DoubleScaling.__init__" and info:
                params.append(info["param"])
                raw["ntot"].append(info["ntot"])
                raw["resid"].append(info["resid"])
            elif "tail_share" in info:
                raw["tail_share"][name] = info["tail_share"]
            elif name == "finiten.biorthogonal":
                raw["retries"] += info.get("retries", 0)
        raw.update(pii_constructs=len(nus), pii_nus=len(set(nus)),
                   ds_constructs=len(params), ds_params=len(set(params)),
                   cache=_cache_counts())
        return {"entries": entries, "raw": raw}


def _cache_counts() -> dict:
    """Hit and miss counts of the cached solver getters in this process."""
    kernels = sys.modules.get("critkernels.kernels")
    if kernels is None:
        return {}
    return {name: list(getattr(kernels, name).cache_info()[:2])
            for name in ("get_solver", "get_pii_solver")}


# -- per-module metrics ----------------------------------------------------

# Entries whose spans never enclose another traced entry (self_s would
# equal total_s), and entries whose call count is the whole story.
LEAVES = {"painleve.solve_hastings_mcleod", "laxpair.lax_coefficients",
          "laxpair.lax_matrices", "rhsolver.m_balanced",
          "rhsolver.jump_residual", "rhsolver.det_m",
          "piisolver.PiiSolver.__init__", "piisolver.psi",
          "surface.xi_branches", "surface.theta_branches",
          "surface.xi_sheet_on_path", "surface.cubic_sheet_on_path",
          "finiten.bimoment_matrix", "finiten.polynomial_zeros",
          "finiten.kernel_n"}
COUNT_ONLY = {"measures.density_mu1", "measures.density_mu2",
              "measures.density_mu3"}
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}

EXTRA = (
    ("rhsolver.m_balanced.points", "count", "lower"),
    ("rhsolver.m_balanced.points_per_entry", "ratio", "lower"),
    ("kernels.entries", "count", "higher"),
    ("kernels.kernel_cr.pair_count", "count", "higher"),
    ("kernels.kernel_cr.pair_p50_ms", "ms", "lower"),
    ("kernels.kernel_cr.pair_p90_ms", "ms", "lower"),
    ("kernels.get_solver.hit_ratio", "ratio", "higher"),
    ("kernels.get_pii_solver.hit_ratio", "ratio", "higher"),
    ("piisolver.constructs_per_nu", "ratio", "lower"),
    ("dscale.constructs_per_param", "ratio", "lower"),
    ("dscale.contour_nodes", "count", "lower"),
    ("dscale.gmres_resid", "1", "lower"),
    ("surface.path_points", "count", "lower"),
    ("measures.mass_mu2.tail_share", "ratio", "lower"),
    ("measures.mass_mu3.tail_share", "ratio", "lower"),
    ("finiten.precision_retries", "count", "lower"),
    ("finiten.zero_counting_kolmogorov.xi_branches_calls", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def span_stats():
    """(metric prefix, stats reported) for every traced entry."""
    for module, entries in ENTRIES.items():
        for entry in entries:
            name = span_name(module, entry)
            yield name, (("calls",) if name in COUNT_ONLY else
                         ("calls", "total_s") if name in LEAVES else
                         ("calls", "total_s", "self_s"))


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-module metric as (name, unit, better)."""
    out = [("cli.import_s", "s", "lower")]
    out += [(f"cli.{c}.wall_s", "s", "lower") for c in CLI_COMMANDS]
    out += [(f"{prefix}.{stat}", STAT_UNITS[stat], "lower")
            for prefix, stats in span_stats() for stat in stats]
    return out + list(EXTRA)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(results: list[dict], cli_walls: dict) -> dict:
    """Per-module metric values of one traced repeat.

    `results` holds the worker output of each traced process of the
    repeat (nine for cli-readme, one otherwise); span statistics and
    counts are summed over them.  Metrics of modules the repeat never
    used read 0.  trace.overhead is left to the caller.
    """
    entries: dict[str, list] = {}
    raw: dict = {"cache": {}, "cr_pair_ms": [], "ntot": [], "resid": [],
                 "tail_share": {}}
    for res in results:
        for name, st in res["trace"]["entries"].items():
            acc = entries.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(st):
                acc[i] += v
        for k, v in res["trace"]["raw"].items():
            if k == "cache":
                for getter, (hits, misses) in v.items():
                    acc = raw["cache"].setdefault(getter, [0, 0])
                    acc[0] += hits
                    acc[1] += misses
            elif isinstance(v, list):
                raw.setdefault(k, []).extend(v)
            elif isinstance(v, dict):
                raw.setdefault(k, {}).update(v)
            else:
                raw[k] = raw.get(k, 0) + v
    out = {f"cli.{c}.wall_s": cli_walls.get(c, 0.0) for c in CLI_COMMANDS}
    imports = [res["import_s"] for res in results if "import_s" in res]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for prefix, stats in span_stats():
        st = entries.get(prefix, [0, 0.0, 0.0])
        for stat in stats:
            out[f"{prefix}.{stat}"] = st[("calls", "total_s", "self_s").index(stat)]
    pair_ms = sorted(raw["cr_pair_ms"])

    def hit_ratio(getter):
        hits, misses = raw["cache"].get(getter, (0, 0))
        return _ratio(hits, hits + misses)

    out.update({
        "rhsolver.m_balanced.points": raw.get("m_balanced_points", 0),
        "rhsolver.m_balanced.points_per_entry": _ratio(
            raw.get("m_balanced_points_pairs", 0), len(pair_ms)),
        "kernels.entries": raw.get("kernel_entries", 0),
        "kernels.kernel_cr.pair_count": len(pair_ms),
        "kernels.kernel_cr.pair_p50_ms": (statistics.median(pair_ms)
                                          if pair_ms else 0.0),
        "kernels.kernel_cr.pair_p90_ms": (
            statistics.quantiles(pair_ms, n=10)[8] if len(pair_ms) > 1
            else sum(pair_ms)),
        "kernels.get_solver.hit_ratio": hit_ratio("get_solver"),
        "kernels.get_pii_solver.hit_ratio": hit_ratio("get_pii_solver"),
        "piisolver.constructs_per_nu": _ratio(raw.get("pii_constructs", 0),
                                              raw.get("pii_nus", 0)),
        "dscale.constructs_per_param": _ratio(raw.get("ds_constructs", 0),
                                              raw.get("ds_params", 0)),
        "dscale.contour_nodes": max(raw["ntot"], default=0),
        "dscale.gmres_resid": max(raw["resid"], default=0.0),
        "surface.path_points": raw.get("path_points", 0),
        "measures.mass_mu2.tail_share": raw["tail_share"].get(
            "measures.mass_mu2", 0.0),
        "measures.mass_mu3.tail_share": raw["tail_share"].get(
            "measures.mass_mu3", 0.0),
        "finiten.precision_retries": raw.get("retries", 0),
        "finiten.zero_counting_kolmogorov.xi_branches_calls":
            raw.get("xi_calls_in_kolmogorov", 0),
    })
    return out
