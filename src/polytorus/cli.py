"""Command-line harness: reproducible experiments with machine-readable output.

Each invocation runs one experiment, writes its artifacts atomically
(temp file + rename), prints a one-line JSON summary
``{"kind", "wall_time", "key_metrics", "pass"}``, and exits with

* 0  -- all declared tolerances met,
* 1  -- a tolerance failed,
* 2  -- bad usage or configuration,
* 3  -- construction or budget failure.

Flags may also be given through ``--config file.json``; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from .averages import (
    boundary_mean_error_bound,
    convergence_sweep,
    point_mass_space_average,
    recover_moments,
)
from .errors import BudgetExhaustedError, ConstructionError, PolytorusError
from .formats import (
    dirichlet_from_json,
    loads_strict,
    measure_sequence_from_json,
    point_mass_from_json,
    polynomial_family_from_json,
)
from .kronecker import KroneckerProblem, solve
from .measures import (
    GrowthSchedule,
    atoms_to_bytes,
    build_point_mass_lambda,
    load_atoms,
)
from .nested import NestedConstructionPlan, build_nested_lambda
from .polynomials import bohr_lift, carlson_target
from .primes import PrimeBasis

MAX_LEVELS = 8
MAX_BUDGET = 10**10

# The numeric options and the types argparse gives their flags; values read
# from a --config file must have them too.
_NUMERIC_OPTIONS = {"dim": int, "levels": int, "eps": float, "budget": float,
                    "t_min": float, "sigma": float, "tol": float, "t_max": float}
# The options whose flags take text (paths, lists, schedules).
_STRING_OPTIONS = ("theta", "mu", "atoms", "poly", "out", "pairs", "growth",
                   "t_grid", "mu_seq", "polys")

KINDS = (
    "kronecker",
    "build-measure",
    "verify-sigma",
    "verify-boundary",
    "nested-build",
    "moments",
)


class UsageError(Exception):
    pass


def write_atomic(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so no partial file survives."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_bytes(record) -> bytes:
    lines = ["T,time_mean,target,abs_error"]
    for row in record.rows:
        lines.append(
            f"{row.T!r},{row.time_mean!r},{row.target!r},{row.abs_error!r}"
        )
    return ("\n".join(lines) + "\n").encode()


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_atoms(path: str):
    """``load_atoms(path)``, with a file that cannot be opened reported as
    bad usage."""
    try:
        return load_atoms(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _parse_pairs(text: str):
    """Moment pairs: "1,0:0,0;0,1:0,0" -> [((1,0),(0,0)), ((0,1),(0,0))]."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            alpha_text, beta_text = chunk.split(":")
            alpha = tuple(int(x) for x in alpha_text.split(","))
            beta = tuple(int(x) for x in beta_text.split(","))
        except ValueError as exc:
            raise UsageError(f"bad moment pair {chunk!r}") from exc
        pairs.append((alpha, beta))
    if not pairs:
        raise UsageError("no moment pairs given")
    return pairs


def _require(config, *names):
    missing = [n for n in names if config.get(n) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _check_types(config):
    """Every option has its flag's type: a numeric option is finite, and a
    bool, a string or, for an integer option, a float is refused; a text
    option is a string and ``lebesgue`` a bool."""
    for name, kind in _NUMERIC_OPTIONS.items():
        value = config.get(name)
        if value is None:
            continue
        allowed = (int, float) if kind is float else int
        if (isinstance(value, bool) or not isinstance(value, allowed)
                or isinstance(value, float) and not math.isfinite(value)):
            what = "a finite number" if kind is float else "an integer"
            raise UsageError(f"{name} must be {what}, got {value!r}")
    for name in _STRING_OPTIONS:
        value = config.get(name)
        if value is not None and not isinstance(value, str):
            raise UsageError(f"{name} must be a string, got {value!r}")
    value = config.get("lebesgue")
    if value is not None and not isinstance(value, bool):
        raise UsageError(f"lebesgue must be true or false, got {value!r}")


def _check_ranges(config):
    _check_types(config)
    levels = config.get("levels")
    if levels is not None and not 1 <= levels <= MAX_LEVELS:
        raise UsageError(f"levels must lie in [1, {MAX_LEVELS}], got {levels}")
    eps = config.get("eps")
    if eps is not None and not 1e-6 < eps < math.pi:
        raise UsageError(f"eps must lie in (1e-6, pi), got {eps}")
    budget = config.get("budget")
    # a budget counts steps; the runners' int() would truncate a fraction
    if budget is not None and budget != int(budget):
        raise UsageError(f"budget must be a whole number, got {budget}")
    if budget is not None and not 1 <= budget <= MAX_BUDGET:
        raise UsageError(f"budget must lie in [1, {MAX_BUDGET}], got {budget}")


# ---------------------------------------------------------------------------
# experiment runners, one per kind; each returns (key_metrics, passed)
# ---------------------------------------------------------------------------


def _run_kronecker(config):
    _require(config, "dim", "theta", "eps")
    theta = _parse_floats(config["theta"])
    dim = int(config["dim"])
    if len(theta) != dim:
        raise UsageError(f"--dim {dim} but {len(theta)} angles given")
    problem = KroneckerProblem(
        basis=PrimeBasis(dim),
        k=dim,
        targets=theta,
        eps=float(config["eps"]),
        t_min=float(config.get("t_min") or 0.0),
    )
    solution = solve(problem, int(config.get("budget") or 10**8))
    print(json.dumps({
        "t": solution.t,
        "residuals": list(solution.residuals),
        "q": list(solution.q),
    }))
    metrics = {"t": solution.t, "max_residual": max(solution.residuals),
               "steps": solution.steps}
    return metrics, True


def _run_build_measure(config):
    _require(config, "mu", "levels", "out")
    mu = point_mass_from_json(_read(config["mu"]))
    growth = GrowthSchedule.parse(config.get("growth") or "default")
    lam = build_point_mass_lambda(
        mu,
        levels=int(config["levels"]),
        growth=growth,
        solver_budget=int(config.get("budget") or 10**8),
    )
    write_atomic(config["out"], atoms_to_bytes(lam))
    metrics = {
        "atoms": len(lam),
        "mass_trace": list(lam.total_mass_by_level),
        "t_max": float(lam.t[-1]),
        "out": config["out"],
    }
    return metrics, True


def _run_verify_sigma(config):
    _require(config, "poly", "sigma", "t_grid", "out")
    f, _basis = dirichlet_from_json(_read(config["poly"]))
    sigma = float(config["sigma"])
    grid = _parse_floats(config["t_grid"])
    target = carlson_target(f, sigma)
    record = convergence_sweep(
        f, None, target, grid, sigma=sigma,
        poly_id=config["poly"], measure_id=f"lebesgue(sigma={sigma})",
    )
    write_atomic(config["out"], _csv_bytes(record))
    tol = float(config.get("tol") or 1e-2)
    final = record.final_error()
    metrics = {"target": target, "final_abs_error": final, "tol": tol,
               "out": config["out"]}
    return metrics, final < tol


def _run_verify_boundary(config):
    _require(config, "poly", "atoms", "mu", "out")
    f, _basis = dirichlet_from_json(_read(config["poly"]))
    lam = _load_atoms(config["atoms"])
    mu = point_mass_from_json(_read(config["mu"]))
    F = bohr_lift(f, PrimeBasis(mu.dimension))
    target = point_mass_space_average(F, mu)
    grid = (
        _parse_floats(config["t_grid"])
        if config.get("t_grid")
        else list(lam.level_boundaries)
    )
    record = convergence_sweep(
        f, lam, target, grid,
        poly_id=config["poly"], measure_id=config["atoms"],
    )
    write_atomic(config["out"], _csv_bytes(record))
    tol = (
        float(config["tol"])
        if config.get("tol") is not None
        else boundary_mean_error_bound(f, mu, lam)
    )
    final = record.final_error()
    metrics = {"target": target, "final_abs_error": final, "tol": tol,
               "out": config["out"]}
    return metrics, final <= tol


def _run_nested_build(config):
    _require(config, "mu_seq", "polys", "levels", "out")
    mu_sequence = measure_sequence_from_json(_read(config["mu_seq"]))
    polys = polynomial_family_from_json(_read(config["polys"]))
    growth = GrowthSchedule.parse(config.get("growth") or "default")
    plan = NestedConstructionPlan(mu_sequence, polys)
    lam, completed = build_nested_lambda(
        plan,
        levels=int(config["levels"]),
        growth=growth,
        solver_budget=int(config.get("budget") or 10**8),
    )
    write_atomic(config["out"], atoms_to_bytes(lam))
    worst_by_level = [max(level) for level in completed.window_estimates]
    passed = all(
        worst < 2.0**-k for k, worst in enumerate(worst_by_level, start=1)
    )
    metrics = {
        "atoms": len(lam),
        "mass_trace": list(lam.total_mass_by_level),
        "worst_window_estimate_by_level": worst_by_level,
        "out": config["out"],
    }
    return metrics, passed


def _run_moments(config):
    _require(config, "pairs", "t_max")
    use_lebesgue = bool(config.get("lebesgue"))
    if use_lebesgue == bool(config.get("atoms")):
        raise UsageError("choose exactly one of --atoms or --lebesgue")
    pairs = _parse_pairs(config["pairs"])
    dim = max(len(exps) for pair in pairs for exps in pair)
    basis = PrimeBasis(max(dim, 1))
    lam = None if use_lebesgue else _load_atoms(config["atoms"])
    mu = point_mass_from_json(_read(config["mu"])) if config.get("mu") else None
    moments = recover_moments(lam, basis, pairs, float(config["t_max"]), mu=mu)
    rows = []
    worst = 0.0
    for pair in moments:
        row = {
            "alpha": list(pair.alpha.exponents),
            "beta": list(pair.beta.exponents),
            "empirical_re": pair.empirical.real,
            "empirical_im": pair.empirical.imag,
        }
        if pair.reference is not None:
            row["reference_re"] = pair.reference.real
            row["reference_im"] = pair.reference.imag
            worst = max(worst, abs(pair.empirical - pair.reference))
        rows.append(row)
    payload = ("\n".join(json.dumps(r) for r in rows) + "\n").encode()
    if config.get("out"):
        write_atomic(config["out"], payload)
    else:
        sys.stdout.write(payload.decode())
    passed = True
    metrics = {"pairs": len(rows)}
    if mu is not None:
        tol = float(config.get("tol") or 0.2)
        passed = worst < tol
        metrics.update({"worst_abs_error": worst, "tol": tol})
    return metrics, passed


_RUNNERS = {
    "kronecker": _run_kronecker,
    "build-measure": _run_build_measure,
    "verify-sigma": _run_verify_sigma,
    "verify-boundary": _run_verify_boundary,
    "nested-build": _run_nested_build,
    "moments": _run_moments,
}


def run(kind: str, config: dict) -> int:
    """Execute one experiment; prints the summary line and returns the exit code."""
    started = time.perf_counter()
    try:
        _check_ranges(config)
        metrics, passed = _RUNNERS[kind](config)
    except (UsageError, PolytorusError) as exc:
        print(json.dumps({"kind": kind, "error": str(exc), "pass": False}),
              file=sys.stderr)
        return 3 if isinstance(exc, (BudgetExhaustedError, ConstructionError)) else 2
    summary = {
        "kind": kind,
        "wall_time": round(time.perf_counter() - started, 6),
        "key_metrics": metrics,
        "pass": passed,
    }
    print(json.dumps(summary))
    return 0 if passed else 1


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of options; flags override it")
    parser.add_argument("--budget", type=float, help="solver step budget")
    parser.add_argument("--out", help="output artifact path")
    parser.add_argument("--tol", type=float, help="pass/fail tolerance override")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser holds reference cycles, so one built per call to :func:`main`
    stays in memory until a full garbage collection; a process that runs
    many experiments in-process grew by about 8 KB per call.
    """
    parser = argparse.ArgumentParser(
        prog="polytorus",
        description="Constructed measures and ergodic means for Dirichlet polynomials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("kronecker", help="solve one simultaneous approximation problem")
    p.add_argument("--dim", type=int, help="number of active primes")
    p.add_argument("--theta", help="comma-separated target angles")
    p.add_argument("--eps", type=float, help="residual tolerance")
    p.add_argument("--t-min", dest="t_min", type=float, help="strict lower bound on t")
    _add_common(p)

    p = sub.add_parser("build-measure", help="build a line measure from a point-mass measure")
    p.add_argument("--mu", help="point-mass measure JSON file")
    p.add_argument("--levels", type=int, help="construction depth K")
    p.add_argument("--growth", help="default | const:N")
    _add_common(p)

    p = sub.add_parser("verify-sigma", help="vertical-line mean convergence at sigma > 0")
    p.add_argument("--poly", help="Dirichlet polynomial JSON file")
    p.add_argument("--sigma", type=float, help="real part of the line")
    p.add_argument("--t-grid", dest="t_grid", help="comma-separated T values")
    _add_common(p)

    p = sub.add_parser("verify-boundary", help="boundary mean convergence against atoms")
    p.add_argument("--poly", help="Dirichlet polynomial JSON file")
    p.add_argument("--atoms", help="atom JSONL file")
    p.add_argument("--mu", help="point-mass measure JSON file")
    p.add_argument("--t-grid", dest="t_grid", help="T values (default: level boundaries)")
    _add_common(p)

    p = sub.add_parser("nested-build", help="windowed construction over a measure sequence")
    p.add_argument("--mu-seq", dest="mu_seq", help="JSON file with a 'measures' list")
    p.add_argument("--polys", help="JSON file with a 'polynomials' list")
    p.add_argument("--levels", type=int, help="construction depth K")
    p.add_argument("--growth", help="default | const:N")
    _add_common(p)

    p = sub.add_parser("moments", help="recover torus moments from a line measure")
    p.add_argument("--atoms", help="atom JSONL file")
    p.add_argument("--lebesgue", action="store_true", help="use the Lebesgue line")
    p.add_argument("--pairs", help="moment pairs, e.g. '1,0:0,0;0,1:0,0'")
    p.add_argument("--t-max", dest="t_max", type=float, help="average over [0, T]")
    p.add_argument("--mu", help="reference point-mass measure JSON file")
    _add_common(p)

    return parser


def merged_config(args: argparse.Namespace) -> dict:
    """Start from --config file values, then apply explicitly given flags."""
    config: dict = {}
    if getattr(args, "config", None):
        data = loads_strict(_read(args.config))
        if not isinstance(data, dict):
            raise UsageError("--config must hold a JSON object")
        config.update(data)
    for key, value in vars(args).items():
        if key in ("kind", "config"):
            continue
        if value is not None and value is not False:
            config[key] = value
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = merged_config(args)
    except (UsageError, PolytorusError) as exc:
        print(json.dumps({"kind": args.kind, "error": str(exc), "pass": False}),
              file=sys.stderr)
        return 2
    return run(args.kind, config)


if __name__ == "__main__":
    sys.exit(main())
