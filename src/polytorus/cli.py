"""Command-line harness: reproducible experiments with machine-readable output.

Each invocation runs one experiment, writes its artifacts atomically
(temp file + rename), prints a one-line JSON summary
``{"kind", "wall_time", "key_metrics", "pass"}``, and exits with

* 0  -- all declared tolerances met,
* 1  -- a tolerance failed,
* 2  -- bad usage or configuration,
* 3  -- construction or budget failure.

``_OPTIONS`` declares each option's type once, and ``_EXPERIMENTS`` the
options each experiment reads; an experiment accepts no other option.  Options
may also be given through ``--config file.json``; explicit flags win, and a
key the experiment does not read exits 2.
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

# Moment-pair exponents stop where float64 stops holding every integer.
MAX_EXPONENT = 2**53


class _Path(str):
    """The type of an option that names a file: a string that is not empty."""


# option -> (type, help).  A bool option is a switch; the flag of ``t_min`` is
# ``--t-min``.
_OPTIONS = {
    "dim": (int, "number of active primes"),
    "theta": (str, "comma-separated target angles"),
    "eps": (float, "residual tolerance"),
    "t_min": (float, "strict lower bound on t"),
    "mu": (_Path, "point-mass measure JSON file"),
    "levels": (int, "construction depth K"),
    "growth": (str, "default | const:N"),
    "poly": (_Path, "Dirichlet polynomial JSON file"),
    "sigma": (float, "real part of the line"),
    "t_grid": (str, "comma-separated T values"),
    "atoms": (_Path, "atom JSONL file"),
    "mu_seq": (_Path, "JSON file with a 'measures' list"),
    "polys": (_Path, "JSON file with a 'polynomials' list"),
    "lebesgue": (bool, "use the Lebesgue line"),
    "pairs": (str, "moment pairs, e.g. '1,0:0,0;0,1:0,0'"),
    "t_max": (float, "average over [0, T]"),
    "budget": (float, "solver step budget, a whole number"),
    "out": (_Path, "output artifact path"),
    "tol": (float, "pass/fail tolerance override"),
}


class UsageError(Exception):
    pass


def write_atomic(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so no partial file survives;
    a path that cannot be written is bad usage."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


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
    """Moment pairs: "1,0:0,0;0,1:0,0" -> [((1,0),(0,0)), ((0,1),(0,0))].

    An exponent above ``MAX_EXPONENT`` is refused; a negative one is left to
    :class:`~polytorus.polynomials.MultiIndex`."""
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
        if max(alpha + beta) > MAX_EXPONENT:
            raise UsageError(
                f"moment pair {chunk!r} has an exponent above {MAX_EXPONENT}")
        pairs.append((alpha, beta))
    if not pairs:
        raise UsageError("no moment pairs given")
    return pairs


def _require(config, *names):
    missing = [n for n in names if config.get(n) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _check_types(config):
    """Every option has its type in ``_OPTIONS``: a numeric option is finite,
    and a bool, a string or, for an integer option, a float is refused; a
    text option is a string, not empty if it names a file; a switch is a
    bool."""
    for name, (kind, _help) in _OPTIONS.items():
        value = config.get(name)
        if value is None:
            continue
        if kind is bool:
            if not isinstance(value, bool):
                raise UsageError(f"{name} must be true or false, got {value!r}")
        elif issubclass(kind, str):
            if not isinstance(value, str):
                raise UsageError(f"{name} must be a string, got {value!r}")
            if kind is _Path and not value:
                raise UsageError(f"{name} must name a file, got ''")
        else:
            allowed = (int, float) if kind is float else int
            # abs(value) <= the largest float also refuses an int past float64
            if (isinstance(value, bool) or not isinstance(value, allowed)
                    or kind is float and not abs(value) <= sys.float_info.max):
                what = "a finite number" if kind is float else "an integer"
                raise UsageError(f"{name} must be {what}, got {value!r}")


def _check_ranges(config):
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
        t_min=float(config.get("t_min", 0.0)),
    )
    solution = solve(problem, int(config.get("budget", 10**8)))
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
    growth = GrowthSchedule.parse(config.get("growth", "default"))
    lam = build_point_mass_lambda(
        mu,
        levels=int(config["levels"]),
        growth=growth,
        solver_budget=int(config.get("budget", 10**8)),
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
    record = convergence_sweep(f, None, target, grid, sigma=sigma)
    write_atomic(config["out"], _csv_bytes(record))
    tol = float(config.get("tol", 1e-2))
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
    grid = (_parse_floats(config["t_grid"]) if "t_grid" in config
            else list(lam.level_boundaries))
    record = convergence_sweep(f, lam, target, grid)
    write_atomic(config["out"], _csv_bytes(record))
    tol = (float(config["tol"]) if "tol" in config
           else boundary_mean_error_bound(f, mu, lam))
    final = record.final_error()
    metrics = {"target": target, "final_abs_error": final, "tol": tol,
               "out": config["out"]}
    return metrics, final <= tol


def _run_nested_build(config):
    _require(config, "mu_seq", "polys", "levels", "out")
    mu_sequence = measure_sequence_from_json(_read(config["mu_seq"]))
    polys = polynomial_family_from_json(_read(config["polys"]))
    growth = GrowthSchedule.parse(config.get("growth", "default"))
    plan = NestedConstructionPlan(mu_sequence, polys)
    lam, completed = build_nested_lambda(
        plan,
        levels=int(config["levels"]),
        growth=growth,
        solver_budget=int(config.get("budget", 10**8)),
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
    use_lebesgue = config.get("lebesgue", False)
    if use_lebesgue == ("atoms" in config):
        raise UsageError("choose exactly one of --atoms or --lebesgue")
    pairs = _parse_pairs(config["pairs"])
    dim = max(len(exps) for pair in pairs for exps in pair)
    basis = PrimeBasis(max(dim, 1))
    lam = None if use_lebesgue else _load_atoms(config["atoms"])
    mu = point_mass_from_json(_read(config["mu"])) if "mu" in config else None
    moments = recover_moments(lam, basis, pairs, float(config["t_max"]), mu=mu)
    rows, errors = [], []
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
            errors.append(abs(pair.empirical - pair.reference))
        rows.append(row)
    payload = ("\n".join(json.dumps(r) for r in rows) + "\n").encode()
    if "out" in config:
        write_atomic(config["out"], payload)
    else:
        sys.stdout.write(payload.decode())
    passed = True
    metrics = {"pairs": len(rows)}
    if mu is not None:
        tol = float(config.get("tol", 0.2))
        # a NaN error is the worst: max() would keep whichever came first
        worst = math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)
        passed = worst < tol
        metrics.update({"worst_abs_error": worst, "tol": tol})
    return metrics, passed


# experiment -> (runner, the options it reads, help)
_EXPERIMENTS = {
    "kronecker": (_run_kronecker, ("dim", "theta", "eps", "t_min", "budget"),
                  "solve one simultaneous approximation problem"),
    "build-measure": (_run_build_measure, ("mu", "levels", "growth", "budget", "out"),
                      "build a line measure from a point-mass measure"),
    "verify-sigma": (_run_verify_sigma, ("poly", "sigma", "t_grid", "out", "tol"),
                     "vertical-line mean convergence at sigma > 0"),
    "verify-boundary": (_run_verify_boundary,
                        ("poly", "atoms", "mu", "t_grid", "out", "tol"),
                        "boundary mean convergence against atoms (T grid default: "
                        "level boundaries)"),
    "nested-build": (_run_nested_build,
                     ("mu_seq", "polys", "levels", "growth", "budget", "out"),
                     "windowed construction over a measure sequence"),
    "moments": (_run_moments, ("atoms", "lebesgue", "pairs", "t_max", "mu", "out", "tol"),
                "recover torus moments from a line measure (against --mu if given)"),
}


def run(kind: str, config: dict) -> int:
    """Execute one experiment; prints the summary line and returns the exit code.

    Before any work, the types of every known option are checked, then their
    ranges, then that the experiment reads every key.  A key whose value is
    None counts as not given.
    """
    started = time.perf_counter()
    runner, options, _help = _EXPERIMENTS[kind]
    try:
        _check_types(config)
        _check_ranges(config)
        unread = sorted(set(config) - set(options))
        if unread:
            raise UsageError(f"{kind} does not read {', '.join(unread)}")
        metrics, passed = runner({k: v for k, v in config.items() if v is not None})
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
    for kind, (_runner, options, help_text) in _EXPERIMENTS.items():
        # an option not given is left out of the parsed arguments
        p = sub.add_parser(kind, help=help_text, argument_default=argparse.SUPPRESS)
        for name in options:
            option_type, option_help = _OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if option_type is bool:
                p.add_argument(flag, dest=name, action="store_true", help=option_help)
            else:
                p.add_argument(flag, dest=name, type=option_type, help=option_help)
        p.add_argument("--config", help="JSON file of options; flags override it")
    return parser


def merged_config(args: argparse.Namespace) -> dict:
    """Start from --config file values, then apply explicitly given flags."""
    config: dict = {}
    if getattr(args, "config", None):
        data = loads_strict(_read(args.config))
        if not isinstance(data, dict):
            raise UsageError("--config must hold a JSON object")
        config.update(data)
    config.update((k, v) for k, v in vars(args).items() if k not in ("kind", "config"))
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
