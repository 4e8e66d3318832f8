"""polytorus benchmark: seeded workloads through the CLI, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload deep-lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload deep-lattice --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --reference        # one-off criterion 5/6 digests
    python3 bench/run.py --record-digests   # rewrite reference.json (slow)

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around layer calls (see ``tracing.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

import os
import sys

# One BLAS thread for this process; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("deep-lattice", "wide-shallow", "analyze-large")
SETUPS = 3         # at least, spread over the run
CHEAP_SETUP = 0.1  # and before any pass while set-up has cost < 10% of the passes

# Solver (k, eps = 2^-e) classes reported per layer; the workloads' solves
# fall into these (level k of a d=3 build solves at (min(k, 3), k); the
# nested build solves at (3, level + 4)).
SOLVE_CLASSES = ((1, 1), (2, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7))

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "build_s": "s",
    "check_s": "s",
    "atoms_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kronecker.solves": "count",
    "kronecker.busy_s": "s",
    "kronecker.build_share": "ratio",
    "kronecker.candidates_per_solve": "count",
    "kronecker.us_per_solve": "us",
    "kronecker.fixed_us_per_solve": "us",
    "kronecker.ns_per_candidate": "ns",
    **{
        f"kronecker.k{k}.e{e}.{name}": unit
        for k, e in SOLVE_CLASSES
        for name, unit in (("solves", "count"), ("candidates_per_solve", "count"),
                           ("us_per_solve", "us"))
    },
    "measures.build.self_s": "s",
    "measures.encode.atoms_per_s": "1/s",
    "measures.decode.atoms_per_s": "1/s",
    "measures.window_check.busy_s": "s",
    "nested.build.self_s": "s",
    "nested.windows": "count",
    "nested.rounds_per_window": "count",
    "polynomials.eval_dirichlet.calls": "count",
    "polynomials.eval_dirichlet.term_evals_per_s": "1/s",
    "polynomials.lebesgue_line_mean.busy_s": "s",
    "polynomials.lebesgue_line_mean.terms": "count",
    "averages.convergence_sweep.self_s": "s",
    "averages.recover_moments.busy_s": "s",
    "averages.boundary_bound.busy_s": "s",
    "formats.parse.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def fail_usage(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import polytorus from this checkout's ``src`` and nowhere else."""
    if not (SRC / "polytorus" / "__init__.py").is_file():
        fail_usage(f"no polytorus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import polytorus

    if Path(polytorus.__file__).resolve().parent != SRC / "polytorus":
        fail_usage(f"imported polytorus from {polytorus.__file__}, not {SRC}")


class Run:
    """One workload variant in one work directory: its inputs, steps and checks.

    Every CLI experiment, window check and codec round trip counts as one
    attempted operation.  An operation fails on a non-zero exit code, a
    ``pass: false`` summary, a failed check, or an atom artifact whose
    SHA-256 differs from ``expected`` (``None`` records digests instead).
    """

    def __init__(self, workload, variant, size, workdir, tracer, expected):
        from bench import inputs

        self.workload = workload
        self.variant = variant
        self.size = size
        self.cfg = inputs.SIZES[size]
        self.dir = Path(workdir)
        self.tracer = tracer
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.steps: dict[str, tuple[str, float]] = {}  # of the current pass

    # -- bookkeeping -------------------------------------------------------

    def _outcome(self, label: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {why}")

    def _digest_problem(self, name: str) -> str:
        """Record the atom file's SHA-256; describe any mismatch with the reference."""
        path = self.dir / name
        if not path.is_file():
            return f"{name} was not written"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.digests[name] = digest
        if self.expected is None or self.expected.get(name) == digest:
            return ""
        return f"{name} SHA-256 {digest} != reference {self.expected.get(name)}"

    def cli(self, kind: str, *args, artifact: str = "", category: str = "check") -> dict:
        """Run one experiment in-process as a step of the pass; returns key_metrics.

        ``artifact`` names the atom file the experiment writes; its digest is
        part of the experiment's outcome.
        """
        from polytorus import cli

        argv = [kind, *(str(self.dir / a) if a.endswith((".json", ".jsonl", ".csv"))
                        else a for a in args)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.tracer.call(f"cli.{kind}", cli.main, argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
        self.steps[f"{kind} {args[-1]}"] = (category, time.perf_counter() - start)
        lines = out.getvalue().strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            summary = {"stdout": lines[-1]}
        problem = ""
        if code != 0 or summary.get("pass") is not True:
            problem = f"exit {code}, {err.getvalue().strip() or summary}"
        elif artifact:
            problem = self._digest_problem(artifact)
        self._outcome(kind, not problem, problem)
        return summary.get("key_metrics", {})

    def step(self, name: str, category: str, fn, *args, attrs=None):
        """Time a library call the benchmark makes itself, as a traced step."""
        start = time.perf_counter()
        result = self.tracer.call(name, fn, *args, attrs=attrs)
        seconds = time.perf_counter() - start
        previous = self.steps.get(name, (category, 0.0))[1]
        self.steps[name] = (category, previous + seconds)
        return result

    # -- set-up ------------------------------------------------------------

    def write_inputs(self) -> None:
        from bench import inputs

        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in inputs.generate(self.workload, self.variant, self.size).items():
            (self.dir / name).write_text(text, encoding="utf-8")

    def setup(self) -> float:
        """Write the inputs and run any reference build; returns its build time."""
        self.write_inputs()
        if self.workload != "analyze-large":
            return 0.0
        self.steps = {}
        self.cli("build-measure", "--mu", "mu.json",
                 "--levels", str(self.cfg["large_levels"]),
                 "--out", "large.jsonl", artifact="large.jsonl", category="build")
        self._load_reference_measure()
        return sum(seconds for _, seconds in self.steps.values())

    def _load_reference_measure(self) -> None:
        from polytorus import bohr_lift, PrimeBasis
        from polytorus.formats import dirichlet_from_json, point_mass_from_json

        text = (self.dir / "large.jsonl").read_text(encoding="utf-8")
        trailer = json.loads(text.splitlines()[-1])
        self.boundaries = trailer["boundaries"]
        self.large_atoms = len(text.splitlines()) - 2
        self.f, _ = dirichlet_from_json((self.dir / "f.json").read_text())
        self.mu = point_mass_from_json((self.dir / "mu.json").read_text())
        self.F = bohr_lift(self.f, PrimeBasis(self.mu.dimension))

    # -- one pass of the timed phase ---------------------------------------

    def iterate(self) -> dict:
        """Run the workload's steps once; returns step times and atoms placed."""
        self.steps = {}
        atoms = getattr(self, "_" + self.workload.replace("-", "_"))()
        return {"steps": self.steps, "atoms": atoms}

    def _deep_lattice(self):
        atoms = 0
        n = self.cfg["deep_measures"]
        for i in range(1, n + 1):
            atoms += self.cli(
                "build-measure", "--mu", f"mu_{i}.json",
                "--levels", str(self.cfg["deep_levels"]), "--growth", "const:2",
                "--out", f"deep_{i}.jsonl", artifact=f"deep_{i}.jsonl",
                category="build").get("atoms", 0)
        atoms += self.cli(
            "nested-build", "--mu-seq", "seq.json", "--polys", "polys.json",
            "--levels", str(self.cfg["nested_levels"]), "--growth", "const:2",
            "--out", "nested.jsonl", artifact="nested.jsonl",
            category="build").get("atoms", 0)
        for i in range(1, n + 1):
            self.cli("verify-boundary", "--poly", f"f_{i}.json", "--atoms", f"deep_{i}.jsonl",
                     "--mu", f"mu_{i}.json", "--out", f"boundary_{i}.csv")
        return atoms

    # Moments of every pair of characters of degree <= 1 in one coordinate.
    _WIDE_PAIRS = ";".join(
        f"{a}:{b}" for a in ("0,0,0", "1,0,0", "0,1,0", "0,0,1")
        for b in ("0,0,0", "1,0,0", "0,1,0", "0,0,1")
    )

    def _wide_shallow(self):
        atoms = 0
        for i in range(1, self.cfg["wide_measures"] + 1):
            metrics = self.cli(
                "build-measure", "--mu", f"mu_{i}.json",
                "--levels", str(self.cfg["wide_levels"]), "--out", f"wide_{i}.jsonl",
                artifact=f"wide_{i}.jsonl", category="build")
            atoms += metrics.get("atoms", 0)
            self.cli("verify-boundary", "--poly", f"f_{i}.json", "--atoms", f"wide_{i}.jsonl",
                     "--mu", f"mu_{i}.json", "--out", f"boundary_{i}.csv")
            self.cli("moments", "--atoms", f"wide_{i}.jsonl", "--pairs", self._WIDE_PAIRS,
                     "--t-max", repr(metrics.get("t_max", 1.0)), "--mu", f"mu_{i}.json",
                     "--out", f"moments_{i}.jsonl")
        return atoms

    # Moments of all 81 pairs of characters with exponents in {0, 1, 2}^2.
    _LARGE_PAIRS = ";".join(
        f"{a1},{a2}:{b1},{b2}"
        for a1 in range(3) for a2 in range(3) for b1 in range(3) for b2 in range(3)
    )

    def _analyze_large(self):
        import numpy as np
        from bench import tracing
        from polytorus import measures

        bounds = self.boundaries
        tail = np.linspace(bounds[-2], bounds[-1], self.cfg["large_tail_points"] + 1)[1:]
        grid = ",".join(repr(float(T)) for T in [*bounds[:-2], *tail[:-1], bounds[-1]])
        self.cli("verify-boundary", "--poly", "f.json", "--atoms", "large.jsonl",
                 "--mu", "mu.json", "--t-grid", grid, "--out", "boundary.csv")
        self.cli("moments", "--atoms", "large.jsonl", "--pairs", self._LARGE_PAIRS,
                 "--t-max", repr(bounds[-1]), "--mu", "mu.json", "--out", "moments.jsonl")

        stored = (self.dir / "large.jsonl").read_bytes()
        lam = self.step("measures.decode", "codec", measures.atoms_from_bytes, stored,
                        attrs=tracing.result_atoms)
        for k in range(1, len(bounds) + 1):
            t_lo = bounds[k - 2] if k > 1 else 0.0
            result = self.step("measures.window_check", "check", measures.window_check,
                               lam, t_lo, bounds[k - 1], [self.F], self.mu,
                               self._window_tolerance(k))
            self._outcome(f"window_check level {k}", result.passed,
                          f"error {result.worst_error}")

        self.cli("verify-sigma", "--poly", "sigma.json", "--sigma", "1.0",
                 "--t-grid", ",".join(repr(T) for T in self.cfg["sigma_grid"]),
                 "--out", "sigma.csv")

        encoded = self.step("measures.encode", "codec", measures.atoms_to_bytes, lam,
                            attrs=tracing.argument_atoms)
        self._outcome("decode-encode round trip", encoded == stored,
                      "re-encoded bytes differ from the file")
        return 0

    def _window_tolerance(self, k: int) -> float:
        """A-priori bound for the window holding exactly the level-k atoms.

        Level-k atoms pin the first ``min(k, d)`` coordinates within a chord
        of ``2^{-k+1}``, so once ``k >= d`` each ``|f|^2`` value is within
        ``L sqrt(d) 2^{-k+1}`` of ``|F(omega)|^2``; below that only the crude
        cap ``(sum |a_n|)^2`` holds.
        """
        d = self.mu.dimension
        crude = self.f.sup_square_bound()
        chord = self.F.lipschitz_square_bound() * math.sqrt(d) * 2.0 ** (-k + 1)
        bound = min(crude, chord) if k >= d else crude
        return bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def fastest(passes) -> dict[str, tuple[str, float]]:
    """Step -> (category, its shortest time over the passes)."""
    best: dict[str, tuple[str, float]] = {}
    for one in passes:
        for name, (category, seconds) in one["steps"].items():
            if name not in best or seconds < best[name][1]:
                best[name] = (category, seconds)
    return best


def total_of(best, category=None) -> float:
    return sum(s for c, s in best.values() if category in (None, c))


def end_to_end(run: Run, setups, setup_builds, passes) -> dict:
    best = fastest(passes)
    if run.workload == "analyze-large":
        build_s, atoms = min(setup_builds), run.large_atoms
    else:
        build_s, atoms = total_of(best, "build"), passes[0]["atoms"]
    return {
        "setup_s": min(setups),
        "run_s": total_of(best),
        "build_s": build_s,
        "check_s": total_of(best, "check"),
        "atoms_per_s": atoms / build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, traced, untraced) -> dict:
    """Per-layer metrics per traced pass of the timed phase."""
    import numpy as np
    from bench.tracing import self_times

    n = len(traced)
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def busy(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def self_s(prefix):
        return sum(own[s[0]] for s in spans if s[2].startswith(prefix))

    def total(name, key):
        return sum(s[6].get(key, 0) for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = by_name.get("kronecker.solve", [])
    steps = np.array([s[6]["steps"] for s in solves], dtype=np.float64)
    times = np.array([s[4] - s[3] for s in solves], dtype=np.float64)
    # Fixed cost: median time of solves ending within the first 8,192
    # candidates (the solver's first chunk at the time of writing).  Cost per
    # candidate: least-squares slope of time against candidates over the
    # solves that scan further.
    short = steps <= 8192
    fixed = float(np.median(times[short])) if short.any() else 0.0
    per_candidate = 0.0
    if np.count_nonzero(~short) > 1 and np.ptp(steps[~short]) > 0:
        per_candidate = float(np.polyfit(steps[~short], times[~short], 1)[0])
    solve_busy = float(times.sum())
    build_wall = sum(total_of(one["steps"], "build") for one in traced)

    metrics = {
        "kronecker.solves": len(solves) / n,
        "kronecker.busy_s": solve_busy / n,
        "kronecker.build_share": ratio(solve_busy, build_wall),
        "kronecker.candidates_per_solve": ratio(float(steps.sum()), len(solves)),
        "kronecker.us_per_solve": ratio(solve_busy, len(solves)) * 1e6,
        "kronecker.fixed_us_per_solve": float(fixed) * 1e6,
        "kronecker.ns_per_candidate": float(per_candidate) * 1e9,
    }
    for k, e in SOLVE_CLASSES:
        group = [s for s in solves if s[6]["k"] == k and s[6]["e"] == e]
        count = len(group)
        metrics[f"kronecker.k{k}.e{e}.solves"] = count / n
        metrics[f"kronecker.k{k}.e{e}.candidates_per_solve"] = ratio(
            sum(s[6]["steps"] for s in group), count)
        metrics[f"kronecker.k{k}.e{e}.us_per_solve"] = ratio(
            sum(s[4] - s[3] for s in group), count) * 1e6
    unclassified = len(solves) - sum(metrics[f"kronecker.k{k}.e{e}.solves"] * n
                                     for k, e in SOLVE_CLASSES)
    if unclassified:
        print(f"bench: {unclassified:.0f} solves outside the reported (k, eps) classes",
              file=sys.stderr)
    windows = total("nested.build", "windows")
    metrics.update({
        "measures.build.self_s": self_s("measures.build") / n,
        "measures.encode.atoms_per_s": ratio(total("measures.encode", "atoms"),
                                             busy("measures.encode")),
        "measures.decode.atoms_per_s": ratio(total("measures.decode", "atoms"),
                                             busy("measures.decode")),
        "measures.window_check.busy_s": busy("measures.window_check") / n,
        "nested.build.self_s": self_s("nested.build") / n,
        "nested.windows": windows / n,
        "nested.rounds_per_window": ratio(total("nested.build", "rounds"), windows),
        "polynomials.eval_dirichlet.calls": len(by_name.get("polynomials.eval_dirichlet", ())) / n,
        "polynomials.eval_dirichlet.term_evals_per_s": ratio(
            total("polynomials.eval_dirichlet", "term_evals"),
            busy("polynomials.eval_dirichlet")),
        "polynomials.lebesgue_line_mean.busy_s": busy("polynomials.lebesgue_line_mean") / n,
        "polynomials.lebesgue_line_mean.terms": max(
            (s[6]["terms"] for s in by_name.get("polynomials.lebesgue_line_mean", ())),
            default=0),
        "averages.convergence_sweep.self_s": self_s("averages.convergence_sweep") / n,
        "averages.recover_moments.busy_s": busy("averages.recover_moments") / n,
        "averages.boundary_bound.busy_s": busy("averages.boundary_bound") / n,
        "formats.parse.busy_s": busy("formats.parse") / n,
        "cli.self_s": self_s("cli.") / n,
        "trace.overhead_s": total_of(fastest(traced)) - total_of(fastest(untraced)),
    })
    return metrics


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(args) -> int:
    from bench import inputs
    from bench.tracing import Tracer

    variant = inputs.variant_of(args.seed)
    reference = load_reference()
    expected = reference.get(args.size, {}).get(args.workload, {}).get(str(variant), {})
    warm_expected = reference.get("tiny", {}).get(args.workload, {}).get(str(variant), {})
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer()
    run = Run(args.workload, variant, args.size, workdir / "run", tracer, expected)

    # Passes of the timed phase until they have taken --seconds, with a
    # set-up before the first, after each further third of them, and before
    # any pass while set-up is cheap (more samples).  Set-up is a
    # fresh-interpreter import, the inputs, a tiny pass of the same steps (so
    # lazy imports and first calls are paid before timing) and the workload's
    # reference build.  With tracing, passes alternate untraced/traced so
    # both see the same machine.
    setups, setup_builds, untraced, traced = [], [], [], []
    timed = 0.0
    while timed < args.seconds or len(setups) < SETUPS or (args.trace and not traced):
        if (len(setups) < SETUPS and timed >= len(setups) * args.seconds / SETUPS
                or sum(setups) < CHEAP_SETUP * timed):
            began = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import polytorus.cli"], cwd=ROOT,
                           env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
            warm = Run(args.workload, variant, "tiny", workdir / "warm", tracer,
                       warm_expected)
            warm.setup()
            warm.iterate()
            run.attempted += warm.attempted
            run.failures += warm.failures
            setup_builds.append(run.setup())
            setups.append(time.perf_counter() - began)
        began = time.perf_counter()
        if args.trace and len(untraced) > len(traced):
            with tracer.install():
                tracer.run = len(traced)
                traced.append(run.iterate())
        else:
            untraced.append(run.iterate())
        timed += time.perf_counter() - began

    if args.trace:
        metrics = per_layer(tracer.spans, traced, untraced)
        units = PER_LAYER_UNITS
        tracer.write(workdir / "spans.jsonl")
    else:
        metrics = end_to_end(run, setups, setup_builds, untraced)
        units = END_TO_END_UNITS

    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "variant": variant,
                      "size": args.size, "passes": len(untraced) + len(traced),
                      "traced_passes": len(traced), **environment()}))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / run.attempted:.6g} ({failed}/{run.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def suite_digests() -> dict:
    """ROADMAP reference digests: criterion-5 mass suite, criterion-6 boundary suite."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance as acceptance

    mass, _, _ = acceptance.run_mass_suite(acceptance.SEED_MASS)
    _, boundary, _, _ = acceptance.run_boundary_suite(acceptance.SEED_BOUNDARY)
    return {
        f"criterion_5_mass_seed_{acceptance.SEED_MASS}": hashlib.sha256(mass).hexdigest(),
        f"criterion_6_boundary_seed_{acceptance.SEED_BOUNDARY}": boundary,
    }


def reference_suites() -> int:
    """Print the suite digests and compare them with the recorded ones."""
    recorded = load_reference().get("suites", {})
    found = suite_digests()
    for name, digest in found.items():
        print(json.dumps({"suite": name, "sha256": digest, "recorded": recorded.get(name),
                          "status": "match" if recorded.get(name) == digest else "MISMATCH"}))
    return 0 if all(recorded.get(k) == v for k, v in found.items()) else 1


def record_digests() -> int:
    """Recompute every variant's artifact digests and the suite digests.

    Rewrites reference.json only when every operation of every variant
    passed.  Run it only when a workload's definition changes, never to make
    a changed program pass.
    """
    from bench import inputs
    from bench.tracing import Tracer

    reference = {"variants": inputs.VARIANTS}
    failures = []
    for size in ("tiny", "full"):
        for workload in WORKLOADS:
            for variant in range(inputs.VARIANTS):
                run = Run(workload, variant, size, WORK / "record", Tracer(), None)
                shutil.rmtree(run.dir, ignore_errors=True)
                run.setup()
                run.iterate()
                failures += [f"{size} {workload} {variant}: {f}" for f in run.failures]
                reference.setdefault(size, {}).setdefault(workload, {})[str(variant)] = (
                    run.digests)
                print(size, workload, variant, json.dumps(run.digests), flush=True)
    shutil.rmtree(WORK / "record", ignore_errors=True)
    reference["suites"] = suite_digests()
    print(json.dumps(reference["suites"]))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every step at toy size (for the benchmark's tests)")
    parser.add_argument("--reference", action="store_true",
                        help="print the criterion 5/6 reference digests and exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="recompute reference.json for every variant and exit")
    args = parser.parse_args(argv)
    if not (args.reference or args.record_digests or args.workload):
        parser.error("--workload is required")
    import_program()
    if args.reference:
        return reference_suites()
    if args.record_digests:
        return record_digests()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
