import contextlib
import gc
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytorus import (MomentPair, MultiIndex, ParseError, atoms_from_bytes, cli,
                       load_atoms)
from polytorus.cli import (_EXPERIMENTS, _OPTIONS, _Path, build_parser, main,
                           write_atomic)

MU_JSON = json.dumps({
    "dim": 2,
    "atoms": [
        {"theta": [0.9, 2.2], "c": 0.6},
        {"theta": [4.0, 1.1], "c": 0.4},
    ],
})

POLY_JSON = json.dumps({
    "basis_dim": 2,
    "terms": [
        {"n": 1, "re": 1.0, "im": 0.0},
        {"n": 2, "re": 1.0, "im": 0.0},
        {"n": 6, "re": 0.5, "im": 0.5},
    ],
})


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "mu.json").write_text(MU_JSON)
    (tmp_path / "f.json").write_text(POLY_JSON)
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


class TestKroneckerCommand:
    def test_solution_line(self, capsys):
        code, out, _ = run_cli(
            ["kronecker", "--dim", "2", "--theta", "1.0,2.0", "--eps", "0.05"],
            capsys,
        )
        assert code == 0
        solution = json.loads(out[0])
        assert set(solution) == {"t", "residuals", "q"}
        assert max(solution["residuals"]) < 0.05
        summary = json.loads(out[1])
        assert summary["kind"] == "kronecker" and summary["pass"]

    def test_repeated_calls_leave_no_cyclic_garbage(self, capsys):
        # in-process callers run many experiments; each call used to leave
        # its argparse parser behind as cyclic garbage
        args = ["kronecker", "--dim", "2", "--theta", "1.0,2.0", "--eps", "0.05"]
        assert main(args) == 0
        gc.collect()
        for _ in range(5):
            assert main(args) == 0
        assert gc.collect() == 0

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_unused_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["kronecker", "--dim", "1", "--theta", "1.0", "--eps", "0.1",
                  flag, "1"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_dim_theta_mismatch(self, capsys):
        code, _, err = run_cli(
            ["kronecker", "--dim", "2", "--theta", "1.0", "--eps", "0.05"],
            capsys,
        )
        assert code == 2
        assert "angles" in err

    def test_eps_out_of_range(self, capsys):
        code, _, _ = run_cli(
            ["kronecker", "--dim", "1", "--theta", "0.0", "--eps", "5.0"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("extra", [["--t-min", "nan"], ["--t-min", "inf"],
                                       ["--theta", "nan"]])
    def test_non_finite_input_exit_2(self, extra, capsys):
        code, _, err = run_cli(
            ["kronecker", "--dim", "1", "--theta", "0.5", "--eps", "0.1", *extra],
            capsys,
        )
        assert code == 2
        assert "finite" in err

    def test_unresolvable_t_min_exit_2(self, capsys):
        code, _, err = run_cli(
            ["kronecker", "--dim", "1", "--theta", "1.0", "--eps", "2e-6",
             "--t-min", "1e15"],
            capsys,
        )
        assert code == 2
        assert "cannot resolve" in json.loads(err)["error"]

    def test_budget_exhaustion_is_exit_3(self, capsys):
        code, _, err = run_cli(
            ["kronecker", "--dim", "3", "--theta", "1.0,2.0,3.0",
             "--eps", "0.01", "--budget", "100"],
            capsys,
        )
        assert code == 3
        assert "budget" in err


class TestBuildMeasureCommand:
    def test_build_and_trace(self, workdir, capsys):
        out_path = workdir / "atoms.jsonl"
        code, out, _ = run_cli(
            ["build-measure", "--mu", workdir / "mu.json",
             "--levels", "4", "--out", out_path],
            capsys,
        )
        assert code == 0
        summary = json.loads(out[-1])
        assert summary["key_metrics"]["mass_trace"] == [2.0, 10.0, 90.0, 1530.0]
        lam = load_atoms(out_path)
        assert len(lam) == 2 * 1530

    def test_budget_exhaustion_is_exit_3(self, workdir, capsys):
        out_path = workdir / "x.jsonl"
        code, out, err = run_cli(
            ["build-measure", "--mu", workdir / "mu.json", "--levels", "4",
             "--budget", "10", "--out", out_path],
            capsys,
        )
        assert code == 3
        assert out == []
        error = json.loads(err)["error"]
        assert "solver failed: budget of 10 steps exhausted" in error
        assert "level=" in error and "source=" in error and "rep=" in error
        assert not out_path.exists()

    def test_determinism_byte_identical(self, workdir, capsys):
        paths = [workdir / "a.jsonl", workdir / "b.jsonl"]
        for path in paths:
            code, _, _ = run_cli(
                ["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "3", "--out", path],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_weights_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"dim": 1, "atoms": [{"theta": [0.5], "c": 0.9}]}')
        code, _, err = run_cli(
            ["build-measure", "--mu", bad, "--levels", "2",
             "--out", workdir / "x.jsonl"],
            capsys,
        )
        assert code == 2
        assert "sum to 1" in err

    @pytest.mark.parametrize("atom", ['{"c": 1.0}', '{"theta": [0.5], "c": NaN}',
                                      '{"theta": [NaN], "c": 1.0}'])
    def test_malformed_mu_exit_2(self, atom, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text(f'{{"dim": 1, "atoms": [{atom}]}}')
        out_path = workdir / "x.jsonl"
        code, out, err = run_cli(
            ["build-measure", "--mu", bad, "--levels", "2", "--out", out_path],
            capsys,
        )
        assert code == 2
        assert out == []
        assert json.loads(err)["pass"] is False
        assert not out_path.exists()

    def test_levels_out_of_range(self, workdir, capsys):
        code, _, _ = run_cli(
            ["build-measure", "--mu", workdir / "mu.json",
             "--levels", "9", "--out", workdir / "x.jsonl"],
            capsys,
        )
        assert code == 2


def mutate_trailer(text, kind, index):
    """An atom file with its trailer dropped, one boundary or mass dropped,
    or every atom from level ``index`` on dropped and the masses rewritten
    to the weights that are left (a faked file)."""
    header, *atoms, trailer = text.splitlines()
    data = json.loads(trailer)
    if kind == "trailer":
        return "\n".join([header, *atoms]) + "\n"
    if kind == "fake":
        atoms = [a for a in atoms if json.loads(a)["k"] < index]
        weights = [(json.loads(a)["k"], json.loads(a)["w"]) for a in atoms]
        data["masses"] = [math.fsum(w for k, w in weights if k <= level)
                          for level in range(1, len(data["masses"]) + 1)]
    else:
        del data[kind][index]
    return "\n".join([header, *atoms, json.dumps(data)]) + "\n"


class TestTrailerMutations:
    LEVELS = 3

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("trailer")
        (directory / "mu.json").write_text(MU_JSON)
        (directory / "f.json").write_text(POLY_JSON)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build-measure", "--mu", str(directory / "mu.json"),
                         "--levels", str(self.LEVELS),
                         "--out", str(directory / "atoms.jsonl")]) == 0
        return directory

    @given(st.one_of(
        st.tuples(st.just("trailer"), st.just(0)),
        st.tuples(st.sampled_from(["boundaries", "masses"]),
                  st.integers(0, LEVELS - 1)),
        st.tuples(st.just("fake"), st.integers(2, LEVELS)),
    ))
    @settings(max_examples=30, deadline=None)
    def test_mutated_trailer_refused(self, built, mutation):
        # Each mutation fails to load, and verify-boundary exits 2 on it;
        # the faked file, whose masses match the atoms left, used to load.
        text = mutate_trailer((built / "atoms.jsonl").read_text(), *mutation)
        with pytest.raises(ParseError):
            atoms_from_bytes(text.encode())
        (built / "mutated.jsonl").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify-boundary", "--poly", str(built / "f.json"),
                         "--atoms", str(built / "mutated.jsonl"),
                         "--mu", str(built / "mu.json"),
                         "--out", str(built / "boundary.csv")])
        assert code == 2
        assert json.loads(err.getvalue())["pass"] is False


class TestVerifyCommands:
    def test_malformed_poly_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"basis_dim": 2, "terms": [{"re": 1.0, "im": 0.0}]}')
        code, out, err = run_cli(
            ["verify-sigma", "--poly", bad, "--sigma", "1.0",
             "--t-grid", "10,100", "--out", workdir / "sigma.csv"],
            capsys,
        )
        assert code == 2
        assert out == []
        line = json.loads(err)
        assert line["kind"] == "verify-sigma" and line["pass"] is False
        assert "'n'" in line["error"]

    @pytest.mark.parametrize("grid", ["10,inf", "inf"])
    def test_verify_sigma_infinite_T_exit_2(self, workdir, capsys, grid):
        # T = inf used to reach the bound check as NaN: a traceback, exit 1
        code, out, err = run_cli(
            ["verify-sigma", "--poly", workdir / "f.json", "--sigma", "0.5",
             "--t-grid", grid, "--out", workdir / "sigma.csv"],
            capsys,
        )
        assert code == 2
        assert out == []
        line = json.loads(err)
        assert line["kind"] == "verify-sigma" and line["pass"] is False
        assert "finite" in line["error"]

    def test_verify_sigma_past_float64_warns_nothing(self, workdir):
        # 7^-sigma underflows to 0 at sigma = 1e308; numpy's overflow warning
        # of sigma * log 7 used to reach stderr
        poly = workdir / "f7.json"
        poly.write_text(json.dumps({"basis_dim": 4, "terms": [
            {"n": 1, "re": 1.0, "im": 0.0}, {"n": 7, "re": 1.0, "im": 0.0}]}))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "polytorus", "verify-sigma", "--poly", str(poly),
             "--sigma", "1e308", "--t-grid", "10,100", "--out", str(workdir / "sigma.csv")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["pass"] is True
        assert "RuntimeWarning" not in done.stderr

    def test_verify_sigma(self, workdir, capsys):
        out_path = workdir / "sigma.csv"
        code, out, _ = run_cli(
            ["verify-sigma", "--poly", workdir / "f.json", "--sigma", "1.0",
             "--t-grid", "100,1000,10000", "--out", out_path],
            capsys,
        )
        assert code == 0
        summary = json.loads(out[-1])
        assert summary["key_metrics"]["final_abs_error"] < 1e-2
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "T,time_mean,target,abs_error"
        assert len(lines) == 4

    def test_verify_boundary(self, workdir, capsys):
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "4", "--out", atoms], capsys)
        code, out, _ = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json",
             "--atoms", atoms, "--mu", workdir / "mu.json",
             "--out", workdir / "boundary.csv"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out[-1])
        assert summary["key_metrics"]["final_abs_error"] <= summary[
            "key_metrics"]["tol"]

    def test_verify_boundary_refuses_inconsistent_atoms(self, workdir, capsys):
        # a header that claims one more level than the trailer records
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "2", "--out", atoms], capsys)
        header, rest = atoms.read_text().split("\n", 1)
        assert '"levels": 2' in header
        atoms.write_text(header.replace('"levels": 2', '"levels": 3') + "\n" + rest)
        code, out, err = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json",
             "--atoms", atoms, "--mu", workdir / "mu.json",
             "--out", workdir / "boundary.csv"],
            capsys,
        )
        assert code == 2 and out == []
        assert "header says 3 levels" in json.loads(err)["error"]

    def test_verify_boundary_names_an_overflowing_line(self, workdir, capsys):
        # a position past float64 on an atom line of the encoder's shape
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "2", "--out", atoms], capsys)
        lines = atoms.read_text().splitlines()
        last = json.loads(lines[-2])
        lines[-2] = lines[-2].replace(f'"t": {last["t"]!r}', '"t": 1e999')
        atoms.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json",
             "--atoms", atoms, "--mu", workdir / "mu.json",
             "--out", workdir / "boundary.csv"],
            capsys,
        )
        assert code == 2 and out == []
        assert (f"line {len(lines) - 1}: position t 1e999 overflows float64"
                in json.loads(err)["error"])

    @pytest.mark.parametrize("field", ["k", "j", "m"])
    def test_verify_boundary_names_an_integer_past_int64(self, field, workdir, capsys):
        # a level, source or repetition past int64 on an atom line of the
        # encoder's shape
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "2", "--out", atoms], capsys)
        lines = atoms.read_text().splitlines()
        old = f'"{field}": {json.loads(lines[3])[field]}'
        lines[3] = lines[3].replace(old, f'"{field}": 9999999999999999999')
        atoms.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json",
             "--atoms", atoms, "--mu", workdir / "mu.json",
             "--out", workdir / "boundary.csv"],
            capsys,
        )
        assert code == 2 and out == []
        name = {"k": "level k", "j": "source j", "m": "repetition m"}[field]
        assert (f"line 4: {name} 9999999999999999999 exceeds int64"
                in json.loads(err)["error"])

    @pytest.mark.parametrize("kind, args", [
        ("verify-boundary", ["--poly", "f.json", "--out", "boundary.csv"]),
        ("moments", ["--pairs", "1,0:0,0", "--t-max", "1e9"]),
    ])
    def test_a_source_past_mu_exits_2(self, kind, args, workdir, capsys):
        # an atom file does not say how many points mu had: a "j": 7 in a
        # file built for the 2-point mu used to load and be checked
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "2", "--out", atoms], capsys)
        lines = atoms.read_text().splitlines()
        atom = json.loads(lines[3])
        lines[3] = lines[3].replace(f'"j": {atom["j"]}', '"j": 7')
        atoms.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            [kind, "--atoms", atoms, "--mu", workdir / "mu.json",
             *[workdir / a if a.endswith((".json", ".csv")) else a for a in args]],
            capsys,
        )
        assert code == 2 and out == []
        assert (f"atom 3 (t={atom['t']!r}) has source j=7, but mu has N=2 points"
                in json.loads(err)["error"])

    def test_verify_sigma_refuses_a_huge_basis(self, workdir, capsys):
        # basis_dim 10^6 used to stall in trial division for the primes
        bad = workdir / "huge.json"
        bad.write_text('{"basis_dim": 1000000, "terms": [{"n": 2, "re": 1.0}]}')
        code, out, err = run_cli(
            ["verify-sigma", "--poly", bad, "--sigma", "1.0",
             "--t-grid", "10,100", "--out", workdir / "sigma.csv"],
            capsys,
        )
        assert code == 2 and out == []
        assert "basis_dim 1000000 exceeds the maximum" in json.loads(err)["error"]

    def test_verify_boundary_refuses_mismatched_masses(self, workdir, capsys):
        # a trailer whose level masses the atoms' weights do not add up to
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "2", "--out", atoms], capsys)
        *rest, trailer = atoms.read_text().splitlines()
        data = json.loads(trailer)
        assert data["masses"] == [2.0, 10.0]
        data["masses"] = [2.0, 11.0]
        atoms.write_text("\n".join([*rest, json.dumps(data)]) + "\n")
        code, out, err = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json",
             "--atoms", atoms, "--mu", workdir / "mu.json",
             "--out", workdir / "boundary.csv"],
            capsys,
        )
        assert code == 2 and out == []
        assert "through level 2 weigh 10.0" in json.loads(err)["error"]

    def test_moments(self, workdir, capsys):
        atoms = workdir / "atoms.jsonl"
        run_cli(["build-measure", "--mu", workdir / "mu.json",
                 "--levels", "3", "--out", atoms], capsys)
        code, out, _ = run_cli(
            ["moments", "--atoms", atoms, "--pairs", "1,0:0,0;1,1:1,1",
             "--t-max", "1e9", "--mu", workdir / "mu.json"],
            capsys,
        )
        assert code == 0
        first = json.loads(out[0])
        assert {"alpha", "beta", "empirical_re", "empirical_im"} <= set(first)

    def test_moments_requires_source_choice(self, workdir, capsys):
        code, _, _ = run_cli(
            ["moments", "--pairs", "1:0", "--t-max", "10"], capsys
        )
        assert code == 2

    def test_nested_build(self, workdir, capsys):
        code, out, _ = run_cli(
            ["nested-build", *nested_inputs(workdir),
             "--levels", "2", "--growth", "const:2",
             "--out", workdir / "nested.jsonl"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out[-1])
        worst = summary["key_metrics"]["worst_window_estimate_by_level"]
        assert worst[0] < 0.5 and worst[1] < 0.25


BIG_WEIGHT_ATOMS = "".join(json.dumps(line) + "\n" for line in [
    {"format": "lambda-atoms", "version": 1, "growth": "2^k", "levels": 1},
    {"t": 1.0, "w": 1e308, "k": 1, "j": 1, "m": 1},
    {"t": 2.0, "w": 1e308, "k": 1, "j": 1, "m": 2},
    {"boundaries": [3.0], "masses": [1e308]},
])


class TestInputsThatLeaveFloat64OrUtf8:
    """Each of these inputs used to end in a traceback with exit 1."""

    def assert_refused(self, args, capsys, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == []
        assert "Traceback" not in err
        assert message in json.loads(err)["error"]

    def test_poly_that_is_not_utf8(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_bytes(POLY_JSON.encode() + b"\xff")
        self.assert_refused(
            ["verify-sigma", "--poly", bad, "--sigma", "1.0",
             "--t-grid", "10,100", "--out", workdir / "sigma.csv"],
            capsys, f"{bad} is not UTF-8 text")

    def test_atoms_that_are_not_utf8(self, workdir, capsys):
        atoms = workdir / "atoms.jsonl"
        lines = BIG_WEIGHT_ATOMS.encode().split(b"\n")
        lines[2] += b"\xff"
        atoms.write_bytes(b"\n".join(lines))
        self.assert_refused(
            ["moments", "--atoms", atoms, "--pairs", "0:1", "--t-max", "3.0",
             "--out", workdir / "m.jsonl"],
            capsys, "line 3: not UTF-8 text")

    def test_atoms_that_cannot_be_opened(self, workdir, capsys):
        missing = workdir / "missing.jsonl"
        self.assert_refused(
            ["moments", "--atoms", missing, "--pairs", "0:1", "--t-max", "3.0"],
            capsys, f"cannot read {missing}")

    def test_coefficients_whose_square_leaves_float64(self, workdir, capsys):
        big = workdir / "big.json"
        big.write_text('{"basis_dim":1,"terms":[{"n":1,"re":1e200},{"n":2,"re":1e200}]}')
        self.assert_refused(
            ["verify-sigma", "--poly", big, "--sigma", "1.0",
             "--t-grid", "10", "--out", workdir / "sigma.csv"],
            capsys, "absolute sum 2e+200 squares past float64")

    def test_atom_weights_that_sum_past_float64(self, workdir, capsys):
        atoms = workdir / "big.jsonl"
        atoms.write_text(BIG_WEIGHT_ATOMS)
        self.assert_refused(
            ["moments", "--atoms", atoms, "--pairs", "0:1", "--t-max", "3.0",
             "--out", workdir / "m.jsonl"],
            capsys, "weights sum past float64")


class TestHugeButFiniteInputs:
    """Each of these used to give NaN, which the verdict let pass or fail by
    chance."""

    def test_sigma_of_1e308_targets_the_constant_term(self, workdir, capsys):
        # -2 * sigma overflowed, and -inf * log 1 made the target NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                ["verify-sigma", "--poly", workdir / "f.json", "--sigma", "1e308",
                 "--t-grid", "10,100", "--out", workdir / "sigma.csv"], capsys)
        summary = json.loads(out[-1])
        assert code == 0 and summary["pass"] is True
        assert summary["key_metrics"]["target"] == 1.0  # |a_1|^2
        assert summary["key_metrics"]["final_abs_error"] == 0.0

    def test_lebesgue_moment_at_t_max_1e308_is_its_limit(self, workdir, capsys):
        # T * log 8 overflowed, the kernel gave NaN, and the NaN error passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                ["moments", "--lebesgue", "--pairs", "3:0", "--t-max", "1e308",
                 "--mu", workdir / "mu.json"], capsys)
        row, summary = json.loads(out[0]), json.loads(out[-1])
        assert (row["empirical_re"], row["empirical_im"]) == (0.0, 0.0)
        worst = summary["key_metrics"]["worst_abs_error"]
        assert worst == abs(complex(row["reference_re"], row["reference_im"]))
        assert summary["pass"] is (worst < 0.2) and code == (0 if worst < 0.2 else 1)

    @pytest.mark.parametrize("source", ["atoms", "lebesgue"])
    def test_moment_exponents_near_2_53_finish_at_once(self, source, workdir, capsys):
        # a power is taken by repeated squaring: 53 squarings for 2^53
        chosen = ["--lebesgue"]
        if source == "atoms":
            atoms = workdir / "atoms.jsonl"
            run_cli(["build-measure", "--mu", workdir / "mu.json",
                     "--levels", "3", "--out", atoms], capsys)
            chosen = ["--atoms", atoms]
        top = 2**53
        pairs = f"{top},1:0,{top - 1};0,{top - 1}:{top},1;{top - 1}:{top};0,{top}:{top},0"
        started = time.perf_counter()
        code, out, err = run_cli(
            ["moments", *chosen, "--pairs", pairs, "--t-max", "1e9"], capsys)
        assert time.perf_counter() - started < 0.5
        assert code in (0, 2) and "Traceback" not in err
        if code == 0:
            first, swapped = json.loads(out[0]), json.loads(out[1])
            assert first["empirical_re"] == swapped["empirical_re"]
            assert first["empirical_im"] == -swapped["empirical_im"]

    def test_a_nan_moment_error_fails(self, workdir, capsys, monkeypatch):
        # max(0.0, nan) is 0.0: the NaN after an exact pair used to pass
        def moments(lam, basis, pairs, T, mu=None):
            return [MomentPair(MultiIndex([1]), MultiIndex(), 0.5j, 0.5j),
                    MomentPair(MultiIndex([2]), MultiIndex(), complex(math.nan, 0.0), 0.5j)]

        monkeypatch.setattr(cli, "recover_moments", moments)
        code, out, _ = run_cli(
            ["moments", "--lebesgue", "--pairs", "1:0;2:0", "--t-max", "10",
             "--mu", workdir / "mu.json"], capsys)
        summary = json.loads(out[-1])
        assert code == 1 and summary["pass"] is False
        assert math.isnan(summary["key_metrics"]["worst_abs_error"])


def nested_inputs(workdir):
    """Write a two-measure sequence and a test family; returns their flags."""
    seq = workdir / "seq.json"
    seq.write_text(json.dumps({
        "measures": [json.loads(MU_JSON), json.loads(MU_JSON)]
    }))
    polys = workdir / "polys.json"
    polys.write_text(json.dumps({
        "polynomials": [
            {"terms": [{"alpha": [], "re": 1.0}]},
            {"terms": [{"alpha": [1], "re": 1.0},
                       {"alpha": [0, 1], "re": 0.5}]},
        ]
    }))
    return ["--mu-seq", seq, "--polys", polys]


@pytest.mark.parametrize("kind", ["build-measure", "nested-build"])
@pytest.mark.parametrize("growth, match", [
    ("const:abc", "decimal integer"),
    ("const:2.5", "decimal integer"),
    ("const:", "decimal integer"),
    ("const:1e3", "decimal integer"),
    ("const:-1", "decimal integer"),
    ("const:0", "[1, 2^53]"),
    ("const:" + "9" * 400, "[1, 2^53]"),
    ("linear", "unknown growth schedule"),
])
def test_bad_growth_exit_2(kind, growth, match, workdir, capsys):
    # a growth factor int() refused, or one too large for the level plan's
    # float64 counts, used to end in a traceback with exit 1
    inputs = (["--mu", workdir / "mu.json"] if kind == "build-measure"
              else nested_inputs(workdir))
    out_path = workdir / "x.jsonl"
    code, out, err = run_cli(
        [kind, *inputs, "--levels", "2", "--growth", growth, "--out", out_path],
        capsys,
    )
    assert code == 2 and out == []
    assert match in json.loads(err)["error"]
    assert not out_path.exists()


class TestConfigFile:
    def test_flags_override_config(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text(json.dumps({
            "dim": 1, "theta": "0.0", "eps": 0.2, "t_min": 5.0
        }))
        code, out, _ = run_cli(
            ["kronecker", "--config", config, "--eps", "0.1"], capsys
        )
        assert code == 0
        solution = json.loads(out[0])
        assert solution["t"] > 5.0
        assert max(solution["residuals"]) < 0.1

    @pytest.mark.parametrize("content, match", [
        ({"levels": "abc"}, "levels must be an integer"),
        ({"levels": True}, "levels must be an integer"),
        ({"levels": 2.5}, "levels must be an integer"),
        ({"levels": 2, "eps": "0.1"}, "eps must be a finite number"),
        ({"levels": 2, "budget": False}, "budget must be a finite number"),
    ])
    def test_mistyped_config_exit_2(self, content, match, workdir, capsys):
        config = workdir / "config.json"
        config.write_text(json.dumps(content))
        code, _, err = run_cli(
            ["build-measure", "--config", config, "--mu", workdir / "mu.json",
             "--out", workdir / "lam.jsonl"],
            capsys,
        )
        assert code == 2
        assert match in json.loads(err)["error"]
        assert not (workdir / "lam.jsonl").exists()

    @pytest.mark.parametrize("kind, content, match", [
        ("kronecker", {"dim": 1, "theta": 5, "eps": 0.1}, "theta must be a string"),
        # a path given as a number would be opened as a file descriptor
        ("build-measure", {"mu": 0, "levels": 2}, "mu must be a string"),
        ("build-measure", {"mu": "mu.json", "levels": 2, "growth": 2},
         "growth must be a string"),
        ("moments", {"lebesgue": 1, "pairs": "1:0", "t_max": 5.0},
         "lebesgue must be true or false"),
        ("moments", {"lebesgue": True, "pairs": [[1], [0]], "t_max": 5.0},
         "pairs must be a string"),
    ])
    def test_mistyped_text_option_exit_2(self, kind, content, match, workdir,
                                         capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        config = workdir / "config.json"
        config.write_text(json.dumps({**content, "out": str(workdir / "x.out")}))
        code, _, err = run_cli([kind, "--config", config], capsys)
        assert code == 2
        assert match in json.loads(err)["error"]
        assert not (workdir / "x.out").exists()

    def test_non_finite_config_token_exit_2(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text('{"dim": 1, "theta": "0.0", "eps": NaN}')
        code, _, err = run_cli(["kronecker", "--config", config], capsys)
        assert code == 2
        assert "NaN" in json.loads(err)["error"]

    def test_integer_past_the_digit_limit_exit_2(self, workdir, capsys):
        # a plain ValueError from json.loads used to end in a traceback
        config = workdir / "config.json"
        config.write_text('{"levels": ' + "1" * 5000 + "}")
        code, _, err = run_cli(["build-measure", "--config", config,
                                "--mu", workdir / "mu.json", "--out", workdir / "x"],
                               capsys)
        assert code == 2
        assert "invalid JSON" in json.loads(err)["error"]

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_flag_exit_2(self, budget, capsys):
        code, _, err = run_cli(
            ["kronecker", "--dim", "1", "--theta", "1.0", "--eps", "0.1",
             "--budget", budget],
            capsys,
        )
        assert code == 2
        assert "budget must be a finite number" in json.loads(err)["error"]

    @pytest.mark.parametrize("kind", ["kronecker", "build-measure", "nested-build"])
    @pytest.mark.parametrize("budget", ["2.5", "0.5", "1e-3", "1000000.5"])
    def test_budget_flag_that_is_not_whole_exit_2(self, kind, budget, workdir, capsys):
        # the runners turn the budget into an int; 2.5 used to run as 2
        # (kronecker writes no artifact, so it takes no --out)
        out = [] if kind == "kronecker" else ["--out", workdir / "x.out"]
        code, _, err = run_cli([kind, "--budget", budget, *out], capsys)
        assert code == 2
        assert json.loads(err)["error"].startswith("budget must be a whole number")
        assert not (workdir / "x.out").exists()

    @pytest.mark.parametrize("kind", ["kronecker", "build-measure", "nested-build"])
    def test_fractional_budget_in_config_exit_2(self, kind, workdir, capsys):
        config = workdir / "config.json"
        config.write_text(json.dumps({"budget": 2.5, "out": str(workdir / "x.out")}))
        code, _, err = run_cli([kind, "--config", config], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "budget must be a whole number, got 2.5"
        assert not (workdir / "x.out").exists()

    def test_budget_in_exponent_notation_runs(self, capsys):
        code, out, _ = run_cli(
            ["kronecker", "--dim", "2", "--theta", "1.0,2.0", "--eps", "0.01",
             "--budget", "1e6"],
            capsys,
        )
        assert code == 0
        assert max(json.loads(out[0])["residuals"]) < 0.01


# (experiment, flag) pairs the parser used to accept although nothing read them
REMOVED_FLAGS = [
    ("kronecker", "--out"), ("kronecker", "--tol"), ("build-measure", "--tol"),
    ("nested-build", "--tol"), ("verify-sigma", "--budget"),
    ("verify-boundary", "--budget"), ("moments", "--budget"),
]


class TestOptionTable:
    """Each experiment accepts only the options its runner reads."""

    @pytest.fixture
    def atoms(self, workdir, capsys):
        path = workdir / "atoms.jsonl"
        code, _, _ = run_cli(["build-measure", "--mu", workdir / "mu.json",
                              "--levels", "2", "--out", path], capsys)
        assert code == 0
        return path

    def test_flags_are_the_options_read(self):
        experiments = build_parser()._subparsers._group_actions[0].choices
        pairs = set()
        for kind, parser in experiments.items():
            flags = {flag for action in parser._actions
                     for flag in action.option_strings} - {"-h", "--help", "--config"}
            assert flags == {"--" + name.replace("_", "-")
                             for name in _EXPERIMENTS[kind][1]}
            pairs |= {(kind, flag) for flag in flags}
        assert len(pairs) == 34
        assert not pairs & set(REMOVED_FLAGS)

    @pytest.mark.parametrize("kind, flag", REMOVED_FLAGS)
    def test_flag_nothing_reads_exit_2(self, kind, flag, workdir, capsys):
        # `kronecker --out never.json` used to exit 0 and write nothing
        never = workdir / "never.json"
        with pytest.raises(SystemExit) as info:
            main([kind, flag, str(never) if flag == "--out" else "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not never.exists()

    def test_config_key_the_experiment_does_not_read_exit_2(self, workdir, capsys):
        config = workdir / "config.json"
        config.write_text(json.dumps({"levls": 3, "tol": 5, "sigma": 1.0}))
        out_path = workdir / "lam.jsonl"
        code, out, err = run_cli(
            ["build-measure", "--config", config, "--mu", workdir / "mu.json",
             "--levels", "1", "--out", out_path], capsys)
        assert code == 2 and out == []
        assert json.loads(err)["error"] == "build-measure does not read levls, sigma, tol"
        assert not out_path.exists()

    def test_verify_sigma_tol_zero_is_judged_as_zero(self, workdir, capsys):
        code, out, _ = run_cli(
            ["verify-sigma", "--poly", workdir / "f.json", "--sigma", "1.0",
             "--t-grid", "100", "--out", workdir / "sigma.csv", "--tol", "0"],
            capsys)
        summary = json.loads(out[-1])
        assert code == 1 and summary["pass"] is False
        assert summary["key_metrics"]["tol"] == 0.0

    def test_moments_tol_zero_is_judged_as_zero(self, workdir, atoms, capsys):
        code, out, _ = run_cli(
            ["moments", "--atoms", atoms, "--pairs", "1,0:0,0", "--t-max", "1e9",
             "--mu", workdir / "mu.json", "--out", workdir / "m.jsonl", "--tol", "0"],
            capsys)
        summary = json.loads(out[-1])
        assert code == 1 and summary["pass"] is False
        assert summary["key_metrics"]["tol"] == 0.0

    def test_empty_growth_exit_2(self, workdir, capsys):
        out_path = workdir / "lam.jsonl"
        code, _, err = run_cli(
            ["build-measure", "--mu", workdir / "mu.json", "--levels", "1",
             "--growth", "", "--out", out_path], capsys)
        assert code == 2
        assert "unknown growth schedule" in json.loads(err)["error"]
        assert not out_path.exists()

    def test_empty_t_grid_exit_2(self, workdir, atoms, capsys):
        out_path = workdir / "boundary.csv"
        code, _, err = run_cli(
            ["verify-boundary", "--poly", workdir / "f.json", "--atoms", atoms,
             "--mu", workdir / "mu.json", "--t-grid", "", "--out", out_path], capsys)
        assert code == 2
        assert "T grid must not be empty" in json.loads(err)["error"]
        assert not out_path.exists()

    @pytest.mark.parametrize("source, pairs, match", [
        ("atoms", "-1:0", "multi-index entries must be >= 0"),
        ("lebesgue", "99999999999999999999:0", "has an exponent above 9007199254740992"),
    ])
    def test_moment_exponent_outside_the_domain_exit_2(self, source, pairs, match,
                                                       atoms, capsys):
        # each used to end in a traceback with exit 1
        chosen = ["--atoms", atoms] if source == "atoms" else ["--lebesgue"]
        code, out, err = run_cli(
            ["moments", *chosen, f"--pairs={pairs}", "--t-max", "10"], capsys)
        assert code == 2 and out == []
        assert match in json.loads(err)["error"]

    def test_moments_of_fewer_coordinates_than_mu(self, workdir, atoms, capsys):
        # a one-coordinate pair against the 2-D mu used to fail to broadcast
        code, out, _ = run_cli(
            ["moments", "--atoms", atoms, "--pairs", "1:0", "--t-max", "1e9",
             "--mu", workdir / "mu.json"], capsys)
        assert code == 0
        row = json.loads(out[0])
        assert row["reference_re"] == pytest.approx(0.6 * math.cos(0.9)
                                                    + 0.4 * math.cos(4.0))

    @pytest.mark.parametrize("option", ["mu", "out"])
    def test_empty_path_exit_2(self, option, workdir, capsys, monkeypatch):
        # an empty --out used to place its temp file in the parent of the
        # working directory, then fail in a traceback
        run_dir = workdir / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        paths = {"mu": str(workdir / "mu.json"), "out": "lam.jsonl", option: ""}
        code, _, err = run_cli(
            ["build-measure", "--mu", paths["mu"], "--levels", "1",
             "--out", paths["out"]], capsys)
        assert code == 2
        assert json.loads(err)["error"] == f"{option} must name a file, got ''"
        assert sorted(p.name for p in workdir.iterdir()) == ["f.json", "mu.json", "run"]
        assert list(run_dir.iterdir()) == []

    def test_out_that_cannot_be_written_exit_2(self, workdir, capsys):
        out_path = workdir / "missing" / "lam.jsonl"
        code, _, err = run_cli(
            ["build-measure", "--mu", workdir / "mu.json", "--levels", "1",
             "--out", out_path], capsys)
        assert code == 2
        assert f"cannot write {out_path}" in json.loads(err)["error"]


# A valid configuration of each experiment; the fuzz oracle drops and
# replaces some of its keys.  Paths are relative to the work directory.
FUZZ_OUT = "out.artifact"
FUZZ_BASE = {
    "kronecker": {"dim": 2, "theta": "0.5,1.0", "eps": 0.5},
    "build-measure": {"mu": "mu.json", "levels": 2, "out": FUZZ_OUT},
    "verify-sigma": {"poly": "f.json", "sigma": 1.0, "t_grid": "10,100", "out": FUZZ_OUT},
    "verify-boundary": {"poly": "f.json", "atoms": "atoms.jsonl", "mu": "mu.json",
                        "out": FUZZ_OUT},
    "nested-build": {"mu_seq": "seq.json", "polys": "polys.json", "levels": 2,
                     "growth": "const:2", "out": FUZZ_OUT},
    "moments": {"atoms": "atoms.jsonl", "pairs": "1,0:0,1", "t_max": 1e3,
                "mu": "mu.json", "out": FUZZ_OUT},
}
FUZZ_KEYS = sorted(_OPTIONS) + ["levls", "seed", "config", "kind"]
# Values by option type; every number keeps levels <= 2 and budget <= 10^4 or
# is refused, so each example runs in milliseconds.
FUZZ_TYPED = {
    int: [-1, 0, 1, 2, 10**30],
    float: [-1, 0, 0.5, 2.5, 10**4, 1e308, -1e308],
    str: ["", "x", "1.0", "0.5,1.0", "10,100", "const:2", "default",
          "-1:0", "1:0", "1,0:0,1", "99999999999999999999:0"],
    bool: [True, False],
}
FUZZ_TYPED[_Path] = ["mu.json", "f.json", "seq.json", "polys.json", "atoms.jsonl",
                     "", ".", "missing.json", "missing/out", FUZZ_OUT]
FUZZ_VALUES = [v for pool in FUZZ_TYPED.values() for v in pool] + [None, [], [1], {"a": 1}]


@st.composite
def fuzz_cases(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_BASE)))
    config = dict(FUZZ_BASE[kind])
    for key in draw(st.lists(st.sampled_from(sorted(config)), max_size=1)):
        del config[key]
    for _ in range(draw(st.integers(0, 2))):
        # half the keys are ones the experiment reads, and half the values
        # of an option have its type
        key = draw(st.sampled_from(_EXPERIMENTS[kind][1]) | st.sampled_from(FUZZ_KEYS))
        values = st.sampled_from(FUZZ_VALUES)
        if key in _OPTIONS:
            values |= st.sampled_from(FUZZ_TYPED[_OPTIONS[key][0]])
        config[key] = draw(values)
    return kind, config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A work directory with every input file, and their bytes."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "mu.json").write_text(MU_JSON)
    (directory / "f.json").write_text(POLY_JSON)
    nested_inputs(directory)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build-measure", "--mu", str(directory / "mu.json"),
                     "--levels", "2", "--out", str(directory / "atoms.jsonl")]) == 0
    return directory, {p.name: p.read_bytes() for p in directory.iterdir()}


def run_in(directory, files, kind, config):
    """``main([kind, "--config", "config.json"])`` in ``directory`` holding
    exactly ``files`` (name to bytes) and ``config`` (JSON, or bytes as
    they are); returns the exit code and stderr."""
    for path in directory.iterdir():
        path.unlink()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    if not isinstance(config, bytes):
        config = json.dumps(config).encode()
    (directory / "config.json").write_bytes(config)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([kind, "--config", "config.json"])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


class TestOptionFuzz:
    @given(case=fuzz_cases())
    @example(case=("moments", {"atoms": "atoms.jsonl", "pairs": "-1:0", "t_max": 10}))
    @example(case=("moments", {"lebesgue": True, "pairs": "99999999999999999999:0",
                               "t_max": 10}))
    @example(case=("build-measure", {"mu": "mu.json", "levels": 1, "out": ""}))
    @settings(max_examples=500, deadline=None)
    def test_any_config_exits_cleanly(self, fuzz_dir, case):
        # exit 0-3 and never a traceback; a refusal or a failed construction
        # leaves no artifact
        directory, files = fuzz_dir
        code, err = run_in(directory, files, *case)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        if code in (2, 3):
            assert not (directory / FUZZ_OUT).exists(), err


# Extremes the file fuzz writes in place of one number of an input file.
FUZZ_NUMBERS = ["0", "-0", "-1", "0.5", "1e308", "-1e308", "1e309", "5e-324", "1e-400",
                "9223372036854775807", "9223372036854775808", "1" + "0" * 400,
                "NaN", "Infinity", "-Infinity"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def mutate(data, how, i, j):
    """``data`` with one mutation, ``how`` of "flip" (one byte), "delete"
    (1-16 bytes), "repeat" (one line, 1-3 more times) or "number" (one number
    token, if there is one, made an extreme); any ``i`` and ``j`` >= 0 pick
    where and what."""
    if how == "flip":
        i %= len(data)
        return data[:i] + bytes([data[i] ^ (1 + j % 255)]) + data[i + 1:]
    if how == "delete":
        i %= len(data) + 1
        return data[:i] + data[i + 1 + j % 16:]
    if how == "repeat":
        lines = data.splitlines(keepends=True)
        i %= len(lines)
        return b"".join(lines[:i + 1] + [lines[i]] * (1 + j % 3) + lines[i + 1:])
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    token = numbers[i % len(numbers)]
    return data[:token.start()] + FUZZ_NUMBERS[j % len(FUZZ_NUMBERS)].encode() + data[token.end():]


def fuzz_inputs(kind):
    """The files ``run_in`` gives ``kind``: its configuration and the input
    files it names."""
    inputs = [value for key, value in FUZZ_BASE[kind].items()
              if _OPTIONS[key][0] is _Path and value != FUZZ_OUT]
    return ["config.json", *inputs]


class TestInputFileFuzz:
    @given(kind=st.sampled_from(sorted(FUZZ_BASE)), pick=st.integers(0, 3),
           how=st.sampled_from(["flip", "delete", "repeat", "number"]),
           i=st.integers(0, 1 << 20), j=st.integers(0, 1 << 10))
    # a sigma of 10^400 in the configuration: float() raised OverflowError
    @example(kind="verify-sigma", pick=0, how="number", i=0, j=11)
    # an exponent of 10^400 in the test family: bohr_unlift computed 3^(10^400)
    @example(kind="nested-build", pick=2, how="number", i=1, j=11)
    @settings(max_examples=500, deadline=None)
    def test_any_mutated_input_exits_cleanly(self, fuzz_dir, kind, pick, how, i, j):
        # each experiment on its valid inputs, one of them mutated: exit 0-3
        # and never a traceback
        directory, files = fuzz_dir
        inputs = {**files, "config.json": json.dumps(FUZZ_BASE[kind]).encode()}
        names = fuzz_inputs(kind)
        name = names[pick % len(names)]
        inputs[name] = mutate(inputs[name], how, i, j)
        config = inputs.pop("config.json")
        code, err = run_in(directory, inputs, kind, config)
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err


class TestAtomicWrite:
    def test_no_partial_artifact_on_crash(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.csv"

        def boom(src, dst):
            raise RuntimeError("injected crash between write and rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(RuntimeError):
            write_atomic(str(target), b"partial")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_successful_write(self, tmp_path):
        target = tmp_path / "artifact.csv"
        write_atomic(str(target), b"data")
        assert target.read_bytes() == b"data"
