"""Every atom file the benchmark's tiny workloads write, and those of one full
variant of each workload, keeps its recorded SHA-256
(``bench/reference.json``): a change that alters an artifact's bytes fails
here, not only in a benchmark run.  So does a library call of the CLI
that the benchmark's tracer no longer sees.  The bench directory is only read.
"""

import os
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def _import_bench():
    """``bench.run``, without the BLAS thread settings it makes for its own
    process at import."""
    saved = dict(os.environ)
    from bench import run

    for name in set(os.environ) - set(saved):
        del os.environ[name]
    os.environ.update(saved)
    return run


bench = _import_bench()
from bench.tracing import Tracer  # noqa: E402

REFERENCE = bench.load_reference()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_tiny_variant_writes_its_reference_atoms(workload, tmp_path):
    variants = REFERENCE["tiny"][workload]
    assert len(variants) == REFERENCE["variants"]
    for variant, expected in sorted(variants.items(), key=lambda kv: int(kv[0])):
        run = bench.Run(workload, int(variant), "tiny", tmp_path / variant,
                        Tracer(), expected)
        run.setup()
        run.iterate()
        assert run.failures == [], f"variant {variant}"
        assert run.digests == expected, f"variant {variant}"


# The full variant the benchmark runs at seed 9 (variant = seed % 32).
FULL_VARIANT = 9


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_one_full_variant_writes_its_reference_atoms(workload, tmp_path):
    expected = REFERENCE["full"][workload][str(FULL_VARIANT)]
    run = bench.Run(workload, FULL_VARIANT, "full", tmp_path, Tracer(), expected)
    run.setup()
    # analyze-large writes its one atom file in setup(); its passes only check
    if workload != "analyze-large":
        run.iterate()
    assert run.failures == []
    assert run.digests == expected


# Spans by name of one tiny setup() + iterate() of every workload at seed 3,
# traced.  A workload change in bench/ updates these counts.
SEAM_SPANS = {
    "measures.build": 4, "nested.build": 1, "measures.encode": 6,
    "measures.decode": 8, "averages.convergence_sweep": 5,
    "averages.recover_moments": 3, "averages.boundary_bound": 4,
    "formats.parse": 18,
}


def test_tracer_sees_every_library_call_of_the_cli(tmp_path):
    # bench/tracing.py rebinds the library functions the CLI calls through
    # polytorus.cli's globals; a call bound elsewhere records no span
    tracer = Tracer()
    with tracer.install():
        for workload in bench.WORKLOADS:
            run = bench.Run(workload, 3, "tiny", tmp_path / workload, tracer, None)
            run.setup()
            run.iterate()
            assert run.failures == [], workload
    names = [span[2] for span in tracer.spans]
    assert {name: names.count(name) for name in SEAM_SPANS} == SEAM_SPANS
