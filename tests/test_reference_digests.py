"""Every atom file the benchmark's tiny workloads write keeps its recorded
SHA-256 (``bench/reference.json``): a change that alters an artifact's bytes
fails here, not only in a benchmark run.  The bench directory is only read.
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
