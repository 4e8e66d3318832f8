"""Seeded input files for the benchmark workloads.

Everything here is a pure function of ``(workload, variant, size)`` built on
the standard library's ``random.Random`` (string seeds are hashed with
SHA-512, so the streams do not depend on numpy or on the hash seed).  The
program under test only ever sees the JSON files these functions return.

A run's ``--seed`` selects one of ``VARIANTS`` input variants, so every input
the benchmark can generate has a reference artifact digest recorded in
``reference.json``.
"""

from __future__ import annotations

import json
import math
import random

VARIANTS = 32
TWO_PI = 2.0 * math.pi
PRIMES = (2, 3, 5, 7)

# Workload shapes.  "full" is what the benchmark measures; "tiny" keeps every
# step and metric of the full workload at a size the benchmark's own tests
# can run in seconds.
SIZES = {
    "full": {
        # deep-lattice: single-point measures, so every solve of a level is a
        # return to the same target box and the mean candidate count per
        # solve is (pi/eps)^2 for every seed (Kac's lemma).
        "deep_measures": 2,
        "deep_levels": 7,
        "nested_levels": 3,
        "nested_lipschitz": 3.0,   # L*sqrt(3) in (2, 4]: depth margin 4
        # wide-shallow
        "wide_measures": 8,
        "wide_levels": 4,
        # analyze-large
        "large_levels": 5,
        "large_terms": 30,
        "large_tail_points": 20,
        "sigma_terms": 2000,
        "sigma_grid": (1e8,),
        "setup_reps": 3,
    },
    "tiny": {
        "deep_measures": 1,
        "deep_levels": 3,
        "nested_levels": 2,
        "nested_lipschitz": 0.9,   # margin 2
        "wide_measures": 2,
        "wide_levels": 3,
        "large_levels": 3,
        "large_terms": 6,
        "large_tail_points": 4,
        "sigma_terms": 40,
        "sigma_grid": (1e3, 1e5),
        "setup_reps": 2,
    },
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def rng_for(workload: str, variant: int) -> random.Random:
    return random.Random(f"polytorus-bench/{workload}/{variant}")


def _coefficient(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    mag = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, TWO_PI)
    return mag * math.cos(phase), mag * math.sin(phase)


def point_mass(rng: random.Random, dim: int, n_atoms: int) -> dict:
    """Point-mass measure; weights are float-normalized to sum to 1."""
    raw = [rng.uniform(0.2, 1.0) for _ in range(n_atoms)]
    total = math.fsum(raw)
    atoms = [
        {"theta": [rng.uniform(0.0, TWO_PI) for _ in range(dim)],
         "c": 1.0 if n_atoms == 1 else w / total}
        for w in raw
    ]
    return {"dim": dim, "atoms": atoms}


def _frequency(exponents) -> int:
    n = 1
    for p, e in zip(PRIMES, exponents):
        n *= p**e
    return n


def dirichlet(rng: random.Random, dim: int, exponent_ranges, n_terms: int) -> dict:
    """``n_terms`` distinct frequencies drawn from the exponent box."""
    boxes = [()]
    for top in exponent_ranges:
        boxes = [box + (e,) for box in boxes for e in range(top + 1)]
    chosen = rng.sample(boxes, n_terms)
    terms = []
    for exps in sorted(chosen, key=_frequency):
        re, im = _coefficient(rng, 0.3, 1.2)
        terms.append({"n": _frequency(exps), "re": re, "im": im})
    return {"basis_dim": dim, "terms": terms}


def boundary_poly(rng: random.Random, dim: int = 3) -> dict:
    """Five-term polynomial with >= 4 frequencies, >= 2 of them using p_d."""
    while True:
        terms = {}
        for _ in range(5):
            n = _frequency([rng.randrange(3) for _ in range(dim)])
            terms[n] = _coefficient(rng, 0.5, 1.2)
        heavy = sum(1 for n in terms if n % PRIMES[dim - 1] == 0)
        if len(terms) >= 4 and heavy >= 2:
            return {"basis_dim": dim, "terms": [
                {"n": n, "re": re, "im": im} for n, (re, im) in sorted(terms.items())
            ]}


def torus_family(rng: random.Random, dim: int, count: int, lipschitz: float) -> dict:
    """Test polynomials scaled so that ``max_F L(F) * sqrt(dim) == lipschitz``.

    ``L(F) = 2 (sum |a|) (sum |a| |alpha|_1)`` is the nested builder's
    Lipschitz bound; fixing it fixes the builder's depth margin, and with it
    the tolerance of every nested solve, for every variant.
    """
    raw = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            alpha = tuple(rng.randrange(2) for _ in range(dim))
            terms[alpha] = _coefficient(rng, 0.3, 1.2)
        raw.append(terms)

    def bound(terms):
        mags = {alpha: math.hypot(re, im) for alpha, (re, im) in terms.items()}
        return 2.0 * sum(mags.values()) * sum(m * sum(a) for a, m in mags.items())

    worst = max(bound(terms) for terms in raw) * math.sqrt(dim)
    scale = math.sqrt(lipschitz / worst)
    return {"polynomials": [
        {"basis_dim": dim, "terms": [
            {"alpha": list(alpha), "re": scale * re, "im": scale * im}
            for alpha, (re, im) in sorted(terms.items())
        ]}
        for terms in raw
    ]}


def generate(workload: str, variant: int, size: str = "full") -> dict[str, str]:
    """File name -> JSON text for one workload variant."""
    cfg = SIZES[size]
    rng = rng_for(workload, variant)
    files: dict[str, object] = {}
    if workload == "deep-lattice":
        for i in range(1, cfg["deep_measures"] + 1):
            files[f"mu_{i}.json"] = point_mass(rng, 3, 1)
            files[f"f_{i}.json"] = boundary_poly(rng)
        files["seq.json"] = {"measures": [point_mass(rng, 3, 3) for _ in range(2)]}
        files["polys.json"] = torus_family(rng, 3, 5, cfg["nested_lipschitz"])
    elif workload == "wide-shallow":
        for i in range(1, cfg["wide_measures"] + 1):
            files[f"mu_{i}.json"] = point_mass(rng, 3, 3)
            files[f"f_{i}.json"] = boundary_poly(rng)
    elif workload == "analyze-large":
        files["mu.json"] = point_mass(rng, 2, 1)
        files["f.json"] = dirichlet(rng, 2, (6, 6), cfg["large_terms"])
        files["sigma.json"] = dirichlet(rng, 4, (11, 7, 5, 4), cfg["sigma_terms"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {name: json.dumps(data) + "\n" for name, data in files.items()}
