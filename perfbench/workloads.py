"""Workload generators: one calorix CLI config per (workload, seed).

Every random input of a run comes from ``--seed`` through these functions:
the config's own ``seed`` field (it drives the CLI's probe points and jump
densities) and, for the ladder, the direction of the exponential data's
frequency ``xi``.  The CLI receives only the generated config.
"""

import math
import random

LADDER_A = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]]
PLANAR_A = [[2.0, 1.0], [1.0, 2.0]]
IDENTITY_3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# Generator parameters; the "why" of each workload is in BENCHMARK.json
# and perfbench/README.md.
PARAMS = {
    # n=3 ball, 12288 rows x 455 columns at degree 12: solver + polynomials,
    # no potentials.  Cross-validation would add ~9 s per run, so it is off.
    "ladder": {
        "n": 3, "matrix": LADDER_A, "kind": "ball", "T": 0.5,
        "mesh": (32, 16, 8), "degrees": list(range(13)), "rcond": 1e-12,
        "xi_norm": 0.5, "final_max_residual": 1e-6, "reference": "dense",
    },
    # near-wall jump probes: graded rules, Richardson ladder
    "jumps": {
        "n": 2, "matrix": PLANAR_A, "kind": "disk", "T": 1.0,
        "mesh": (96, 48, 24), "probes": 10,
        "kinds": ["double", "conormal_single"], "tolerance": 1e-2,
        "reference": "mixed",
    },
    # far-field identities: lateral sums and caps over 200 targets
    "identities": {
        "n": 2, "matrix": PLANAR_A, "kind": "disk", "T": 1.0,
        "mesh": (128, 48, 24), "interior_probes": 100,
        "exterior_probes": 100, "tolerance": 1e-6, "reference": "mixed",
    },
    # the only path through the n=3 sphere rule and elliptic_gauss_identity;
    # some of its checks fail today and that share is reported, not masked
    "identities3d": {
        "n": 3, "matrix": IDENTITY_3, "kind": "ball", "T": 1.0,
        "mesh": (48, 32, 16), "interior_probes": 30,
        "exterior_probes": 30, "tolerance": 1e-6, "reference": "mixed",
    },
}

NAMES = tuple(PARAMS)

# fewest timed samples behind a reported median, however long a sample takes
MIN_SAMPLES = 2


# CLI worker threads on every workload.  A second thread on a shared
# machine makes a run's time depend on the other tenants' load more than on
# calorix (README.md).
THREADS = 1


def _base(p, seed, task):
    m_angular, m_time, m_radial = p["mesh"]
    return {
        "operator": {"n": p["n"], "matrix": p["matrix"]},
        "geometry": {"kind": p["kind"], "params": {"radius": 1.0}, "T": p["T"]},
        "mesh": {"m_angular": m_angular, "m_time": m_time, "m_radial": m_radial},
        "task": task,
        "output": {"directory": "out", "formats": ["csv", "json"]},
        "seed": seed,
    }


def make_config(name, seed):
    """The CLI config of workload ``name`` for benchmark seed ``seed``."""
    p = PARAMS[name]
    rng = random.Random(f"{name}:{seed}")
    cli_seed = rng.randrange(2**31)
    if name == "ladder":
        d = [rng.gauss(0.0, 1.0) for _ in range(p["n"])]
        scale = p["xi_norm"] / math.sqrt(sum(c * c for c in d))
        task = {
            "name": "completeness", "degrees": p["degrees"], "rcond": p["rcond"],
            "data": {"kind": "caloric-exponential", "xi": [c * scale for c in d]},
            "final_max_residual": p["final_max_residual"],
            "cross_validate": False,
        }
        config = _base(p, cli_seed, task)
        config["operator"]["parity"] = "v"
        return config
    if name == "jumps":
        task = {"name": "verify-jumps", "probes": p["probes"],
                "kinds": p["kinds"], "tolerance": p["tolerance"]}
    else:
        task = {"name": "verify-identities",
                "interior_probes": p["interior_probes"],
                "exterior_probes": p["exterior_probes"],
                "tolerance": p["tolerance"]}
    return _base(p, cli_seed, task)
