"""The pinned benchmark workloads: one run spec each for ``spinmodels run``.

Each workload stresses a different layer (see README.md).  Only
``verify_suq2`` takes random input; the benchmark seed becomes its probe
seed.  The other three are deterministic, so the seed leaves them unchanged.
"""

from __future__ import annotations

import copy

_SPECS = {
    # Full dense spectrum: 3 complex eigh calls at dim 1024 carry the run.
    "spectrum_dense": {
        "schema_version": 1,
        "task": "spectrum",
        "model": {"name": "heisenberg", "params": {"J": -1.0}},
        "volume": {"dims": [10], "boundary": "periodic"},
        "spectrum": {"method": "dense", "num_eigenvalues": 6},
        "output": {"json": "result.json", "csv": "spectrum.csv"},
    },
    # The sparse route: assembly, block Lanczos and ARPACK at dim 8192.
    "spectrum_krylov": {
        "schema_version": 1,
        "task": "spectrum",
        "model": {"name": "heisenberg", "params": {"J": -1.0}},
        "volume": {"dims": [13], "boundary": "periodic"},
        "spectrum": {"method": "krylov", "num_eigenvalues": 6},
        "output": {"json": "result.json", "csv": "spectrum.csv"},
    },
    # All five checks on the SU_q(2) chain: states, probes, embeddings.
    "verify_suq2": {
        "schema_version": 1,
        "task": "verify",
        "model": {"name": "xxz_suq2", "params": {"q": 0.5}},
        "volume": {"dims": [8], "boundary": "open"},
        "verify": {
            "checks": ["algebra", "symmetry", "kms", "eeb", "stability"],
            "betas": [0.5, 1.0],
            "num_probes": 20,
        },
        "seed": 0,
        "output": {"json": "result.json", "csv": "verify.csv"},
    },
    # Light-cone scan: one eigh, then dense products and eigvalsh norms.
    "lightcone": {
        "schema_version": 1,
        "task": "dynamics",
        "model": {"name": "heisenberg", "params": {"J": 1.0}},
        "volume": {"dims": [9], "boundary": "open"},
        "dynamics": {
            "times": [0.0, 0.5, 1.0, 2.0],
            "distances": [1, 2, 3, 4, 5, 6, 7, 8],
            "observable": "s3",
        },
        "output": {"json": "result.json", "csv": "lightcone.csv"},
    },
}

WORKLOADS = tuple(_SPECS)

# Workloads whose spec takes the benchmark seed.
SEEDED = frozenset({"verify_suq2"})


def spec_for(workload: str, seed: int) -> dict:
    """The run spec of ``workload`` for benchmark seed ``seed``."""
    if workload not in _SPECS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
    spec = copy.deepcopy(_SPECS[workload])
    if workload in SEEDED:
        spec["seed"] = int(seed)
    return spec
