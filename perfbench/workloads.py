"""Benchmark workloads: the ExperimentConfig keyword sets each pass runs.

Everything here is plain data derived from the workload name and the seed;
the library only ever receives the resulting ``ExperimentConfig`` objects.
Trial counts are chosen so that one pass takes about one to two seconds on
one core, which gives several passes per run while each pass still averages
over enough Monte Carlo draws that its cost barely depends on the seed.
"""

# ExperimentConfig keyword sets of one pass, without the seed.
_CONFIGS = {
    # the nmse_vs_snr desk grid at reduced trials: recovery-bound, two
    # methods share every draw (the dense 1536-column polar product and
    # BlockOMP dominate)
    "nmse-mixed-n256": [
        dict(kind="nmse_vs_snr", snr_db_list=(0.0, 5.0, 10.0), n_measurements=80,
             trials=25, methods=("dmu_block_omp", "polar_omp")),
    ],
    # extremely large array: one method, no polar path; the dense T x N x N
    # sensing-matrix product dominates
    "nmse-xl-n2048": [
        dict(kind="nmse_vs_snr", n_antennas=2048, snr_db_list=(10.0,), n_measurements=400,
             trials=4, methods=("dmu_block_omp",), block_size=16, mu=200.0),
    ],
    # dictionary and coherence analytics; never calls BlockOMP
    "analytics": [
        dict(kind="mutual_coherence", t_list=(100, 200), trials=3),
        dict(kind="sparsity_level", n_list=(256, 512, 1024, 2048), trials=50),
        dict(kind="coherence_error", n_list=(256, 1024), trials=200),
        dict(kind="rip_probe", t_list=(32, 64), n_antennas=64, rip_block_size=8, rip_k=2,
             trials=200),
    ],
}

# Operating point of the "pilots in, channel out" latency probe: the proposed
# estimator (chirped dictionary + BlockOMP) on the workload's array. The
# analytics workload never estimates, so its probe uses the N=256, T=100
# point of its mutual-coherence grid. Each problem is timed once, so
# ``problems`` is the sample count and fixes the tail level.
_ESTIMATE = {
    "nmse-mixed-n256": dict(n_antennas=256, n_measurements=80, snr_db_list=(0.0, 5.0, 10.0),
                            block_size=4, mu=20.0, problems=4000),
    "nmse-xl-n2048": dict(n_antennas=2048, n_measurements=400, snr_db_list=(10.0,),
                          block_size=16, mu=200.0, problems=300),
    "analytics": dict(n_antennas=256, n_measurements=100, snr_db_list=(5.0,),
                      block_size=4, mu=20.0, problems=4000),
}

# Dictionaries the workload's harness run builds: (kind, N, parameter) with
# the parameter mu for "dmu" and the ring count for "polar".
_SETUP = {
    "nmse-mixed-n256": [("dmu", 256, 20.0), ("polar", 256, 6)],
    "nmse-xl-n2048": [("dmu", 2048, 200.0)],
    "analytics": [("dmu", 256, 20.0), ("polar", 256, 6), ("dft", 256, None),
                  ("dft", 512, None), ("dft", 1024, None), ("dft", 2048, None),
                  ("dmu", 64, 20.0)],
}

NAMES = tuple(_CONFIGS)

# Seeds with committed reference tables (reference/<workload>.json).
REFERENCE_SEEDS = range(32)


def configs(name: str, seed: int, smoke: bool = False) -> list:
    """ExperimentConfig keyword sets of one pass of workload ``name``.

    ``smoke`` keeps the grid but runs two trials per point.
    """
    out = [dict(c, seed=seed) for c in _CONFIGS[name]]
    if smoke:
        for c in out:
            c["trials"] = 2
    return out


def estimate_point(name: str, smoke: bool = False) -> dict:
    point = dict(_ESTIMATE[name])
    if smoke:
        point["problems"] = 3
    return point


def setup_builds(name: str) -> list:
    return list(_SETUP[name])


def draws(config: dict) -> int:
    """Monte Carlo draws one config finishes: one per trial, grid point and method.

    For the NMSE sweeps a draw is one channel estimate. Mutual coherence
    evaluates each pilot draw on two dictionaries; the sparsity-level run
    evaluates one LOS and one multipath channel per draw, counted once.
    """
    kind = config["kind"]
    if kind == "nmse_vs_snr":
        return config["trials"] * len(config["snr_db_list"]) * len(config["methods"])
    if kind == "mutual_coherence":
        return config["trials"] * len(config["t_list"]) * 2
    grid = config["n_list"] if kind in ("sparsity_level", "coherence_error") else config["t_list"]
    return config["trials"] * len(grid)
