"""The benchmark's workloads: each is one ``flemvi verify`` call on a config
generated here, with the workload seed passed as ``--seed``.

``expected_rows`` derives, independently of flemvi, the report rows a config
must produce (name and sample count); a report with other rows is a failure.
See README.md in this directory for why each workload was chosen.
"""

import math
from dataclasses import dataclass

M1 = {"name": "m1", "modes": [1], "terms": [[1.0, [1]]]}

# A run gives each timed call its own input, drawn in order from this many
# inputs of its seed.  The work of one input depends on its random draws
# (ladder's relocation count has a 6 % standard deviation from seed to seed),
# so a run median over few inputs would carry those draws into every
# comparison between runs.  A run makes far fewer calls than this.
INPUTS_PER_RUN = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suite: str
    jobs: int
    config: dict

    def make_config(self, seed):
        return dict(self.config, seed=int(seed), output_dir="out")


WORKLOADS = {
    w.name: w for w in (
        Workload("ladder", "relocation-heavy n-ladder to n=800 with the mixture kernel: "
                 "relocation sampling and spectral evaluation dominate",
                 "convergence", 1, {
            "domain": {"kind": "interval", "bounds": [0.0, math.pi]},
            "truncation": 16,
            "components": [{"weight": 0.6, "modes": {}},
                           {"weight": 0.4, "modes": {"2": 0.05}}],
            "kernel": "mixture_reweighted",
            "n_list": [50, 200, 800],
            "replicas": 16,
            "dt": 1e-3,
            "horizon": 0.03,
            "observables": [M1],
        }),
        Workload("exit2d", "2-D first-exit and jump checks: curvature-weighted sampling, "
                 "batched first exit and the 512x512 admissibility grid dominate",
                 "jumps", 1, {
            "domain": {"kind": "rectangle", "bounds": [[0.0, math.pi], [0.0, 1.5]]},
            "truncation": 16,
            "components": [{"weight": 1.0, "modes": {}}],
            "kernel": "mixture_reweighted",
            "n_list": [16, 64],
            "replicas": 128,
            "dt": 1e-3,
            "horizon": 0.1,
            "observables": [M1],
        }),
        Workload("operator", "many short steps at small n with per-step observation and "
                 "the replica thread pool at --jobs 2; relocation is O(1)",
                 "operator_limits", 2, {
            "domain": {"kind": "interval", "bounds": [0.0, math.pi]},
            "truncation": 16,
            "components": [{"weight": 1.0, "modes": {}}],
            "kernel": "ground_mode",
            "n_list": [8, 32],
            "replicas": 8,
            "dt": 0.02,
            "horizon": 2.0,
            "observables": [M1],
        }),
    )
}


def input_seeds(seed):
    """The flemvi seeds of the inputs of the run with benchmark seed ``seed``;
    distinct seeds give disjoint lists."""
    return [seed * INPUTS_PER_RUN + i for i in range(INPUTS_PER_RUN)]


def expected_rows(suite, config):
    """[(row name, samples)] that ``verify --suite suite`` reports for a
    config with one observable."""
    n_list = config["n_list"]
    M = config["replicas"]
    f = config["observables"][0]["name"]
    top = n_list[-1]
    rows = []
    if suite == "convergence":
        for k in (1, 2, 3, 4):
            if k > config["truncation"]:
                continue
            rows += [(f"convergence[mode{k}|n={n}]", M) for n in n_list]
            rows.append((f"convergence_trend[mode{k}]", M * len(n_list)))
    elif suite == "jumps":
        rows.append((f"exit_moment[{f}|n={top}]", M))
        rows += [(f"jump_{part}[{f}|n={top}]", M)
                 for part in ("replenishment", "diffusion", "increment_sum")]
        rows += [(f"boundary_cutoff[n={n}]", M) for n in n_list]
    elif suite == "operator_limits":
        t = format(float(config["horizon"]), "g")
        blocks = ((f"semigroup[{f}|t={t}", M),
                  (f"resolvent[const[1]|beta={t}", max(4, min(M, 16))),
                  (f"resolvent[{f}|beta={t}", M))
        for label, samples in blocks:
            rows += [(f"{label}|n={n}]", samples) for n in n_list]
            rows.append((f"{label}]_trend", samples * len(n_list)))
    else:
        raise ValueError(f"no expected rows for suite {suite!r}")
    return rows
