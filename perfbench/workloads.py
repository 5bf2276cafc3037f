"""Workload definitions: one fixed fluxrabi config per workload.

The program takes no random input, so a workload is a fixed config and the
benchmark's --seed changes nothing in it.  Every workload uses the
reference circuit (branch sums 800/2050 pH, C = 0.87 pF, CJ = 4.84 fF,
LJ = 990 pH) and the default --workers 1: with BLAS threads unset, more
workers start pool children with OpenBLAS's default threads and the
timings swing by several times from run to run.  run.py pins BLAS to one
thread, and a single process keeps each round on one core.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_CIRCUIT = {
    "Lc_pH": 20.0, "L1_pH": 780.0, "L2_pH": 2030.0,
    "C_pF": 0.87, "CJ_fF": 4.84, "LJ_pH": 990.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict

    @property
    def tasks(self) -> list[str]:
        return list(self.config["tasks"])


def _config(phix_points: int, lc_list: list[float], numerics: dict,
            tasks: list[str]) -> dict:
    return {
        "schema_version": 1,
        "circuit": dict(REFERENCE_CIRCUIT),
        "sweep": {"phix_start_Phi0": 0.494, "phix_stop_Phi0": 0.506,
                  "phix_points": phix_points, "Lc_list_pH": lc_list},
        "numerics": numerics,
        "tasks": tasks,
        "output": {"directory": "out"},
    }


WORKLOADS = {
    w.name: w for w in (
        # Nelder-Mead fits of both Rabi variants: nearly all time is in the
        # fitting and rabi layers.  Lc = 20 pH because the 350 pH fits take
        # minutes (and the charge variant does not converge there); 11
        # points is a short grid on which both fits still converge.
        Workload("fit", _config(11, [20.0], {"gauge": "flux", "fit_levels": 3},
                                ["inductance-compare", "rabi-fit"])),
        # Energy levels only, at the truncation where the 350 pH flux
        # spectrum converges: (8, 60) builds with the doubled-truncation
        # verify, the gauge ladder to dimension 960 and the dimension-2048
        # plane-wave product.  No fitting, no eigenvector reads.
        Workload("levels", _config(7, [350.0],
                                   {"gauge": "flux", "n_qubit": 8, "n_fock": 60},
                                   ["circuit-spectrum", "gauge-check"])),
        # Eigenvector reads (observables, perturbation) in both gauges plus
        # the qubit-layer tasks, at the README truncation (6, 40).
        Workload("states", _config(21, [20.0, 350.0],
                                   {"gauge": "both", "n_qubit": 6, "n_fock": 40},
                                   ["observables", "perturbation",
                                    "qubit-spectrum", "rabi-map",
                                    "matrix-elements", "wavefunctions"])),
    )
}
