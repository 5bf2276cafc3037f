"""The circuit and what each gauge derives of it.

The fixed topology is a single-junction flux qubit loop (inductance Lc + L2
plus the junction) sharing the branch Lc with an LC oscillator loop
(inductance Lc + L1, capacitance C).  A triangle-to-star transformation of
the three inductors, done once in gauge_circuit, eliminates the shared
branch and produces the effective inductances of the two-node Hamiltonian:
the oscillator sees L_LC, the qubit sees L_FQ, and the nodes couple through
the mutual term -Phi1 Phi2 / L12.

The two gauges of the coupled Hamiltonian differ only in what gauge_circuit
derives: the flux gauge keeps (C, omega, L_FQ) with the inductive coupling
-Phi1 Phi2 / L12; the charge gauge has C', omega' and Lc + L2 with the
capacitive coupling -(L_LC / (CJ L12)) q1 q2.  Every solver reads its node
parameters, zero-point scales and coupling strengths from that one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import (
    CONSTANTS,
    FF,
    GHZ,
    NA,
    PF,
    PH,
    UV,
    charging_energy_ghz,
    current_flux_to_ghz,
    inductive_energy_ghz,
)

if TYPE_CHECKING:
    from .qubit import TwoLevelFit


GAUGES = ("flux", "charge")


@dataclass(frozen=True)
class RawCircuit:
    """As-designed element values.

    Lc, L1, L2 in pH, C in pF, CJ in fF, EJ in GHz, phix in Phi0 units.
    Lc = 0 switches off the qubit-oscillator coupling.
    """

    Lc: float
    L1: float
    L2: float
    C: float
    CJ: float
    EJ: float
    phix: float = 0.5

    def __post_init__(self) -> None:
        for name in ("Lc", "L1", "L2", "C", "CJ", "EJ", "phix"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.Lc < 0.0:
            raise ValueError("Lc must be >= 0")
        for name in ("L1", "L2", "C", "CJ", "EJ"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def from_lj(cls, Lc: float, L1: float, L2: float, C: float, CJ: float,
                LJ: float, phix: float = 0.5) -> "RawCircuit":
        """Build from a junction inductance LJ in pH instead of EJ."""
        if not math.isfinite(LJ):
            raise ValueError("LJ must be finite")
        if LJ <= 0.0:
            raise ValueError("LJ must be > 0")
        return cls(Lc=Lc, L1=L1, L2=L2, C=C, CJ=CJ,
                   EJ=inductive_energy_ghz(LJ * PH), phix=phix)


@dataclass(frozen=True)
class GaugeCircuit:
    """Everything one gauge fixes of the two-node Hamiltonian.

    Oscillator node: capacitance C (pF), frequency omega and the charging
    and inductive energies EC, EL (GHz).  Qubit node: junction capacitance
    CJ (fF) and ECJ, EJ, ELFQ (GHz).  Inductances (pH): the star values
    Lg1, Lg2 and L12 (L12 = inf when Lc = 0), the oscillator loop L_LC and
    L_FQ, the qubit loop that ELFQ is computed from.  Oscillator zero-point
    scales in this gauge: Izpf (nA), Vzpf (uV), q1zpf (C) and phi1_zpf, the
    phase of node 1 per unit of a + a'.  strength is c of the eigenbasis
    coupling c X (x) K, and node_coupling the coefficient of -phi1 phi2
    (E_L12, flux gauge) or of -n1 n2 (L_LC (2e)^2 / (CJ L12 h), charge
    gauge) between the plane-wave nodes.
    """

    gauge: str
    C: float
    omega: float
    EC: float
    EL: float
    CJ: float
    ECJ: float
    EJ: float
    ELFQ: float
    Lg1: float
    Lg2: float
    L12: float
    L_LC: float
    L_FQ: float
    Izpf: float
    Vzpf: float
    q1zpf: float
    phi1_zpf: float
    strength: float
    node_coupling: float

    @property
    def coupled(self) -> bool:
        return math.isfinite(self.L12)

    @property
    def qubit_node(self) -> tuple[float, float, float]:
        """(ECJ, EJ, ELFQ), the arguments of the qubit node solvers."""
        return self.ECJ, self.EJ, self.ELFQ

    def two_level_coupling(self, twolevel: TwoLevelFit) -> float:
        """Rabi coupling g (GHz) of the coupling projected on two qubit levels.

        twolevel is the reduction of this gauge's qubit node.  Flux gauge:
        g = (L_LC / L12) Izpf Phi2max / h, the magnitude of the circuit's
        -(L_LC / L12) Izpf Phi2max.  Charge gauge: g' = q1zpf (e q2max)
        L_LC / (CJ L12 h), with e q2max half the g-e charge element (see
        fluxrabi.rabi).
        """
        element = twolevel.Phi2max if self.gauge == "flux" else twolevel.q2max
        if element is None:
            raise ValueError(f"twolevel must carry the {self.gauge}-gauge "
                             "element (Phi2max or q2max)")
        if self.gauge == "flux":
            return (self.L_LC / self.L12) * current_flux_to_ghz(self.Izpf, element)
        if not self.coupled:
            return 0.0
        return (self.q1zpf * (element * CONSTANTS.e) * (self.L_LC * PH)
                / ((self.CJ * FF) * (self.L12 * PH)) / (CONSTANTS.h * GHZ))


def gauge_circuit(gauge: str, raw: RawCircuit) -> GaugeCircuit:
    """Node parameters, zero-point scales and couplings of one gauge.

    The triangle (Lc, L1, L2) becomes the star (Lg1, Lg2, L12), and the loop
    inductances are the parallel combinations 1/L_LC = 1/Lg1 + 1/L12 and
    1/L_FQ = 1/Lg2 + 1/L12; with L12 = inf the reciprocals contribute
    exactly zero.  Flux gauge: C, omega = 1 / sqrt(L_LC C), qubit inductance
    L_FQ.  Charge gauge: 1/C' = 1/C + L_LC^2 / (CJ L12^2), omega' =
    1 / sqrt(L_LC C'), qubit inductance Lc + L2.  At Lc = 0 the momentum
    shift is the identity and the charge gauge gets the flux-gauge values
    bit for bit.
    """
    if gauge not in GAUGES:
        raise ValueError(f"gauge must be one of {GAUGES}")
    num = raw.Lc * raw.L1 + raw.Lc * raw.L2 + raw.L1 * raw.L2
    lg1, lg2 = num / raw.L2, num / raw.L1
    l12 = num / raw.Lc if raw.Lc > 0.0 else math.inf
    l_lc = 1.0 / (1.0 / lg1 + 1.0 / l12)
    coupled = math.isfinite(l12)
    if gauge == "flux" or not coupled:
        c_pf, l_fq = raw.C, 1.0 / (1.0 / lg2 + 1.0 / l12)
        omega_rad = 1.0 / math.sqrt((l_lc * PH) * (raw.C * PF))
        omega = omega_rad / (2.0 * math.pi * GHZ)
        izpf_na = math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * l_lc * PH)) / NA
        izpf = izpf_na * NA
    else:
        inv = 1.0 / (raw.C * PF) + (l_lc / l12) ** 2 / (raw.CJ * FF)
        c_pf, l_fq = 1.0 / inv / PF, raw.Lc + raw.L2
        omega = (1.0 / math.sqrt((l_lc * PH) * (c_pf * PF))
                 / (2.0 * math.pi * GHZ))
        omega_rad = 2.0 * math.pi * omega * GHZ
        izpf = math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * l_lc * PH))
        izpf_na = izpf / NA
    q1zpf = math.sqrt(CONSTANTS.hbar * (2.0 * math.pi * omega * GHZ)
                      * (c_pf * PF) / 2.0)
    if gauge == "flux":
        strength = -(l_lc / l12) * current_flux_to_ghz(
            izpf_na, 1.0 / (2.0 * math.pi))
        node_coupling = inductive_energy_ghz(l12 * PH)
    else:
        scale = (raw.CJ * FF) * (l12 * PH) * CONSTANTS.h * GHZ
        strength = -(l_lc * PH) * q1zpf * 2.0 * CONSTANTS.e / scale
        node_coupling = (l_lc * PH) * (2.0 * CONSTANTS.e) ** 2 / scale
    return GaugeCircuit(
        gauge=gauge, C=c_pf, omega=omega, EC=charging_energy_ghz(c_pf * PF),
        EL=inductive_energy_ghz(l_lc * PH), CJ=raw.CJ,
        ECJ=charging_energy_ghz(raw.CJ * FF), EJ=raw.EJ,
        ELFQ=inductive_energy_ghz(l_fq * PH), Lg1=lg1, Lg2=lg2, L12=l12,
        L_LC=l_lc, L_FQ=l_fq, Izpf=izpf_na,
        Vzpf=math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * c_pf * PF)) / UV,
        q1zpf=q1zpf,
        phi1_zpf=(2.0 * math.pi / CONSTANTS.Phi0) * (l_lc * PH) * izpf,
        strength=strength if coupled else 0.0,
        node_coupling=node_coupling)
