"""Inductor network reduction and derived circuit energy scales.

The fixed topology is a single-junction flux qubit loop (inductance Lc + L2
plus the junction) sharing the branch Lc with an LC oscillator loop
(inductance Lc + L1, capacitance C).  A triangle-to-star transformation of
the three inductors eliminates the shared branch and produces the effective
inductances of the two-node Hamiltonian: the oscillator sees L_LC, the qubit
sees L_FQ, and the nodes couple through the mutual term -Phi1 Phi2 / L12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import (
    CONSTANTS,
    FF,
    GHZ,
    NA,
    PF,
    PH,
    UV,
    charging_energy_ghz,
    inductive_energy_ghz,
    josephson_inductance_ph,
)


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
        if self.Lc < 0.0:
            raise ValueError("Lc must be >= 0")
        for name in ("L1", "L2", "C", "CJ", "EJ"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def from_lj(cls, Lc: float, L1: float, L2: float, C: float, CJ: float,
                LJ: float, phix: float = 0.5) -> "RawCircuit":
        """Build from a junction inductance LJ in pH instead of EJ."""
        if LJ <= 0.0:
            raise ValueError("LJ must be > 0")
        return cls(Lc=Lc, L1=L1, L2=L2, C=C, CJ=CJ,
                   EJ=inductive_energy_ghz(LJ * PH), phix=phix)

    @property
    def LJ(self) -> float:
        """Equivalent junction inductance in pH."""
        return josephson_inductance_ph(self.EJ)


@dataclass(frozen=True)
class StarInductances:
    """Star-equivalent inductances of the (Lc, L1, L2) triangle, in pH.

    L12 is the mutual inductance of the two loops; it is math.inf when
    Lc = 0, which makes every downstream coupling coefficient exactly zero.
    """

    Lg1: float
    Lg2: float
    L12: float

    @property
    def is_coupled(self) -> bool:
        return math.isfinite(self.L12)


@dataclass(frozen=True)
class EffectiveInductances:
    """Loop inductances after the star reduction, in pH.

    L_LC and L_FQ are the oscillator and qubit inductances of the exact
    two-node treatment.  L_FQ_charge = Lc + L2 is the qubit inductance left
    after the momentum-shift transformation of the coupled Hamiltonian; the
    sep_* fields are the nonreciprocal values obtained when each loop is
    instead reduced separately with the other circuit removed.
    """

    L_LC: float
    L_FQ: float
    L_FQ_charge: float
    sep_LC: float
    sep_FQ: float


@dataclass(frozen=True)
class EnergyScales:
    """Derived scales: energies in GHz, Izpf in nA, Vzpf in uV."""

    EC: float
    ECJ: float
    EL: float
    ELFQ: float
    omega: float
    Izpf: float
    Vzpf: float


def y_delta(raw: RawCircuit) -> StarInductances:
    """Triangle-to-star reduction of the inductor network."""
    num = raw.Lc * raw.L1 + raw.Lc * raw.L2 + raw.L1 * raw.L2
    l12 = num / raw.Lc if raw.Lc > 0.0 else math.inf
    return StarInductances(Lg1=num / raw.L2, Lg2=num / raw.L1, L12=l12)


def effective_inductances(star: StarInductances, raw: RawCircuit) -> EffectiveInductances:
    """Parallel-combine the star inductances into the loop values.

    1/L_LC = 1/Lg1 + 1/L12 and 1/L_FQ = 1/Lg2 + 1/L12; with L12 = inf the
    reciprocals contribute exactly zero.  The separate-treatment values
    (Lc + L1, Lc + L2) ignore the presence of the other loop.
    """
    l_lc = 1.0 / (1.0 / star.Lg1 + 1.0 / star.L12)
    l_fq = 1.0 / (1.0 / star.Lg2 + 1.0 / star.L12)
    return EffectiveInductances(
        L_LC=l_lc,
        L_FQ=l_fq,
        L_FQ_charge=raw.Lc + raw.L2,
        sep_LC=raw.Lc + raw.L1,
        sep_FQ=raw.Lc + raw.L2,
    )


def energy_scales(raw: RawCircuit, eff: EffectiveInductances) -> EnergyScales:
    """Charging/inductive energies, oscillator frequency, and zero-point scales."""
    ec = charging_energy_ghz(raw.C * PF)
    ecj = charging_energy_ghz(raw.CJ * FF)
    el = inductive_energy_ghz(eff.L_LC * PH)
    elfq = inductive_energy_ghz(eff.L_FQ * PH)
    omega_rad = 1.0 / math.sqrt((eff.L_LC * PH) * (raw.C * PF))
    omega = omega_rad / (2.0 * math.pi * GHZ)
    izpf = math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * eff.L_LC * PH)) / NA
    vzpf = math.sqrt(CONSTANTS.hbar * omega_rad / (2.0 * raw.C * PF)) / UV
    return EnergyScales(EC=ec, ECJ=ecj, EL=el, ELFQ=elfq,
                        omega=omega, Izpf=izpf, Vzpf=vzpf)


def charge_gauge_capacitance_pf(raw: RawCircuit, star: StarInductances,
                                eff: EffectiveInductances) -> float:
    """Oscillator capacitance C' after the momentum-shift transformation.

    1/C' = 1/C + L_LC^2 / (CJ L12^2); equals C when the loops decouple.
    """
    inv = 1.0 / (raw.C * PF) + (eff.L_LC / star.L12) ** 2 / (raw.CJ * FF)
    return 1.0 / inv / PF


def charge_gauge_frequency_ghz(raw: RawCircuit, star: StarInductances,
                               eff: EffectiveInductances) -> float:
    """Oscillator frequency 1 / sqrt(L_LC C') of the transformed Hamiltonian."""
    c_prime = charge_gauge_capacitance_pf(raw, star, eff) * PF
    return 1.0 / math.sqrt((eff.L_LC * PH) * c_prime) / (2.0 * math.pi * GHZ)
