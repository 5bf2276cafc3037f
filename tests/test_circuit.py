"""Inductor network reduction and derived energy scales."""

import math

import pytest

from fluxrabi.circuit import RawCircuit, gauge_circuit
from fluxrabi.constants import NA, PF, PH, UV
from fluxrabi.planewave import PlaneWaveBasis


def make(lc=20.0):
    return RawCircuit.from_lj(Lc=lc, L1=800.0 - lc, L2=2050.0 - lc,
                              C=0.87, CJ=4.84, LJ=990.0)


def test_raw_circuit_validation():
    with pytest.raises(ValueError):
        RawCircuit(Lc=-1.0, L1=780.0, L2=2030.0, C=0.87, CJ=4.84, EJ=165.0)
    with pytest.raises(ValueError):
        RawCircuit(Lc=20.0, L1=0.0, L2=2030.0, C=0.87, CJ=4.84, EJ=165.0)
    with pytest.raises(ValueError):
        RawCircuit(Lc=20.0, L1=780.0, L2=2030.0, C=0.87, CJ=4.84, EJ=-1.0)
    with pytest.raises(ValueError):
        RawCircuit.from_lj(Lc=20.0, L1=780.0, L2=2030.0, C=0.87, CJ=4.84,
                           LJ=0.0)


_FIELDS = dict(Lc=20.0, L1=780.0, L2=2030.0, C=0.87, CJ=4.84, EJ=165.0,
               phix=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [*_FIELDS, "LJ", "n_max"])
def test_non_finite_values_refused_by_name(field, value):
    # a NaN or infinite element value, junction inductance or plane-wave
    # interval is refused where it is given, not at the first solve
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field == "n_max":
            PlaneWaveBasis(n_max=value)
        elif field == "LJ":
            RawCircuit.from_lj(LJ=value, **{k: v for k, v in _FIELDS.items()
                                            if k != "EJ"})
        else:
            RawCircuit(**{**_FIELDS, field: value})


def test_star_reduction_closed_form():
    raw = make()
    flux = gauge_circuit("flux", raw)
    num = raw.Lc * raw.L1 + raw.Lc * raw.L2 + raw.L1 * raw.L2
    assert flux.L12 == pytest.approx(num / raw.Lc, rel=1e-14)
    assert flux.Lg1 == pytest.approx(num / raw.L2, rel=1e-14)
    assert flux.Lg2 == pytest.approx(num / raw.L1, rel=1e-14)
    assert flux.coupled


def test_star_reduction_decoupled_limit():
    raw = RawCircuit(Lc=0.0, L1=800.0, L2=2050.0, C=0.87, CJ=4.84, EJ=165.0)
    flux = gauge_circuit("flux", raw)
    assert math.isinf(flux.L12)
    assert not flux.coupled
    # with the coupling branch removed each loop sees its own inductor
    assert flux.L_LC == pytest.approx(800.0, rel=1e-14)
    assert flux.L_FQ == pytest.approx(2050.0, rel=1e-14)
    assert gauge_circuit("charge", raw).C == pytest.approx(0.87, rel=1e-14)


def test_effective_inductances_parallel_combination():
    raw = make()
    flux, charge = gauge_circuit("flux", raw), gauge_circuit("charge", raw)
    assert flux.L_LC == pytest.approx(
        1.0 / (1.0 / flux.Lg1 + 1.0 / flux.L12), rel=1e-14)
    assert flux.L_FQ == pytest.approx(
        1.0 / (1.0 / flux.Lg2 + 1.0 / flux.L12), rel=1e-14)
    assert charge.L_FQ == raw.Lc + raw.L2
    # exact loop inductances sit below the separate-treatment values, each
    # loop reduced with the other circuit removed
    assert flux.L_LC < raw.Lc + raw.L1
    assert flux.L_FQ < raw.Lc + raw.L2


def test_energy_scales_oscillator_frequency():
    flux = gauge_circuit("flux", make())
    omega = 1.0 / math.sqrt(flux.L_LC * PH * flux.C * PF) / (2.0 * math.pi) / 1e9
    assert flux.omega == pytest.approx(omega, rel=1e-14)
    assert flux.omega == pytest.approx(6.033, rel=1e-3)
    assert flux.ECJ == pytest.approx(4.0, rel=5e-3)
    # harmonic consistency: omega equals sqrt(8 EC EL), and the zero-point
    # voltage and current scales stand in the ratio sqrt(L_LC / C)
    assert flux.omega == pytest.approx(
        math.sqrt(8.0 * flux.EC * flux.EL), rel=1e-12)
    assert flux.Vzpf * UV == pytest.approx(
        flux.Izpf * NA * math.sqrt(flux.L_LC * PH / (flux.C * PF)), rel=1e-12)


def test_charge_gauge_frequency_above_bare():
    raw = make(lc=350.0)
    flux, charge = gauge_circuit("flux", raw), gauge_circuit("charge", raw)
    c_prime = charge.C
    assert c_prime == pytest.approx(1.0 / (
        1.0 / raw.C + (flux.L_LC / flux.L12) ** 2 / (raw.CJ * 1e-3)), rel=1e-14)
    assert c_prime < raw.C
    omega_prime = charge.omega
    assert omega_prime > flux.omega
    assert omega_prime == pytest.approx(
        1.0 / math.sqrt(flux.L_LC * PH * c_prime * PF) / (2.0 * math.pi) / 1e9,
        rel=1e-14)
    # the charge-gauge qubit node sees Lc + L2, the flux-gauge node L_FQ
    assert charge.ELFQ < flux.ELFQ
    assert (charge.ECJ, charge.EJ) == (flux.ECJ, flux.EJ)


def test_stronger_coupling_branch_raises_mutual_term():
    l12_small = gauge_circuit("flux", make(lc=20.0)).L12
    l12_large = gauge_circuit("flux", make(lc=350.0)).L12
    # larger shared inductance means smaller L12, hence stronger coupling
    assert l12_large < l12_small


def test_gauge_circuit_validates_gauge():
    with pytest.raises(ValueError):
        gauge_circuit("mixed", make())
