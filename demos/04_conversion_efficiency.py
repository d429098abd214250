"""Conversion efficiency vs pump power: the sin^2 law and its calibration.

One measured point (38 % quantum efficiency at 550 mW) pins the curve;
the power efficiency differs from the quantum efficiency by the photon
energy ratio and can exceed one.
"""

from qdemux import power_efficiency, quantum_efficiency, sfg_wavelength
from qdemux.sfg import ConversionCurve, quantum_from_power

curve = ConversionCurve.from_calibration(calibration_power_mw=550.0, calibration_eta=0.38)
print(f"calibrated knee power: {curve.p_pi_mw:.1f} mW "
      f"(sine argument reaches pi/2 there)")

lam3 = sfg_wavelength(795.0, 1560.0)
print("\npump power vs efficiencies (1560 nm signal):")
print(f"  {'mW':>6}  {'quantum':>9}  {'power':>9}")
for p in (0.0, 100.0, 200.0, 400.0, 550.0, 800.0, 1500.0, curve.p_pi_mw):
    eta_q = quantum_efficiency(curve, p)
    eta_p = power_efficiency(eta_q, 1560.0, lam3)
    print(f"  {p:6.0f}  {eta_q:9.4f}  {eta_p:9.4f}")

print("\nat the calibration point the power ratio exceeds 1:")
eta_p = power_efficiency(0.38, 1560.0, lam3)
print(f"  eta_power = 0.38 * 1560/{lam3:.1f} = {eta_p:.4f}")
print(f"  round trip back to quantum: {quantum_from_power(eta_p, 1560.0, lam3):.12f}")

print("\nevery converted photon keeps its timing but carries the sum-frequency")
print("energy, so a Si detector can read out a telecom-band channel.")
