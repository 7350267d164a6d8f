"""Mapping the stability domain of a parametrized family.

Scans H(lam) = [[0, 1 - lam], [1, 0]], whose eigenvalues +-sqrt(1 - lam)
collide at lam = 1: spectral reality, metric existence and the coalescence
diagnostics all flip together at the exceptional point, and Brent's
method on a signed discriminant recovers its location to eight digits.

Usage:
    python3 demos/05_stability_scan.py
"""

import numpy as np

from cryptoherm import FamilySpec, lambda_max, reality_scan

TOL = 1e-10

H0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
W0 = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=complex)
spec = FamilySpec.linear(H0, W0, np.linspace(0.0, 2.0, 9))

report = reality_scan(spec, TOL)
print(f"{'lam':>6} {'real':>6} {'max_imag':>10} {'min_gap':>10} "
      f"{'cond':>10} {'metric':>7} {'theta_min':>10}  note")
for p in report.points:
    theta_min = "nan" if np.isnan(p.theta_min_eig) else f"{p.theta_min_eig:.4f}"
    print(f"{p.lam:6.2f} {str(p.spectrum_real):>6} {p.max_imag:10.2e} "
          f"{p.min_gap:10.2e} {p.eigvec_cond:10.2e} {str(p.metric_exists):>7} "
          f"{theta_min:>10}  {p.note}")

boundary = lambda_max(spec, (0.0, 2.0), 1e-8)
print(f"\nreality boundary by Brent's method: lambda_max = {boundary:.9f} (exact: 1)")
print("interpretation: the perturbation series around lam = 0 converges "
      f"inside |lam| < {boundary:.3f}")

# The same scan is available from the command line:
#   crypto-metric scan --family linear --h H.json --w W.json \
#       --lambda 0:2:41 --find-boundary 0:2
