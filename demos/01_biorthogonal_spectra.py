"""Biorthogonal diagonalization of non-Hermitian matrices.

Walks through the substrate every other capability builds on: left/right
eigenvector pairs with L^dag R = I, spectral-reality tests, and the
diagnostics that warn when an exceptional point is nearby.

Usage:
    python3 demos/01_biorthogonal_spectra.py
"""

import numpy as np

from cryptoherm import (
    DefectiveError,
    diagonalize,
    ep_proximity,
    kg_hamiltonian,
    spectrum_is_real,
)

TOL = 1e-10

# A manifestly non-Hermitian matrix with a perfectly real spectrum.
H = kg_hamiltonian(0.3)
print("H =")
print(np.round(H.real, 6))
print("H is Hermitian?", np.allclose(H, H.conj().T))

system = diagonalize(H, TOL)
print("\neigenvalues:", np.round(system.eigenvalues, 10))
flag, max_imag = spectrum_is_real(system)
print(f"spectrum real: {flag} (max |Im E| = {max_imag:.2e})")

# The left/right bases are mutually normalized, not orthonormal.
L, R = system.left_vectors, system.right_vectors
print("|| L^dag R - I || =", np.linalg.norm(L.conj().T @ R - np.eye(2)))
print("|| R^dag R - I || =", np.linalg.norm(R.conj().T @ R - np.eye(2)),
      " <- right vectors alone are NOT orthonormal")
print("reconstruction error:", np.linalg.norm(system.reconstruct() - H))

# Proximity diagnostics: a small eigenvalue gap together with a large
# eigenvector condition number signals an exceptional point.
print("\n--- approaching an eigenvalue coalescence ---")
for eps in (1e-1, 1e-2, 1e-3):
    near = np.array([[0.0, eps**2], [1.0, 0.0]])
    min_gap, cond = ep_proximity(diagonalize(near, TOL))
    print(f"eps = {eps:.0e}: min_gap = {min_gap:.3e}, eigvec_cond = {cond:.3e}")

# At the coalescence itself the matrix is defective and is rejected.
try:
    diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)
except DefectiveError as exc:
    print("\nJordan block rejected as expected:", exc)
