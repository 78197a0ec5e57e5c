"""Photon statistics of the amplified single photon.

Squeezing the vacuum produces pairs (even photon numbers only); squeezing a
single photon keeps the odd ladder.  At r = 2.6 their mean photon numbers
differ by a factor of about three, which is what makes the amplified state a
superposition of two macroscopically distinct components.  This script
prints the low-n distributions, checks the closed-form means, and writes the
Wigner-function cross sections whose negativity survives the squeeze.

Run from the repository root:  python demos/01_squeezed_photon_statistics.py
"""

import numpy as np

from micromacro import (
    mean_photon,
    single_mode_wigner_section,
    squeezed_one,
    squeezed_vacuum,
)

R = 2.6

s0 = squeezed_vacuum(R)
s1 = squeezed_one(R)

print(f"squeeze parameter r = {R}")
print(f"mean photons: squeezed vacuum {mean_photon(s0):.3f} "
      f"(sinh^2 r = {np.sinh(R)**2:.3f})")
print(f"              squeezed photon {mean_photon(s1):.3f} "
      f"(1 + 3 sinh^2 r = {1 + 3*np.sinh(R)**2:.3f})")
print(f"ratio n1/n0 = {mean_photon(s1)/mean_photon(s0):.3f}  (~3 at large r)")

print("\nphoton-number probabilities (first 12 levels):")
print(" n   squeezed vacuum   squeezed photon")
p0, p1 = s0**2, s1**2  # real amplitudes
for n in range(12):
    print(f"{n:2d}   {p0[n]:15.6f}   {p1[n]:15.6f}")

# Wigner cross sections: the one-photon dip W(0,0) = -1/pi is untouched by
# squeezing, only the quadrature widths rescale.
x = np.linspace(-0.6, 0.6, 201)
w_s0 = single_mode_wigner_section("S0", R, x)
w_s1 = single_mode_wigner_section("S1", R, x)
print(f"\nW_S1(0, 0) = {w_s1[100]:.6f}  (one-photon dip -1/pi = {-1/np.pi:.6f})")

np.savetxt(
    "squeezed_wigner_sections.csv",
    np.column_stack([x, w_s0, w_s1]),
    delimiter=",",
    header="x,w_s0,w_s1",
    comments="",
)
print("wrote squeezed_wigner_sections.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    n = np.arange(40)
    ax1.stem(n, p0[:40], basefmt=" ", markerfmt="o", label="squeezed vacuum")
    ax1.stem(n, p1[:40], basefmt=" ", markerfmt=".", label="squeezed photon")
    ax1.set_xlabel("photon number n")
    ax1.set_ylabel("probability")
    ax1.legend()
    ax2.plot(x, w_s0, label="squeezed vacuum")
    ax2.plot(x, w_s1, label="squeezed photon")
    ax2.axhline(0.0, color="gray", lw=0.5)
    ax2.set_xlabel("X (P = 0 section)")
    ax2.set_ylabel("W(X, 0)")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("squeezed_photon_statistics.png", dpi=150)
    print("wrote squeezed_photon_statistics.png")
except ImportError:
    pass
