"""Detecting the entanglement with two-mode homodyne tomography.

The final two-mode state is measured by joint homodyne detection at random
local-oscillator phases; pattern-function kernels turn the quadrature record
into unbiased estimates of the two-qubit block, from which the concurrence
follows.  With enough samples the reconstruction closes the loop on the
direct engine values within its own error bars.

Run:  python demos/05_homodyne_tomography.py
"""

from micromacro import (
    ExperimentConfig,
    concurrence_with_uncertainty,
    reconstruct,
    run,
    sample,
)

cfg = ExperimentConfig(r=1.0, eta=0.95, seed=7, engine="fock")
res = run(cfg, keep_state=True)
print(f"pipeline: r = {cfg.r}, eta = {cfg.eta}")
print(f"direct engine: concurrence {res.concurrence.value:.4f}, "
      f"success probability {res.success_prob:.4f}")

n_samples = 200_000
record = sample(res.final_branches, n_samples, seed=cfg.seed)
print(f"\nsampled {n_samples} joint quadratures at uniform random phases")
print(f"first record rows (theta_a, theta_b, x_a, x_b):")
for row in zip(record.theta_a[:3], record.theta_b[:3], record.x_a[:3], record.x_b[:3]):
    print("  " + " ".join(f"{v:8.4f}" for v in row))
record.to_csv("tomography_record.csv")
print("wrote tomography_record.csv")

recon = reconstruct(record)
ref = res.rho_p.matrix
labels = ("00", "01", "10", "11")
print("\nreconstructed block vs direct engine (real parts):")
print("element   estimate     +-se      reference")
for i in range(4):
    for j in range(i, 4):
        est = recon.estimate[i, j].real
        se = recon.se_real[i, j]
        if abs(est) < 3 * se and abs(ref[i, j].real) < 1e-12:
            continue  # skip elements consistent with zero
        print(f"{labels[i]},{labels[j]}   {est:9.4f}  {se:8.4f}  "
              f"{ref[i, j].real:9.4f}")

c_est, c_err = concurrence_with_uncertainty(recon)
print(f"\nconcurrence from tomography: {c_est:.4f} +- {c_err:.4f}")
print(f"direct engine reference:     {res.concurrence.value:.4f}")
print(f"pulled {abs(c_est - res.concurrence.value)/c_err:.2f} error bars apart")
