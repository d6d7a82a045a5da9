"""Forward simulation walkthrough: a drop relaxing in a closed box.

A tanh-profile drop (phase +1 inside, -1 outside) sits in a box with a
solenoidal swirl. The capillary force feeds momentum, viscosity and the
chemical flux dissipate it, and the run illustrates the two discrete
conservation statements the scheme is built around:

* the phase mean is constant to roundoff at every step, and
* with no body force, kinetic + free energy decays monotonically, with
  the integrated balance defect shrinking linearly in dt.

Outputs land in ./demo_output/: the diagnostics CSV, a phase snapshot
pair, and (if matplotlib is importable) an energy-budget figure.
"""

import os

import numpy as np

import nsch
from nsch.config import bubble_phase, swirl_velocity
from nsch.snapshots import write_diagnostics_csv, write_scalar

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

grid = nsch.GridSpec(48, 48, 16.0, 16.0)
params = nsch.PhysParams(eta=0.5)
time = nsch.TimeSpec(T=0.1, dt=1e-3)

phi0 = bubble_phase(grid)
v0 = swirl_velocity(grid, 1.0)

print(f"running {time.n_steps} steps on a {grid.nx}x{grid.ny} grid ...")
traj = nsch.simulate(v0, phi0, None, time, params)
d = traj.diagnostics

mass_drift = np.abs(d["mass"] - d["mass"][0]).max()
total = d["kinetic"] + d["energy"]
print(f"phase mass drift          : {mass_drift:.3e}")
print(f"kinetic + free energy     : {total[0]:.6f} -> {total[-1]:.6f}")
print(f"largest energy increase   : {np.diff(total).max():.3e} (negative = monotone)")
print(f"max divergence over run   : {d['divergence_max'].max():.3e}")
print(f"balance defect at dt      : {nsch.energy_balance_residual(traj):.3e}")

half = nsch.simulate(v0, phi0, None, time.refine(), params)
print(f"balance defect at dt/2    : {nsch.energy_balance_residual(half):.3e} (about half)")

csv_path = os.path.join(OUT, "bubble_diagnostics.csv")
write_diagnostics_csv(csv_path, traj)
write_scalar(os.path.join(OUT, "bubble_phi_start.nschf"), traj[0].phi, "phi", 0.0)
write_scalar(os.path.join(OUT, "bubble_phi_end.nschf"), traj.final.phi, "phi", time.T)
print(f"wrote {csv_path} and phase snapshots")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 3.6))
    axes[0].imshow(traj.final.phi.values.T, origin="lower", cmap="RdBu_r",
                   extent=(0, grid.lx, 0, grid.ly))
    axes[0].set_title("phase field at T")
    axes[1].plot(d["time"], d["kinetic"], label="kinetic")
    axes[1].plot(d["time"], d["energy"], label="free energy")
    axes[1].plot(d["time"], total, "k--", label="total")
    axes[1].set_xlabel("t")
    axes[1].legend()
    axes[1].set_title("energy budget")
    axes[2].semilogy(d["time"], np.abs(d["mass"] - d["mass"][0]) + 1e-17)
    axes[2].set_xlabel("t")
    axes[2].set_title("|mass drift| (roundoff)")
    fig.tight_layout()
    fig.savefig(os.path.join(OUT, "bubble_overview.png"), dpi=130)
    print(f"wrote {os.path.join(OUT, 'bubble_overview.png')}")
except ImportError:
    print("matplotlib not available; skipped the figure")
