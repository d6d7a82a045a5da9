"""Tracking control end to end: recover a hidden stirring force.

A reference control u_ref (smooth in space, modulated in time, clipped
to the admissible box) stirs the drop; its phase trajectory becomes the
tracking target. The optimizer then starts from u = 0 and descends the
reduced cost with projected Armijo steps, using one forward and one
backward (adjoint) solve per iteration.

With a small control-energy weight the cost drops by one to two orders
of magnitude in a few dozen iterations: the optimizer reproduces the
*phase trajectory* of the reference run. The force itself is recovered
only along observable directions -- over a short horizon the phase
responds to the force mainly near the interface, so large parts of
u_ref leave no trace in the target and the minimum-energy control that
tracks the target keeps them near zero. The side-by-side force plot
makes that visible.

Outputs land in ./demo_output/.
"""

import os

import numpy as np

import nsch
from nsch.config import RunConfig, build_problem, reference_control
from nsch.control import norm_q

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

cfg = RunConfig({
    "grid.nx": 32, "grid.ny": 32,
    "time.T": 0.05, "time.dt": 1e-3,
    "cost.alpha3": 1e-7,
    "cost.target": "tracking",
    "cost.target_amplitude": 1.0,
})
problem = build_problem(cfg)
u_ref = reference_control(cfg)

print("optimizing (one forward + one adjoint solve per accepted step) ...")
u_opt, report = nsch.optimize(
    problem, None, nsch.OptimizerOptions(tol=1e-3, max_iter=40)
)

accepted = [r for r in report.rows if r[8] == 1]
j = np.array([r[1] for r in accepted])
print(f"stopped: {report.reason.value} after {len(j) - 1} accepted steps "
      f"({report.n_simulations} simulations)")
print(f"cost J        : {j[0]:.4e} -> {j[-1]:.4e}  (factor {j[0] / j[-1]:.0f})")
print(f"stationarity  : {accepted[0][6]:.3e} -> {accepted[-1][6]:.3e}")
print("accepted-J monotone:", bool((np.diff(j) <= 0).all()))

csv_path = os.path.join(OUT, "tracking_report.csv")
report.to_csv(csv_path)
print(f"wrote {csv_path}")

# how much of the reference force was recovered (relative L2(Q) error)
dt = problem.time.dt
error = norm_q((a - b for a, b in zip(u_opt, u_ref)), dt) / norm_q(u_ref, dt)
print(f"relative control recovery error: {error:.2f} (1.0 would mean nothing recovered)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    mid = problem.time.n_steps // 2
    fig, axes = plt.subplots(1, 3, figsize=(13, 3.6))
    im0 = axes[0].imshow(u_ref[mid].x.T, origin="lower", cmap="coolwarm")
    axes[0].set_title("reference force, x-component (mid-time)")
    fig.colorbar(im0, ax=axes[0])
    im1 = axes[1].imshow(u_opt[mid].x.T, origin="lower", cmap="coolwarm",
                         vmin=im0.get_clim()[0], vmax=im0.get_clim()[1])
    axes[1].set_title("recovered force")
    fig.colorbar(im1, ax=axes[1])
    axes[2].semilogy(np.arange(len(j)), j)
    axes[2].set_xlabel("accepted iteration")
    axes[2].set_title("cost history")
    fig.tight_layout()
    fig.savefig(os.path.join(OUT, "tracking_overview.png"), dpi=130)
    print(f"wrote {os.path.join(OUT, 'tracking_overview.png')}")
except ImportError:
    print("matplotlib not available; skipped the figure")
