"""Run configuration: parsing, validation, presets and problem assembly.

Config files are line-oriented ``section.key = value`` text; ``#`` starts
a comment.  Unknown keys are rejected.  Defaults (also the documented
default configuration):

====================  =========  =====================================
key                   default    meaning
====================  =========  =====================================
grid.nx               64         cells in x
grid.ny               64         cells in y
grid.lx               16.0       domain length in x
grid.ly               16.0       domain length in y
time.T                0.1        final time
time.dt               1e-3       time step (T/dt must be integral)
physics.eta           0.5        Ginzburg-Landau weight (may be < 0)
physics.nu_bar        1.0        constant part of the viscosity law
physics.nu_amp        0.2        tanh amplitude of the viscosity law
physics.mobility      1.0        mobility floor m_* (constant value)
physics.mobility_amp  0.0        tanh^2 amplitude (nonzero = nonconstant)
physics.stabilization 2.0        biharmonic stabilization constant
cost.alpha1           1.0        running tracking weight
cost.alpha2           1.0        terminal tracking weight
cost.alpha3           1e-7       control energy weight
cost.target           tracking   tracking | initial | stripe | zero
cost.target_amplitude 1.0        amplitude of the target-generating force
cost.target_seed      1          seed of the target-generating force (>= 0)
bounds.u_min          -1.0       lower control bound (both components)
bounds.u_max          1.0        upper control bound (both components)
init.preset           bubble     bubble | stripe | equilibrium | snapshot
init.radius           0.0        bubble radius (>= 0; 0 = min(lx,ly)/4)
init.width            0.0        stripe half-width (>= 0; 0 = ly/4)
init.swirl            0.0        amplitude of the solenoidal initial flow
init.phi_path         (none)     phase snapshot for preset=snapshot
init.v_path           (none)     velocity snapshot (optional)
optimizer.tol         1e-3       stop at stationarity <= tol x first
optimizer.max_iter    50         accepted-iteration cap
optimizer.armijo_c1   1e-4       Armijo sufficient-decrease constant
optimizer.backtrack   30         max step halvings per iteration
output.dir            nsch_out   output directory
output.snapshot_stride 0         write snapshots every N nodes (>= 0; 0 = off)
run.seed              0          seed for verification directions (>= 0)
====================  =========  =====================================

Validation messages name the violated model assumption (A1, A2, A6) or
the solver precondition so misconfigurations are actionable; a non-finite
number, a negative seed, radius, width or snapshot stride, a grid cell so
small that h**-6 overflows, a cost.alpha3 so small that 1/alpha3 overflows,
a cost.alpha1 or cost.alpha2 so large that its square overflows, a
snapshot with a non-finite value, and an initial phi or v above the
blow-up limit (``init.phi_path``, ``init.v_path``, ``init.swirl``) are
rejected under their keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .constitutive import CostSpec, PhysParams
from .control import ControlBounds, ControlProblem, OptimizerOptions
from .control import project_admissible, smooth_direction
from .errors import ConfigError
from .grid import FaceField, GridSpec, ScalarField
from .mac import stream_function_velocity
from .snapshots import read_face, read_scalar
from .state import PHI_BLOWUP_LIMIT, StepSeries, TimeSpec, simulate

_DEFAULTS: dict[str, object] = {
    "grid.nx": 64, "grid.ny": 64, "grid.lx": 16.0, "grid.ly": 16.0,
    "time.T": 0.1, "time.dt": 1e-3,
    "physics.eta": 0.5, "physics.nu_bar": 1.0, "physics.nu_amp": 0.2,
    "physics.mobility": 1.0, "physics.mobility_amp": 0.0,
    "physics.stabilization": 2.0,
    "cost.alpha1": 1.0, "cost.alpha2": 1.0, "cost.alpha3": 1e-7,
    "cost.target": "tracking", "cost.target_amplitude": 1.0, "cost.target_seed": 1,
    "bounds.u_min": -1.0, "bounds.u_max": 1.0,
    "init.preset": "bubble", "init.radius": 0.0, "init.width": 0.0,
    "init.swirl": 0.0, "init.phi_path": "", "init.v_path": "",
    "optimizer.tol": 1e-3, "optimizer.max_iter": 50,
    "optimizer.armijo_c1": 1e-4, "optimizer.backtrack": 30,
    "output.dir": "nsch_out", "output.snapshot_stride": 0,
    "run.seed": 0,
}
_NONNEGATIVE = (
    "cost.target_seed", "run.seed", "init.radius", "init.width", "output.snapshot_stride",
)


@dataclass
class RunConfig:
    """Validated key/value configuration with defaults filled in."""

    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_DEFAULTS)
        for key, val in self.values.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown configuration key '{key}'")
            merged[key] = _coerce(key, val)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]


def _coerce(key: str, val):
    ref = _DEFAULTS[key]
    if isinstance(ref, str):
        return str(val)
    try:
        value = type(ref)(str(val))
    except ValueError as exc:
        raise ConfigError(f"field '{key}': cannot parse {val!r}") from exc
    # PhysParams rejects non-finite physics values under their field names
    if isinstance(ref, float) and not np.isfinite(value) and not key.startswith("physics."):
        raise ConfigError(f"{key} must be finite, got {value}")
    if key in _NONNEGATIVE and value < 0:
        raise ConfigError(f"{key} must be nonnegative, got {value}")
    return value


def parse_config(path) -> RunConfig:
    """Read a ``section.key = value`` file; report line numbers on errors."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from exc
    raw: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, val = (part.strip() for part in text.split("=", 1))
        if "." not in key:
            raise ConfigError(f"{path}:{lineno}: key '{key}' lacks a section prefix")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = val
    try:
        return RunConfig(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# builders


def build_grid(cfg: RunConfig) -> GridSpec:
    try:
        return GridSpec(cfg["grid.nx"], cfg["grid.ny"], cfg["grid.lx"], cfg["grid.ly"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_time(cfg: RunConfig) -> TimeSpec:
    return TimeSpec(cfg["time.T"], cfg["time.dt"])


def build_params(cfg: RunConfig) -> PhysParams:
    return PhysParams(
        eta=cfg["physics.eta"],
        nu_bar=cfg["physics.nu_bar"],
        nu_amp=cfg["physics.nu_amp"],
        mob_const=cfg["physics.mobility"],
        mob_amp=cfg["physics.mobility_amp"],
        stab=cfg["physics.stabilization"],
    )


def bubble_phase(grid: GridSpec, radius: float = 0.0) -> ScalarField:
    """tanh profile of a centered disc with unit interface thickness."""
    r0 = radius if radius > 0 else 0.25 * min(grid.lx, grid.ly)
    X, Y = grid.cell_centers()
    r = np.sqrt((X - 0.5 * grid.lx) ** 2 + (Y - 0.5 * grid.ly) ** 2)
    return ScalarField(grid, np.tanh((r0 - r) / np.sqrt(2.0)))


def stripe_phase(grid: GridSpec, width: float = 0.0) -> ScalarField:
    w = width if width > 0 else 0.25 * grid.ly
    _, Y = grid.cell_centers()
    return ScalarField(grid, np.tanh((w - np.abs(Y - 0.5 * grid.ly)) / np.sqrt(2.0)))


def swirl_velocity(grid: GridSpec, amplitude: float) -> FaceField:
    """No-slip, discretely divergence-free initial flow from a stream function."""
    x = np.arange(grid.nx + 1) * grid.hx
    y = np.arange(grid.ny + 1) * grid.hy
    psi = (
        amplitude
        * np.sin(np.pi * x / grid.lx)[:, None] ** 2
        * np.sin(np.pi * y / grid.ly)[None, :] ** 2
    )
    return stream_function_velocity(grid, psi)


def _read_snapshot(reader, key: str, path: str, grid: GridSpec):
    """The field of the snapshot at ``path``, named by its config ``key`` on error."""
    if not path or not os.path.exists(path):
        raise ConfigError(f"{key} '{path}' does not exist")
    try:
        f = reader(path)[0]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key} '{path}' is not a readable snapshot: {exc}") from exc
    if f.grid != grid:
        raise ConfigError(f"{key}: snapshot grid does not match configured grid")
    phase = isinstance(f, ScalarField)
    arrays = (f.values,) if phase else (f.x, f.y)
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigError(f"{key} '{path}' holds a non-finite value")
    # a field past the limit that simulate applies to later nodes counts as blown up at step 0
    if max(np.abs(a).max() for a in arrays) > PHI_BLOWUP_LIMIT:
        raise ConfigError(f"{key} '{path}' holds |{'phi' if phase else 'v'}| above the "
                          f"blow-up limit {PHI_BLOWUP_LIMIT:g}")
    return f


def build_initial(cfg: RunConfig, grid: GridSpec) -> tuple[FaceField, ScalarField]:
    preset = cfg["init.preset"]
    if preset == "equilibrium":
        phi = ScalarField.full(grid, 1.0)
    elif preset == "bubble":
        phi = bubble_phase(grid, cfg["init.radius"])
    elif preset == "stripe":
        phi = stripe_phase(grid, cfg["init.width"])
    elif preset == "snapshot":
        phi = _read_snapshot(read_scalar, "init.phi_path", cfg["init.phi_path"], grid)
    else:
        raise ConfigError(f"init.preset '{preset}' is not a known preset")

    if cfg["init.v_path"]:
        v0 = _read_snapshot(read_face, "init.v_path", cfg["init.v_path"], grid)
    else:
        # sized on the unit flow first: a huge swirl overflows while its flow is formed
        swirl, unit = cfg["init.swirl"], swirl_velocity(grid, 1.0)
        if abs(swirl) * float(max(np.abs(unit.x).max(), np.abs(unit.y).max())) > PHI_BLOWUP_LIMIT:
            raise ConfigError(f"init.swirl = {swirl:g} makes the initial |v| exceed the "
                              f"blow-up limit {PHI_BLOWUP_LIMIT:g}")
        v0 = swirl_velocity(grid, swirl)
    return v0, phi


def build_bounds(cfg: RunConfig) -> ControlBounds:
    return ControlBounds(cfg["bounds.u_min"], cfg["bounds.u_max"])


def build_optimizer_options(cfg: RunConfig) -> OptimizerOptions:
    return OptimizerOptions(
        tol=cfg["optimizer.tol"],
        max_iter=cfg["optimizer.max_iter"],
        armijo_c1=cfg["optimizer.armijo_c1"],
        backtrack_max=cfg["optimizer.backtrack"],
    )


def reference_control(cfg: RunConfig) -> StepSeries:
    """Seeded smooth admissible control used to manufacture tracking targets:
    step n is the seeded direction's step n clamped to the box."""
    grid, time, bounds = build_grid(cfg), build_time(cfg), build_bounds(cfg)
    h = smooth_direction(grid, time, cfg["cost.target_seed"], cfg["cost.target_amplitude"])
    return StepSeries(grid, time.n_steps, lambda n: project_admissible(h[n], bounds))


def build_problem(cfg: RunConfig) -> ControlProblem:
    """Assemble the full control problem described by a configuration.

    With cost.target = tracking, the targets are the phase trajectory of a
    seeded admissible reference control from the same initial data, so the
    optimal cost is known to be small.
    """
    grid = build_grid(cfg)
    time = build_time(cfg)
    params = build_params(cfg)
    bounds = build_bounds(cfg)
    v0, phi0 = build_initial(cfg, grid)

    target = cfg["cost.target"]
    a1, a2, a3 = cfg["cost.alpha1"], cfg["cost.alpha2"], cfg["cost.alpha3"]
    n_nodes = time.n_steps + 1
    if target == "tracking":
        u_ref = reference_control(cfg)
        ref = simulate(v0, phi0, u_ref, time, params)
        cost = CostSpec(a1, a2, a3, [s.phi for s in ref], ref.final.phi)
    elif target == "initial":
        cost = CostSpec(a1, a2, a3, [phi0] * n_nodes, phi0)
    elif target == "stripe":
        tgt = stripe_phase(grid, cfg["init.width"])
        cost = CostSpec(a1, a2, a3, [tgt] * n_nodes, tgt)
    elif target == "zero":
        zero = ScalarField.zeros(grid)
        cost = CostSpec(a1, a2, a3, [zero] * n_nodes, zero)
    else:
        raise ConfigError(
            f"cost.target '{target}' is not one of tracking|initial|stripe|zero"
        )
    return ControlProblem(v0=v0, phi0=phi0, time=time, params=params, cost=cost, bounds=bounds)


def refine_config(cfg: RunConfig) -> RunConfig:
    """Double the grid and halve the time step (for convergence studies)."""
    vals = dict(cfg.values)
    vals["grid.nx"] = cfg["grid.nx"] * 2
    vals["grid.ny"] = cfg["grid.ny"] * 2
    vals["time.dt"] = cfg["time.dt"] / 2
    return RunConfig(vals)
