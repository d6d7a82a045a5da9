"""Field snapshot files and diagnostics CSV.

Snapshot format (shared across the suite): a single ASCII header line

    NSCHF 1 <name> <nx> <ny> <lx> <ly> <time>

followed by nx*ny little-endian float64 values in row-major cell order.
Face fields use the header token NSCHV and two consecutive payload blocks,
x-faces ((nx+1)*ny values) then y-faces (nx*(ny+1) values).
"""

from __future__ import annotations

import os

import numpy as np

from .grid import FaceField, GridSpec, ScalarField
from .state import DIAGNOSTIC_COLUMNS, Trajectory

_MAGIC_SCALAR = "NSCHF"
_MAGIC_FACE = "NSCHV"
_VERSION = 1


def _header(magic: str, name: str, grid: GridSpec, time: float) -> bytes:
    if " " in name or not name:
        raise ValueError("snapshot name must be a nonempty token without spaces")
    return (
        f"{magic} {_VERSION} {name} {grid.nx} {grid.ny} "
        f"{grid.lx!r} {grid.ly!r} {time!r}\n"
    ).encode("ascii")


def _parse_header(line: bytes, expect_magic: str):
    parts = line.decode("ascii").split()
    if len(parts) != 8 or parts[0] != expect_magic:
        raise ValueError(f"not a {expect_magic} snapshot header: {line!r}")
    if int(parts[1]) != _VERSION:
        raise ValueError(f"unsupported snapshot version {parts[1]}")
    name = parts[2]
    nx, ny = int(parts[3]), int(parts[4])
    lx, ly, time = float(parts[5]), float(parts[6]), float(parts[7])
    return name, GridSpec(nx, ny, lx, ly), time


def _read_payload(fh, count: int, kind: str) -> np.ndarray:
    """The next ``count`` float64 values of ``fh``; the size the header
    claims is checked against the bytes left before anything is read."""
    if 8 * count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated {kind} snapshot payload")
    return np.frombuffer(fh.read(8 * count), dtype="<f8")


def write_scalar(path, f: ScalarField, name: str, time: float = 0.0) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(_MAGIC_SCALAR, name, f.grid, time))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_scalar(path) -> tuple[ScalarField, str, float]:
    with open(path, "rb") as fh:
        name, grid, time = _parse_header(fh.readline(), _MAGIC_SCALAR)
        data = _read_payload(fh, grid.nx * grid.ny, "scalar")
    return ScalarField(grid, data.reshape(grid.nx, grid.ny).copy()), name, time


def write_face(path, v: FaceField, name: str, time: float = 0.0) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(_MAGIC_FACE, name, v.grid, time))
        fh.write(v.x.astype("<f8").tobytes(order="C"))
        fh.write(v.y.astype("<f8").tobytes(order="C"))


def read_face(path) -> tuple[FaceField, str, float]:
    with open(path, "rb") as fh:
        name, grid, time = _parse_header(fh.readline(), _MAGIC_FACE)
        nxf = (grid.nx + 1) * grid.ny
        nyf = grid.nx * (grid.ny + 1)
        raw = _read_payload(fh, nxf + nyf, "face")
    x = raw[:nxf].reshape(grid.nx + 1, grid.ny).copy()
    y = raw[nxf:].reshape(grid.nx, grid.ny + 1).copy()
    return FaceField(grid, x, y), name, time


def write_diagnostics_csv(path, traj: Trajectory) -> None:
    d = traj.diagnostics
    with open(path, "w") as fh:
        fh.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
        for i in range(len(d["step"])):
            row = []
            for col in DIAGNOSTIC_COLUMNS:
                v = d[col][i]
                row.append(str(int(v)) if col == "step" else f"{v:.17g}")
            fh.write(",".join(row) + "\n")


def write_trajectory_snapshots(outdir, traj: Trajectory, stride: int = 1) -> list[str]:
    """Write per-node phi/velocity snapshots every ``stride`` nodes, node n
    stamped with its time n*dt."""
    paths = []
    for n, s in enumerate(traj):
        if n % stride:
            continue
        t = n * traj.time.dt
        p1 = os.path.join(outdir, f"phi_{n:06d}.nschf")
        write_scalar(p1, s.phi, "phi", t)
        p2 = os.path.join(outdir, f"v_{n:06d}.nschv")
        write_face(p2, s.v, "v", t)
        paths.extend([p1, p2])
    return paths
