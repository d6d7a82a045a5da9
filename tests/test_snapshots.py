"""Snapshot file format and diagnostics CSV."""

import numpy as np
import pytest

from nsch import FaceField, GridSpec, TimeSpec, simulate
from nsch.config import bubble_phase
from nsch.snapshots import (
    read_face,
    read_scalar,
    write_diagnostics_csv,
    write_face,
    write_scalar,
    write_trajectory_snapshots,
)

from conftest import random_face, random_scalar


class TestScalarSnapshots:
    def test_round_trip(self, grid65, rng, tmp_path):
        f = random_scalar(grid65, rng)
        path = tmp_path / "phi.nschf"
        write_scalar(path, f, "phi", 0.125)
        g, name, time = read_scalar(path)
        assert name == "phi"
        assert time == 0.125
        assert g.grid == grid65
        assert np.array_equal(g.values, f.values)

    def test_header_line_is_ascii(self, grid65, rng, tmp_path):
        f = random_scalar(grid65, rng)
        path = tmp_path / "f.nschf"
        write_scalar(path, f, "field", 2.0)
        head = path.read_bytes().split(b"\n", 1)[0].decode("ascii").split()
        assert head[0] == "NSCHF"
        assert head[1] == "1"
        assert head[2] == "field"
        assert [int(head[3]), int(head[4])] == [grid65.nx, grid65.ny]

    def test_payload_is_little_endian_row_major(self, grid65, rng, tmp_path):
        f = random_scalar(grid65, rng)
        path = tmp_path / "f.nschf"
        write_scalar(path, f, "f", 0.0)
        raw = path.read_bytes().split(b"\n", 1)[1]
        vals = np.frombuffer(raw, dtype="<f8").reshape(grid65.nx, grid65.ny)
        assert np.array_equal(vals, f.values)

    def test_name_with_space_rejected(self, grid65, rng, tmp_path):
        with pytest.raises(ValueError):
            write_scalar(tmp_path / "x", random_scalar(grid65, rng), "two words")

    def test_wrong_magic_rejected(self, grid65, rng, tmp_path):
        f = random_scalar(grid65, rng)
        path = tmp_path / "f.nschf"
        write_scalar(path, f, "f")
        with pytest.raises(ValueError):
            read_face(path)

    def test_truncated_payload_rejected(self, grid65, rng, tmp_path):
        f = random_scalar(grid65, rng)
        path = tmp_path / "f.nschf"
        write_scalar(path, f, "f")
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_scalar(path)


class TestFaceSnapshots:
    def test_round_trip(self, grid65, rng, tmp_path):
        v = random_face(grid65, rng, noslip=False)
        path = tmp_path / "v.nschv"
        write_face(path, v, "v", 1.5)
        w, name, time = read_face(path)
        assert name == "v"
        assert time == 1.5
        assert np.array_equal(w.x, v.x)
        assert np.array_equal(w.y, v.y)

    def test_two_block_layout(self, grid65, rng, tmp_path):
        v = random_face(grid65, rng, noslip=False)
        path = tmp_path / "v.nschv"
        write_face(path, v, "v")
        raw = path.read_bytes().split(b"\n", 1)[1]
        nxf = (grid65.nx + 1) * grid65.ny
        x = np.frombuffer(raw[: 8 * nxf], dtype="<f8").reshape(grid65.nx + 1, grid65.ny)
        assert np.array_equal(x, v.x)


class TestDiagnosticsCsv:
    def test_columns_and_rows(self, params, tmp_path):
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), None, ts, params)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "step,time,mass,energy,willmore,gl,kinetic,"
            "dissipation_v,dissipation_mu,divergence_max"
        )
        assert len(lines) == ts.n_steps + 2
        # node n's time reads back as n * dt, bit for bit
        rows = [ln.split(",") for ln in lines[1:]]
        assert [(int(r[0]), float(r[1])) for r in rows] == [
            (n, n * ts.dt) for n in range(ts.n_steps + 1)]

    def test_trajectory_snapshots_stride(self, params, tmp_path):
        grid = GridSpec(8, 8, 4.0, 4.0)
        ts = TimeSpec(0.004, 1e-3)
        traj = simulate(FaceField.zeros(grid), bubble_phase(grid), None, ts, params)
        paths = write_trajectory_snapshots(tmp_path, traj, stride=2)
        assert len(paths) == 2 * 3  # nodes 0, 2, 4
        for n, (p_phi, p_v) in zip((0, 2, 4), zip(paths[::2], paths[1::2])):
            phi, _, t_phi = read_scalar(p_phi)
            v, _, t_v = read_face(p_v)
            # node n's time is n * dt, bit for bit
            assert t_phi == t_v == n * ts.dt
            assert np.array_equal(phi.values, traj[n].phi.values)
            assert np.array_equal(v.x, traj[n].v.x)
