import json

import numpy as np
import pytest

from qbm1d import cli
from qbm1d.errors import ConfigError

# one small config per scenario: seconds in total, every tolerance at its default
SMOKE = {
    "fig1": {"sigma": 1.0, "x": 3.0, "p": -1.0, "n_times": 2, "n_x": 9, "n_p": 9,
             "momentum_grid_n": 128, "x_lo": -10.0, "x_hi": 10.0},
    "collide": {"alpha": 0.7, "sigma": 1.0, "x": 3.0, "p": -1.0,
                "gas_x": -3.0 / 0.7, "gas_p": 1.0, "n_times": 2, "n_x": 9,
                "n_p": 9, "momentum_grid_n": 128, "x_lo": -10.0, "x_hi": 10.0,
                "fidelity_times": "0.5 4.0"},
    "oracle-verify": {"sigma": 1.0, "x": 3.0, "p": -1.0, "grid_sizes": "64 96",
                      "times_collision_units": "0 1"},
    "channel-verify": {"grid_n": 192, "grid_length": 24.0},
    "trajectories": {"n_traj": 200, "horizon": 20.0},
    "moments": {"horizon": 20.0},
    "delta-scan": {"n_traj": 2000, "horizon": 20.0},
}


def _write_ini(path, cfg):
    path.write_text("[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


def test_every_scenario_has_a_smoke_config():
    assert set(SMOKE) == set(cli.SCHEMAS)


@pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_scenario_runs_and_reruns_identically(kind, tmp_path):
    ini = _write_ini(tmp_path / f"{kind}.ini", SMOKE[kind])
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main([kind, str(ini), "--seed", "3", "--out-dir", str(out)]) == 0
        runs.append(out)
    summary = json.loads((runs[0] / "summary.json").read_text())
    assert summary["tolerance_failures"] == []
    assert summary["outputs"]
    for name in summary["outputs"]:
        assert (runs[0] / name).is_file(), name
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir())
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_negative_dt_rejected(tmp_path, capsys):
    ini = _write_ini(tmp_path / "moments.ini", {"dt": -0.01, "horizon": 1.0})
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("moments", str(ini))
    assert exc.value.field == "scenario.dt"
    assert cli.main(["moments", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    assert "scenario.dt" in capsys.readouterr().err
    assert not (tmp_path / "out" / "moments_ode.csv").exists()


def test_emit_csv_numpy_scalars_read_back(tmp_path):
    row = (np.float64(0.5), np.float64(1.0 / 3.0), np.float64(-2.5e-300), np.int64(7))
    path = cli.emit_csv(tmp_path / "row.csv", ["a", "b", "c", "n"], [row])
    assert "np." not in path.read_text()
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.tolist() == [float(v) for v in row]


@pytest.mark.parametrize("cfg", [{"alpha": 0.3, "sigma": 1.0, "x": 60.0, "p": -2.0},
                                 {"alpha": 0.02, "sigma": 8.0, "x": 30.0, "p": -1.0}],
                         ids=["60-widths-apart", "trajectory-defaults"])
def test_fig1_far_apart_packets(cfg, tmp_path):
    # the momentum marginal used to come from a wavefunction grid that was
    # NaN at t = 0 for these packets, and fig1 died in its spline fit
    ini = _write_ini(tmp_path / "fig1.ini", {**cfg, "n_times": 3, "n_x": 9, "n_p": 9})
    assert cli.main(["fig1", str(ini), "--out-dir", str(tmp_path)]) == 0
    for name in ("position_marginal.csv", "momentum_marginal.csv", "momentum_mean.csv"):
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert table.size and np.all(np.isfinite(table)), name


@pytest.mark.parametrize("labels,field", [
    ({"gas_x": -10.0, "gas_p": -1.0, "x": 3.0, "p": 1.0}, "scenario.p"),
    ({"gas_x": 10.0, "gas_p": 1.0, "x": 3.0, "p": -1.0}, "scenario.p"),
    ({"gas_x": 3.0, "gas_p": 1.0, "x": 3.0, "p": -1.0}, "scenario.gas_x"),
], ids=["receding", "receding-mirrored", "coincident"])
def test_collide_without_collision_rejected(labels, field, tmp_path, capsys):
    ini = _write_ini(tmp_path / "collide.ini", {"alpha": 0.7, "sigma": 1.0, **labels})
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("collide", str(ini))
    assert exc.value.field == field
    assert cli.main(["collide", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_delta_scan_without_flight_window_fails_on_its_slope(tmp_path, capsys):
    # every excess rate is 0, so the log-log slope is undefined
    ini = _write_ini(tmp_path / "scan.ini", {"n_traj": 200, "horizon": 10.0,
                                            "gas_flight_window": 0.0})
    assert cli.main(["delta-scan", str(ini), "--out-dir", str(tmp_path)]) == 3

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["log_log_slope"] is None
    assert any("slope" in f for f in summary["tolerance_failures"])
    assert "slope" in capsys.readouterr().err
