import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qbm1d import cli, trajectories
from qbm1d import exact_collision as ec
from qbm1d.errors import ConfigError
from reference_configs import ROWS, write_ini

# every row of reference_configs.ROWS, and one small config per scenario, the
# row named after it: seconds in total, every tolerance at its default
SMOKE = {row.name: row.config for row in ROWS if row.name in cli.SCENARIOS}

# Most configs here step at a delta under 3 typical collision times to keep runs
# short, and collide's smoke labels read a thermal-law rate*delta above 0.1:
# both warn by design.  The tests named *validity_warning* and
# test_moments_gates_and_reports_its_regime assert those warnings; tests marked
# with these two ignore them.
STRAINED_DELTA = pytest.mark.filterwarnings(
    "ignore:coarse step delta:qbm1d.trajectories.ValidityWarning")
RATE_ABOVE_GATE = pytest.mark.filterwarnings(
    "ignore:thermal-law rate:qbm1d.trajectories.ValidityWarning")


def test_reference_row_names_are_unique():
    names = [row.name for row in ROWS]
    assert len(set(names)) == len(names)
    assert all(row.seed is None or isinstance(row.seed, int) for row in ROWS)


def test_every_scenario_has_a_reference_row_named_after_it():
    assert set(SMOKE) == set(cli.SCENARIOS)
    assert all(row.kind == row.name for row in ROWS if row.name in SMOKE)


@STRAINED_DELTA
@RATE_ABOVE_GATE
@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_scenario_runs_and_reruns_identically(row, tmp_path):
    ini = write_ini(tmp_path / f"{row.name}.ini", row.config)
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert cli.main(row.argv(ini, out)) == 0
    summary = json.loads((runs[0] / "summary.json").read_text())
    assert summary["tolerance_failures"] == []
    assert summary["outputs"]
    for name in summary["outputs"]:
        assert (runs[0] / name).stat().st_size > 0, name
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir())
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("kind,listed", [("trajectories", 1), ("moments", 1),
                                         ("delta-scan", 4)])
def test_summary_lists_validity_warnings(kind, listed, tmp_path):
    # the trajectories and moments defaults and each of delta-scan's four
    # deltas take delta below 3 typical collision times; each warning is
    # listed and still shown
    ini = write_ini(tmp_path / f"{kind}.ini", SMOKE[kind])
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert cli.main([kind, str(ini), "--out-dir", str(tmp_path)]) == 0
    listed_texts = json.loads((tmp_path / "summary.json").read_text())[
        "numerics"]["validity_warnings"]
    assert listed_texts == [str(w.message) for w in shown
                            if issubclass(w.category, trajectories.ValidityWarning)]
    assert len(listed_texts) == listed
    assert all("typical collision time" in text for text in listed_texts)


@RATE_ABOVE_GATE
def test_fig1_and_collide_report_the_collision_ratios(tmp_path, monkeypatch):
    # collide's smoke labels are fig1's COM frame at alpha = 0.7: both report
    # collision_ratios of the one COM state
    calls, ratios = [], ec.collision_ratios
    monkeypatch.setattr(ec, "collision_ratios",
                        lambda pair, init: calls.append((pair, init)) or ratios(pair, init))
    reported = []
    for kind, cfg in (("fig1", {**SMOKE["fig1"], "alpha": 0.7}), ("collide", SMOKE["collide"])):
        ini = write_ini(tmp_path / f"{kind}.ini", cfg)
        assert cli.main([kind, str(ini), "--out-dir", str(tmp_path / kind)]) == 0
        reported.append(json.loads((tmp_path / kind / "summary.json").read_text())["diagnostics"])
    assert len(calls) == 2 and calls[0] == calls[1]
    want = ratios(*calls[0])
    assert set(want) == {"overlap_ratio", "momentum_ratio", "label_map_error"}
    for diagnostics in reported:
        assert {key: diagnostics[key] for key in want} == want


def test_negative_dt_rejected(tmp_path, capsys):
    # dt is no longer a key (the ODE steps by delta), so any dt is rejected
    ini = write_ini(tmp_path / "moments.ini", {"dt": -0.01, "horizon": 1.0})
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("moments", str(ini))
    assert exc.value.field == "scenario.dt"
    assert cli.main(["moments", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    assert "scenario.dt" in capsys.readouterr().err
    assert not (tmp_path / "out" / "moments_ode.csv").exists()


@STRAINED_DELTA
def test_moment_rows_fall_on_the_trajectory_times(tmp_path):
    # both write t = k delta, k = 0, ..., round(horizon / delta), bit for bit
    ini = write_ini(tmp_path / "c.ini", {"horizon": 20.0, "delta": 0.3})
    tables = []
    for kind, name in (("trajectories", "moments.csv"), ("moments", "moments_ode.csv")):
        assert cli.main([kind, str(ini), "--out-dir", str(tmp_path / kind)]) == 0
        lines = (tmp_path / kind / name).read_text().splitlines()
        tables.append([line.split(",")[0] for line in lines])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 1 + 1 + round(20.0 / 0.3)


def test_emit_csv_numpy_scalars_read_back(tmp_path):
    row = (np.float64(0.5), np.float64(1.0 / 3.0), np.float64(-2.5e-300), np.int64(7))
    path = cli.emit_csv(tmp_path / "row.csv", ["a", "b", "c", "n"], [row])
    assert "np." not in path.read_text()
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.tolist() == [float(v) for v in row]


def test_emit_csv_golden_bytes(tmp_path):
    # the repr of a plain float for every float, numpy's included; str otherwise
    row = [0.1, np.float64(1.0 / 3.0), 7, 1e-05, -0.0, 1e16]
    path = cli.emit_csv(tmp_path / "row.csv", ["a", "b", "n", "c", "d", "e"], [row])
    assert path.read_bytes() == b"a,b,n,c,d,e\n0.1,0.3333333333333333,7,1e-05,-0.0,1e+16\n"


def test_scenarios_in_one_process_write_what_separate_processes_write(tmp_path):
    # one parser serves every cli.main call of a process
    runs = [(kind, write_ini(tmp_path / f"{kind}.ini", SMOKE[kind]))
            for kind in ("fig1", "oracle-verify")]
    for kind, ini in runs:
        assert cli.main([kind, str(ini), "--out-dir", str(tmp_path / "one" / kind)]) == 0
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for kind, ini in runs:
        subprocess.run([sys.executable, "-m", "qbm1d.cli", kind, str(ini), "--out-dir",
                        str(tmp_path / "own" / kind)], env=env, check=True, capture_output=True)
        names = sorted(p.name for p in (tmp_path / "one" / kind).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "own" / kind).iterdir())
        for name in names:
            assert ((tmp_path / "one" / kind / name).read_bytes()
                    == (tmp_path / "own" / kind / name).read_bytes()), (kind, name)


@pytest.mark.parametrize("cfg", [{"alpha": 0.3, "sigma": 1.0, "x": 60.0, "p": -2.0},
                                 {"alpha": 0.02, "sigma": 8.0, "x": 30.0, "p": -1.0}],
                         ids=["60-widths-apart", "trajectory-defaults"])
def test_fig1_far_apart_packets(cfg, tmp_path):
    # the momentum marginal used to come from a wavefunction grid that was
    # NaN at t = 0 for these packets, and fig1 died in its spline fit
    ini = write_ini(tmp_path / "fig1.ini", {**cfg, "n_times": 3, "n_x": 9, "n_p": 9})
    assert cli.main(["fig1", str(ini), "--out-dir", str(tmp_path)]) == 0
    for name in ("position_marginal.csv", "momentum_marginal.csv", "momentum_mean.csv"):
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert table.size and np.all(np.isfinite(table)), name


@RATE_ABOVE_GATE
@pytest.mark.parametrize("kind", ["fig1", "collide"])
def test_summary_reports_momentum_rule_nodes(kind, tmp_path):
    # one q-node count per table time, each a whole number of 16-node panels
    ini = write_ini(tmp_path / f"{kind}.ini", {**SMOKE[kind], "n_times": 3})
    assert cli.main([kind, str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    nodes = summary["numerics"]["momentum_rule_nodes"]
    table = np.loadtxt(tmp_path / "momentum_marginal.csv", delimiter=",", skiprows=1)
    assert len(nodes) == np.unique(table[:, 0]).size == 3
    assert all(isinstance(n, int) and n > 0 and n % 16 == 0 for n in nodes)


@pytest.mark.parametrize("labels,field", [
    ({"gas_x": -10.0, "gas_p": -1.0, "x": 3.0, "p": 1.0}, "scenario.p"),
    ({"gas_x": 10.0, "gas_p": 1.0, "x": 3.0, "p": -1.0}, "scenario.p"),
    ({"gas_x": 3.0, "gas_p": 1.0, "x": 3.0, "p": -1.0}, "scenario.gas_x"),
], ids=["receding", "receding-mirrored", "coincident"])
def test_collide_without_collision_rejected(labels, field, tmp_path, capsys):
    ini = write_ini(tmp_path / "collide.ini", {"alpha": 0.7, "sigma": 1.0, **labels})
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("collide", str(ini))
    assert exc.value.field == field
    assert cli.main(["collide", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


@STRAINED_DELTA
def test_delta_scan_without_flight_window_fails_on_its_slope(tmp_path, capsys):
    # every excess rate is 0, so the log-log slope is undefined
    ini = write_ini(tmp_path / "scan.ini", {"n_traj": 200, "horizon": 10.0,
                                           "gas_flight_window": 0.0})
    assert cli.main(["delta-scan", str(ini), "--out-dir", str(tmp_path)]) == 3

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["log_log_slope"] is None
    assert any("slope" in f for f in summary["tolerance_failures"])
    assert "slope" in capsys.readouterr().err


@STRAINED_DELTA
@pytest.mark.parametrize("kind", ["trajectories", "delta-scan"])
def test_thermal_law_step_too_large_exits_before_any_step(kind, tmp_path, capsys, monkeypatch):
    # at n_g = 2 the thermal-law rate * delta exceeds 0.1 at every default delta
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(trajectories, "_collisions", no_step)
    ini = write_ini(tmp_path / "c.ini", {"number_density": 2.0, "horizon": 20.0})
    assert cli.main([kind, str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "thermal-law rate*delta" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@STRAINED_DELTA
def test_gate_and_summaries_read_one_regime_report(tmp_path, monkeypatch):
    # at the trajectories defaults the gate reads rate * delta = 0.0570 under
    # the thermal laws and 0.0564 at p0 = 0; a collide at the same gas, delta
    # and lab momentum p = 0 writes the same report as the trajectories summary
    seen, regime = [], trajectories.regime

    def spy(*args):
        seen.append((sys._getframe(1).f_code.co_name, regime(*args)))
        return seen[-1][1]

    monkeypatch.setattr(trajectories, "regime", spy)
    reported = {}
    for kind, cfg in (("trajectories", SMOKE["trajectories"]),
                      ("collide", {"alpha": 0.02, "sigma": 8.0, "number_density": 0.02,
                                   "delta": 0.5, "x": 0.0, "p": 0.0, "gas_x": -100.0,
                                   "gas_p": 1.0, "n_times": 2, "n_x": 5, "n_p": 5,
                                   "fidelity_times": "0.0"})):
        ini = write_ini(tmp_path / f"{kind}.ini", cfg)
        assert cli.main([kind, str(ini), "--out-dir", str(tmp_path / kind)]) == 0
        reported[kind] = json.loads((tmp_path / kind / "summary.json").read_text())["diagnostics"]
    report = reported["trajectories"]
    assert [caller for caller, _ in seen] == ["_check_regime", "run", "_check_regime", "_regime"]
    assert all(result == report for _, result in seen)
    assert {key: reported["collide"][key] for key in report} == report
    assert report["step_collision_probability_by_law"] == {
        "thermal-law": pytest.approx(0.0570, abs=5e-5),
        "initial-label": pytest.approx(0.0564, abs=5e-5)}


def test_moments_gates_and_reports_its_regime(tmp_path):
    # the moment ODE runs at the trajectories defaults, delta = 0.5 against
    # t_typ = 22.4: it lists the one warning, exits 0 and reports the regime
    ini = write_ini(tmp_path / "m.ini", {})
    cfg = cli.ScenarioConfig.load("moments", str(ini), out_dir=tmp_path)
    with pytest.warns(trajectories.ValidityWarning, match="typical collision time 22.4"):
        assert cli.run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["numerics"]["validity_warnings"]) == 1
    assert summary["diagnostics"] == trajectories.regime(cfg.gas, cfg.pair, 0.5, 0.0)
    assert summary["tolerance_failures"] == []


def test_collide_outside_the_regime_lists_a_validity_warning(tmp_path):
    # the smoke config reads thermal-law rate * delta = 0.124, above the 0.1
    # that trajectories refuses; one collision takes no coarse step, so
    # collide exits 0 and lists it, the only warning
    ini = write_ini(tmp_path / "c.ini", SMOKE["collide"])
    with pytest.warns(trajectories.ValidityWarning, match="rate"):
        assert cli.main(["collide", str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["numerics"]["validity_warnings"] == ["thermal-law rate*delta = 0.124 > 0.1"]
    assert summary["tolerance_failures"] == []


@RATE_ABOVE_GATE
def test_collide_summary_reports_collision_ratios_and_time(tmp_path):
    # the COM labels x = 10, p = -2 at alpha = 0.3, sigma = 4: 5.2 combined
    # widths apart, the relative momentum 16.65 times its uncertainty; its
    # delta = 10 lies under 3 typical collision times, the reported ratio
    ini = write_ini(tmp_path / "c.ini", {"alpha": 0.3, "sigma": 4.0, "x": 10.0, "p": -2.0,
                                         "gas_x": -10.0 / 0.3, "gas_p": 2.0, "n_times": 2,
                                         "n_x": 5, "n_p": 5, "fidelity_times": "0.0"})
    with pytest.warns(trajectories.ValidityWarning, match="typical collision time 9.92"):
        assert cli.main(["collide", str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    diagnostics = summary["diagnostics"]
    assert diagnostics["overlap_ratio"] == pytest.approx(5.20, abs=0.01)
    assert diagnostics["momentum_ratio"] == pytest.approx(16.65, abs=0.01)
    assert diagnostics["collision_time"] == summary["collision_time"] == pytest.approx(
        2.718, abs=1e-3)
    assert diagnostics["coarse_graining_ratio"] == pytest.approx(
        diagnostics["typical_collision_time"] / 10.0, rel=1e-15)


@RATE_ABOVE_GATE
def test_collide_reports_the_rate_at_its_lab_momentum(tmp_path):
    # lab labels x = 0, p = 2 against a gas packet at rest at x_g = 5: the COM
    # momentum is -(alpha p - p_g)/(1 + alpha) = -0.46, but the thermal gas
    # sees the lab momentum, so the initial-label rate * delta is 0.225 (the
    # COM momentum's rate gave 0.150)
    ini = write_ini(tmp_path / "c.ini", {"alpha": 0.3, "sigma": 1.0, "x": 0.0, "p": 2.0,
                                         "gas_x": 5.0, "gas_p": 0.0, "n_times": 2,
                                         "n_x": 5, "n_p": 5, "fidelity_times": "0.0"})
    cfg = cli.ScenarioConfig.load("collide", str(ini), out_dir=tmp_path)
    assert cli.run_scenario(cfg) == 0
    by_law = json.loads((tmp_path / "summary.json").read_text())["diagnostics"][
        "step_collision_probability_by_law"]
    want = float(trajectories.collision_rate(2.0, cfg.gas, cfg.pair)) * cfg.delta
    assert by_law["initial-label"] == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(0.225, abs=5e-4)


@pytest.mark.parametrize("text", [
    "[scenario]\nhorizon = 1.0\nhorizon = 2.0\n",
    "horizon = 1.0\n",
    "[scenario]\nhorizon\n",
], ids=["repeated-key", "no-section-header", "no-equals-sign"])
def test_malformed_ini_is_a_config_error(text, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("moments", str(ini))
    assert exc.value.field == "config"
    assert cli.main(["moments", str(ini), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_runs_without_scipy():
    # a fresh interpreter in which scipy cannot be imported: every qbm1d
    # module imports, and the grid oracle, the collision channel and the
    # trajectory ensemble run; scipy is an oracle of the tests alone
    code = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import numpy as np
import qbm1d
for mod in pkgutil.iter_modules(qbm1d.__path__):
    importlib.import_module("qbm1d." + mod.name)
from qbm1d import channel, exact_collision as ec, grid_oracle, trajectories
from qbm1d.packets import CollisionPair
from qbm1d.thermal import ThermalGasSpec
pair = CollisionPair.matched(1.0, 0.3, 1.0)
init = ec.com_condition(pair, 3.0, -1.0)
state = grid_oracle.discretize(pair, init, grid_oracle.default_grid(pair, init, 256))
assert abs(grid_oracle.propagate(state, pair, 1.0).norm() - state.norm()) < 1e-12
grid = channel.SpatialGrid(n=192, length=24.0)
psi = channel.grid_packet(grid, pair.brownian_packet(1.0, 0.5))
rho = channel.OperatorGrid(np.outer(psi, psi.conj()), grid)
assert abs(channel.apply_collision_channel(rho, pair, (-2.0, 1.5), t=0.5).trace() - 1) < 1e-3
gas = ThermalGasSpec(temperature=1.0, number_density=0.02, gas_mass=pair.gas_mass,
                     packet_width=pair.gas_width)
assert len(trajectories.run(np.zeros(100), np.zeros(100), gas, pair, 10.0, 2.5, seed=0)) == 5
assert not any(name.split(".")[0] == "scipy" for name in sys.modules if sys.modules[name])
"""
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@STRAINED_DELTA
def test_unconverged_partner_draw_exits_2_and_names_the_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trajectories, "_MAX_ROUNDS", 1)
    ini = write_ini(tmp_path / "c.ini", SMOKE["trajectories"])
    assert cli.main(["trajectories", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "PartnerNotConverged" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@STRAINED_DELTA
def test_cold_gas_partner_draws_at_underflowing_kinks(tmp_path):
    # at T = 1e-4 every path has z_v = 42, where phi and the flux mass below
    # the kink underflow to 0: the envelope is almost all normal part
    ini = write_ini(tmp_path / "c.ini", {"temperature": 1e-4, "p0": 3.0, "n_traj": 2000,
                                         "horizon": 20.0})
    assert cli.main(["trajectories", str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tolerance_failures"] == []


@STRAINED_DELTA
def test_delta_scan_rare_fast_path_passes(tmp_path):
    # at seed 14 one of the 2e4 thermal paths reached rate * delta = 0.106 at
    # delta = 1, which stopped the scan while the step check read the
    # realised largest |p|; it reads the thermal law now
    ini = write_ini(tmp_path / "scan.ini", {})
    assert cli.main(["delta-scan", str(ini), "--seed", "14", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tolerance_failures"] == []


@pytest.mark.parametrize("kind,cfg", [
    *(("fig1", {**SMOKE["fig1"], "n_x": 5, "n_p": 5, "t_max_collision_units": t})
      for t in (1e6, 1e12, 1e150, 1e200)),
    ("collide", {**SMOKE["collide"], "fidelity_times": "0.5 1e200"}),
], ids=["fig1-1e6", "fig1-1e12", "fig1-1e150", "fig1-1e200", "collide-1e200"])
def test_late_table_time_exits_2_and_names_the_error(kind, cfg, tmp_path):
    # the momentum rule's window outgrows its node budget, or |s_t|^2
    # overflows; in a process capped at 4 GiB, should the budget go unchecked
    ini = write_ini(tmp_path / f"{kind}.ini", cfg)
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32)); "
    result = subprocess.run(
        [sys.executable, "-c", cap + "import sys; from qbm1d.cli import main; sys.exit(main())",
         kind, str(ini), "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "error: TimeTooLate" in result.stderr
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("cfg", [{}, {"alpha": 0.02, "sigma": 8.0, "x": 30.0, "p": -1.0},
                                 {"alpha": 1.0, "sigma": 1.0, "x": 5.0, "p": -0.5}],
                         ids=["defaults", "190-widths-apart", "spreading-R"])
def test_oracle_verify_at_default_grids(cfg, tmp_path):
    # the far-apart closed form used to be NaN on every row, and the gate
    # read the NaN as an error of 0; at alpha = 1 the R factor spreads past
    # a box that held only its initial width (finest-grid error 8.9e-2)
    ini = write_ini(tmp_path / "oracle.ini", cfg)
    for name in ("first", "second"):
        assert cli.main(["oracle-verify", str(ini), "--out-dir", str(tmp_path / name)]) == 0
    for name in ("oracle_error.csv", "summary.json"):
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes()), name
    table = np.loadtxt(tmp_path / "first" / "oracle_error.csv", delimiter=",", skiprows=1)
    assert table.shape == (21, 3) and np.all(np.isfinite(table))
    summary = json.loads((tmp_path / "first" / "summary.json").read_text())
    assert summary["worst_error_at_finest"] <= 1e-12


def test_oracle_verify_fails_on_a_non_finite_error(tmp_path, capsys, monkeypatch):
    compare = cli.grid_oracle.compare_to_analytic

    def broken(pair, init, t, params, validate=True):
        return np.where(np.asarray(t) > 0, np.nan, compare(pair, init, t, params, validate))

    monkeypatch.setattr(cli.grid_oracle, "compare_to_analytic", broken)
    ini = write_ini(tmp_path / "oracle.ini", SMOKE["oracle-verify"])
    assert cli.main(["oracle-verify", str(ini), "--out-dir", str(tmp_path)]) == 3
    summary = json.loads((tmp_path / "summary.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert summary["worst_error_at_finest"] is None
    assert len(summary["tolerance_failures"]) == 2
    assert any("grid_n = 96" in f for f in summary["tolerance_failures"])
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind,cfg,seed,field", [
    ("oracle-verify", {"grid_sizes": ""}, None, "scenario.grid_sizes"),
    ("oracle-verify", {"times_collision_units": ""}, None, "scenario.times_collision_units"),
    ("delta-scan", {"deltas": "0.1 0.1"}, None, "scenario.deltas"),
    ("delta-scan", {"deltas": "0.1 200", "horizon": 5.0}, None, "scenario.deltas"),
    ("collide", {**SMOKE["collide"], "fidelity_times": "-1"}, None, "scenario.fidelity_times"),
    ("collide", {**SMOKE["collide"], "fidelity_times": ""}, None, "scenario.fidelity_times"),
    ("oracle-verify", {"x": -3.0}, None, "scenario.x"),
    ("oracle-verify", {"p": 1.0}, None, "scenario.p"),
    ("oracle-verify", {"r_length": -1.0}, None, "scenario.r_length"),
    ("oracle-verify", {"R_halfwidth": -1.0}, None, "scenario.R_halfwidth"),
    ("trajectories", {"seed": -1}, None, "scenario.seed"),
    ("trajectories", {}, -1, "scenario.seed"),
    ("delta-scan", {}, -1, "scenario.seed"),
    ("channel-verify", {"grid_n": 8}, None, "scenario.grid_n"),
    ("delta-scan", {"ratio_factor": 0.0}, None, "scenario.ratio_factor"),
    ("delta-scan", {"ratio_factor": 0.5}, None, "scenario.ratio_factor"),
    ("oracle-verify", {"tolerance": 0.0}, None, "scenario.tolerance"),
    ("channel-verify", {"trace_tol": 0.0}, None, "scenario.trace_tol"),
    ("channel-verify", {"completeness_tol": -1e-3}, None, "scenario.completeness_tol"),
    ("delta-scan", {"slope_tol": 0.0}, None, "scenario.slope_tol"),
    ("channel-verify", {"fidelity_min": 0.0}, None, "scenario.fidelity_min"),
    ("channel-verify", {"fidelity_min": 1.5}, None, "scenario.fidelity_min"),
    ("trajectories", {"horizon": 1.0, "delta": 2.0}, None, "scenario.horizon"),
    ("moments", {"horizon": 1.0, "dt": 5.0}, None, "scenario.dt"),
    # the ODE's step is delta, 0.5 at the defaults
    ("moments", {"horizon": 0.05}, None, "scenario.horizon"),
    ("trajectories", {"record_every": 1000, "horizon": 20.0}, None, "scenario.record_every"),
    ("fig1", {"kind": "fig1"}, None, "scenario.kind"),
    ("trajectories", {"timing": "midpoint"}, None, "scenario.timing"),
    ("delta-scan", {"timing": "uniform"}, None, "scenario.timing"),
    ("trajectories", {"thermal_start": "false"}, None, "scenario.thermal_start"),
    ("fig1", {"boltzmann_k": 1.0}, None, "scenario.boltzmann_k"),
    ("moments", {"x0": 0.0}, None, "scenario.x0"),
    ("trajectories", {"p0": "nan"}, None, "scenario.p0"),
    ("fig1", {"x_lo": "nan"}, None, "scenario.x_lo"),
    ("channel-verify", {"state_x": "inf"}, None, "scenario.state_x"),
    ("delta-scan", {"deltas": "0.25 -inf"}, None, "scenario.deltas"),
], ids=["no-grid-sizes", "no-times", "duplicate-deltas", "delta-beyond-horizon",
        "negative-fidelity-time", "no-fidelity-times", "oracle-x-not-positive",
        "oracle-p-not-negative", "negative-r-length", "negative-R-halfwidth",
        "negative-seed-in-config", "negative-seed-option", "negative-scan-seed",
        "grid-below-16", "zero-ratio-factor", "ratio-factor-below-1", "zero-tolerance",
        "zero-trace-tol", "negative-completeness-tol", "zero-slope-tol",
        "zero-fidelity-min", "fidelity-min-above-1", "horizon-below-delta",
        "dt-beyond-horizon", "resolved-dt-beyond-horizon",
        "record-every-skips-horizon", "removed-kind-key", "removed-timing-key",
        "removed-scan-timing-key", "removed-thermal-start-key",
        "removed-boltzmann-k-key", "removed-x0-key", "nan-p0", "nan-x-lo",
        "infinite-state-x", "infinite-delta"])
def test_input_that_would_escape_validation_rejected(kind, cfg, seed, field, tmp_path, capsys):
    ini = write_ini(tmp_path / "bad.ini", cfg)
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load(kind, str(ini), seed=seed)
    assert exc.value.field == field
    # a removed key (r_length, R_halfwidth, trace_tol, completeness_tol,
    # fidelity_min, dt, record_every, ...) is rejected as unknown whatever its value
    removed = field.removeprefix("scenario.") not in {f.name for f in _keys(kind)}
    assert str(exc.value).endswith("unknown key") == removed
    argv = [] if seed is None else ["--seed", str(seed)]
    assert cli.main([kind, str(ini), *argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def _keys(kind):
    return cli._keys(cli.SCENARIOS[kind])


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_every_schema_error_names_its_field(kind, tmp_path):
    # a value no key accepts, a missing required key and an unknown key
    def field_of(cfg):
        with pytest.raises(ConfigError) as exc:
            cli.ScenarioConfig.load(kind, str(write_ini(tmp_path / "cfg.ini", cfg)))
        return exc.value.field

    for f in _keys(kind):
        assert field_of({**SMOKE[kind], f.name: "bogus"}) == f"scenario.{f.name}"
        if f.default is dataclasses.MISSING:
            rest = {k: v for k, v in SMOKE[kind].items() if k != f.name}
            assert field_of(rest) == f"scenario.{f.name}"
    assert field_of({**SMOKE[kind], "bogus_key": 1}) == "scenario.bogus_key"


def test_mixed_case_key_is_read(tmp_path):
    # INI keys used to be lower-cased; Alpha is now read as written, an unknown key
    ini = write_ini(tmp_path / "oracle.ini", {**SMOKE["oracle-verify"], "Alpha": 0.5})
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.load("oracle-verify", str(ini))
    assert exc.value.field == "scenario.Alpha"
    assert str(exc.value).endswith("unknown key")


@pytest.mark.parametrize("kind", sorted(SMOKE))
def test_summary_config_holds_every_resolved_key(kind, tmp_path, monkeypatch):
    # perfbench's accuracy checks rebuild the physics from this block
    monkeypatch.setattr(cli.SCENARIOS[kind], "run", lambda cfg: ({"outputs": []}, []))
    ini = write_ini(tmp_path / "cfg.ini", SMOKE[kind])
    assert cli.main([kind, str(ini), "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert set(config) == {f.name for f in _keys(kind)} | {"kind"}
    assert config["kind"] == kind and config["seed"] == 3
    resolved = {**SMOKE[kind], "seed": 3}
    for f in _keys(kind):
        value = cli._CASTS[f.type](resolved[f.name]) if f.name in resolved else f.default
        assert config[f.name] == json.loads(json.dumps(value)), f.name
