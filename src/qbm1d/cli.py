"""Scenario runner: declarative INI configs, CSV/JSON artifacts, exit codes.

Usage::

    qbm1d <scenario> <config.ini> [--seed N] [--out-dir DIR]

Scenarios: collide, oracle-verify, channel-verify, trajectories, moments,
fig1, delta-scan.  The config file holds a single ``[scenario]`` section of
``key = value`` pairs; every key is validated against the scenario's schema
before any computation starts (unknown keys are rejected, errors name the
field path).  Exit codes: 0 success, 2 configuration/validation failure,
3 numerical tolerance failure.

Every run writes a ``summary.json`` embedding the fully resolved config and
seed, so artifacts are reproducible from the summary alone; identical
config and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channel, exact_collision as ec, grid_oracle, moments, trajectories
from .errors import ConfigError, QBM1DError
from .packets import CollisionPair, classical_collision_map
from .thermal import ThermalGasSpec

__all__ = ["ScenarioConfig", "run_scenario", "emit_csv", "main"]

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    cast: object
    default: object = _REQUIRED
    help: str = ""


def _bool(s):
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _floats(s):
    return [float(v) for v in str(s).replace(",", " ").split()]


def _ints(s):
    return [int(v) for v in str(s).replace(",", " ").split()]


_COMMON = {
    "kind": _Key(str, None, "optional; must match the subcommand"),
    "hbar": _Key(float, 1.0),
    "boltzmann_k": _Key(float, 1.0),
    "seed": _Key(int, 0),
}

_MARGINAL_KEYS = {
    "n_times": _Key(int, 24),
    "t_max_collision_units": _Key(float, 5.0),
    "x_lo": _Key(float, -40.0), "x_hi": _Key(float, 40.0), "n_x": _Key(int, 321),
    "p_lo": _Key(float, -4.0), "p_hi": _Key(float, 4.0), "n_p": _Key(int, 241),
    "momentum_grid_n": _Key(int, 1024, "ignored; the momentum marginal needs no grid"),
}

SCHEMAS = {
    "fig1": {
        **_COMMON,
        "x": _Key(float, 10.0), "p": _Key(float, -2.0),
        "mass": _Key(float, 1.0), "alpha": _Key(float, 0.3),
        "sigma": _Key(float, 4.0),
        **_MARGINAL_KEYS,
    },
    "collide": {
        **_COMMON,
        "gas_x": _Key(float), "gas_p": _Key(float),
        "x": _Key(float), "p": _Key(float),
        "mass": _Key(float, 1.0), "alpha": _Key(float),
        "sigma": _Key(float),
        "temperature": _Key(float, 1.0),
        "number_density": _Key(float, 0.01),
        "delta": _Key(float, 10.0),
        "fidelity_times": _Key(_floats, None, "COM-frame fidelity sample times"),
        **_MARGINAL_KEYS,
    },
    "oracle-verify": {
        **_COMMON,
        "x": _Key(float, 10.0), "p": _Key(float, -2.0),
        "mass": _Key(float, 1.0), "alpha": _Key(float, 0.3),
        "sigma": _Key(float, 4.0),
        "grid_sizes": _Key(_ints, [96, 128, 192, 256, 384, 512, 1024]),
        "times_collision_units": _Key(_floats, [0.0, 1.0, 3.0]),
        "r_length": _Key(float, 0.0, "0 = derive from packet supports"),
        "R_halfwidth": _Key(float, 0.0, "0 = derive from packet supports"),
        "tolerance": _Key(float, 1e-3),
    },
    "channel-verify": {
        **_COMMON,
        "mass": _Key(float, 1.0), "alpha": _Key(float, 0.3),
        "sigma": _Key(float, 1.0),
        "grid_n": _Key(int, 256), "grid_length": _Key(float, 24.0),
        "state_x": _Key(float, 1.0), "state_p": _Key(float, 0.5),
        "gas_x": _Key(float, -2.0), "gas_p": _Key(float, 1.5),
        "time": _Key(float, 0.5),
        "fidelity_min": _Key(float, 0.95),
        "trace_tol": _Key(float, 1e-3),
        "completeness_tol": _Key(float, 1e-3),
    },
    "trajectories": {
        **_COMMON,
        "n_traj": _Key(int, 10000),
        "mass": _Key(float, 1.0), "alpha": _Key(float, 0.02),
        "sigma": _Key(float, 8.0),
        "temperature": _Key(float, 1.0), "number_density": _Key(float, 0.02),
        "delta": _Key(float, 0.5), "horizon": _Key(float, 250.0),
        "p0": _Key(float, 0.0),
        "thermal_start": _Key(_bool, False),
        "timing": _Key(str, "uniform"),
        "gas_flight_window": _Key(float, 1.0),
        "record_every": _Key(int, 1),
        "n_chunks": _Key(int, 1),
    },
    "moments": {
        **_COMMON,
        "mass": _Key(float, 1.0), "alpha": _Key(float, 0.02),
        "sigma": _Key(float, 8.0),
        "temperature": _Key(float, 1.0), "number_density": _Key(float, 0.02),
        "delta": _Key(float, 0.5),
        "include_artifact": _Key(_bool, True),
        "x0": _Key(float, 0.0), "p0": _Key(float, 0.0),
        "dt": _Key(float, 0.0, "0 = 0.001/f"),
        "horizon": _Key(float, 250.0),
    },
    "delta-scan": {
        **_COMMON,
        "n_traj": _Key(int, 20000),
        "mass": _Key(float, 1.0), "alpha": _Key(float, 1.0),
        "sigma": _Key(float, 4.0),
        "temperature": _Key(float, 1.0), "number_density": _Key(float, 0.02),
        "deltas": _Key(_floats, [0.125, 0.25, 0.5, 1.0]),
        "horizon": _Key(float, 60.0),
        "timing": _Key(str, "uniform"),
        "gas_flight_window": _Key(float, 1.0),
        "slope_tol": _Key(float, 0.2),
        "ratio_factor": _Key(float, 2.0),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: kind, resolved parameters, output directory."""

    kind: str
    params: dict
    out_dir: Path

    @classmethod
    def load(cls, kind: str, path, seed=None, out_dir=None) -> "ScenarioConfig":
        if kind not in SCHEMAS:
            raise ConfigError("scenario.kind", f"unknown scenario {kind!r}")
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError("config", f"cannot read config file {path!r}")
        if parser.sections() != ["scenario"]:
            raise ConfigError(
                "config", "expected exactly one [scenario] section, got "
                f"{parser.sections()!r}")
        raw = dict(parser["scenario"])
        schema = SCHEMAS[kind]
        params = {}
        for key, spec in schema.items():
            if key in raw:
                try:
                    params[key] = spec.cast(raw.pop(key))
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"scenario.{key}", str(exc)) from exc
            elif spec.default is _REQUIRED:
                raise ConfigError(f"scenario.{key}", "required key is missing")
            else:
                params[key] = spec.default
        if raw:
            first = sorted(raw)[0]
            raise ConfigError(f"scenario.{first}", "unknown key")
        if params.get("kind") not in (None, kind):
            raise ConfigError("scenario.kind",
                              f"config says {params['kind']!r}, command is {kind!r}")
        params["kind"] = kind
        if seed is not None:
            params["seed"] = int(seed)
        _validate_params(kind, params)
        return cls(kind=kind, params=params,
                   out_dir=Path(out_dir) if out_dir else Path("."))


def _require(cond, field, message):
    if not cond:
        raise ConfigError(f"scenario.{field}", message)


def _validate_params(kind, p):
    for key in ("mass", "alpha", "sigma", "hbar", "boltzmann_k", "temperature",
                "number_density", "delta", "horizon", "grid_length"):
        if key in p:
            _require(p[key] > 0, key, "must be > 0")
    # dt = 0 picks the step itself; time = 0 is a collision with no free flight
    for key in ("dt", "time", "gas_flight_window"):
        if key in p:
            _require(p[key] >= 0, key, "must be >= 0")
    if "timing" in p:
        _require(p["timing"] in ("uniform", "midpoint"), "timing",
                 "must be 'uniform' or 'midpoint'")
    for key in ("n_traj", "n_times", "n_x", "n_p", "grid_n", "record_every",
                "n_chunks", "momentum_grid_n"):
        if key in p:
            _require(p[key] > 0, key, "must be a positive integer")
    if kind == "fig1":
        _require(p["x"] > 0, "x", "canonical COM frame needs x > 0")
        _require(p["p"] < 0, "p", "canonical COM frame needs p < 0")
    if kind == "collide":
        # the COM momentum that ec.LabFrameCollision reduces the labels to
        _require(p["gas_x"] != p["x"], "gas_x", "must differ from x")
        a = _pair_from(p).alpha
        s = -1 if p["gas_x"] > p["x"] else 1
        _require(s * ((a * p["p"] - p["gas_p"]) / (1 + a)) < 0, "p",
                 "packets recede from each other and never collide")
    if kind == "oracle-verify":
        _require(all(n >= 8 for n in p["grid_sizes"]), "grid_sizes",
                 "grid sizes must be >= 8")
        _require(all(t >= 0 for t in p["times_collision_units"]),
                 "times_collision_units", "times must be >= 0")
    if kind == "delta-scan":
        _require(len(p["deltas"]) >= 2, "deltas", "need at least two deltas")
        _require(all(d > 0 for d in p["deltas"]), "deltas", "must be > 0")


def emit_csv(path, header, rows):
    """Write a CSV with a unit-bearing header and full double precision.

    Floats, numpy float64 scalars included, are written as the repr of a
    plain float (shortest round-trip form), so identical inputs give
    byte-identical files that any CSV reader parses.
    """
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    return path


def _write_summary(cfg: ScenarioConfig, payload: dict):
    payload = {"scenario": cfg.kind, "config": cfg.params, **payload}
    path = cfg.out_dir / "summary.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _pair_from(p) -> CollisionPair:
    return CollisionPair.matched(p["mass"], p["alpha"] * p["mass"], p["sigma"],
                                 hbar=p["hbar"])


def _gas_from(p, pair) -> ThermalGasSpec:
    return ThermalGasSpec(temperature=p["temperature"],
                          number_density=p["number_density"],
                          gas_mass=pair.gas_mass,
                          packet_width=pair.gas_width,
                          hbar=p["hbar"], k_B=p["boltzmann_k"])


# ---------------------------------------------------------------------------
# scenario runners: return (summary_payload, tolerance_failures)
# ---------------------------------------------------------------------------

def _marginal_tables(p, times, position, momentum):
    """Rows (t, x', density) and (t, p', density) on the config's grids;
    ``position(t, xs)`` and ``momentum(t, ps)`` give the densities."""
    xs = np.linspace(p["x_lo"], p["x_hi"], p["n_x"])
    ps = np.linspace(p["p_lo"], p["p_hi"], p["n_p"])
    pos_rows, mom_rows = [], []
    for t in times:
        pos_rows.extend((float(t), float(x), float(d)) for x, d in zip(xs, position(t, xs)))
        mom_rows.extend((float(t), float(v), float(d)) for v, d in zip(ps, momentum(t, ps)))
    return pos_rows, mom_rows


def _run_fig1(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    init = ec.com_condition(pair, p["x"], p["p"])
    t_c = ec.collision_time(pair, init.p_g)
    times = np.linspace(0.0, p["t_max_collision_units"] * t_c, p["n_times"])
    pos_rows, mom_rows = _marginal_tables(
        p, times, lambda t, xs: ec.position_marginal(pair, init, t, xs),
        lambda t, ps: ec.momentum_marginal(pair, init, t, ps))
    mean_rows = [(float(t), ec.brownian_momentum_mean(pair, init, t)) for t in times]
    files = [
        emit_csv(cfg.out_dir / "position_marginal.csv",
                 ["t", "x_prime", "density"], pos_rows),
        emit_csv(cfg.out_dir / "momentum_marginal.csv",
                 ["t", "p_prime", "density"], mom_rows),
        emit_csv(cfg.out_dir / "momentum_mean.csv",
                 ["t", "mean_p"], mean_rows),
    ]
    widths = np.hypot(pair.gas_width, pair.brownian_width)
    summary = {
        "collision_time": t_c,
        "diagnostics": {
            "overlap_ratio": abs(init.x_g - init.x) / float(widths),
            "momentum_ratio": abs(init.p_g) * pair.gas_width
            * float(np.sqrt(1 + pair.alpha)) / pair.hbar,
        },
        "outputs": [f.name for f in files],
    }
    return summary, []


def _run_collide(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    lab = ec.LabFrameCollision(pair, p["gas_x"], p["gas_p"], p["x"], p["p"])
    init = lab.com_init
    gas = _gas_from(p, pair)
    t_c = ec.collision_time(pair, init.p_g)
    times = np.linspace(0.0, p["t_max_collision_units"] * t_c, p["n_times"])
    pos_rows, mom_rows = _marginal_tables(p, times, lab.position_marginal,
                                          lab.momentum_marginal)
    fid_times = p["fidelity_times"]
    if fid_times is None:
        fid_times = [float(v) for v in np.linspace(0.0, 5 * t_c, 11)]
    fid_rows = [(float(t), ec.outgoing_fidelity(pair, init, t)) for t in fid_times]
    files = [
        emit_csv(cfg.out_dir / "position_marginal.csv",
                 ["t", "x_prime", "density"], pos_rows),
        emit_csv(cfg.out_dir / "momentum_marginal.csv",
                 ["t", "p_prime", "density"], mom_rows),
        emit_csv(cfg.out_dir / "fidelity.csv",
                 ["t", "outgoing_fidelity"], fid_rows),
    ]
    report = ec.validity_report(pair, init, gas, p["delta"])
    summary = {
        "collision_time": t_c,
        "com_condition": {"x_g": init.x_g, "p_g": init.p_g,
                          "x": init.x, "p": init.p,
                          "reflection": lab.reflection,
                          "com_offset": lab.com_offset,
                          "boost_velocity": lab.boost_velocity},
        "diagnostics": report.__dict__,
        "outputs": [f.name for f in files],
    }
    return summary, []


def _run_oracle_verify(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    init = ec.com_condition(pair, p["x"], p["p"])
    t_c = ec.collision_time(pair, init.p_g)
    times = [u * t_c for u in p["times_collision_units"]]
    base = grid_oracle.default_grid(pair, init, max(p["grid_sizes"]),
                                    t_max=max(times) if times else 0.0)
    r_len = p["r_length"] or base.r_length
    R_half = p["R_halfwidth"] or base.R_halfwidth
    rows = []
    worst_finest = 0.0
    finest = max(p["grid_sizes"])
    for n in sorted(p["grid_sizes"]):
        params = grid_oracle.GridParams(n_R=n, n_r=n, R_halfwidth=R_half,
                                        r_length=r_len)
        for t in times:
            err = grid_oracle.compare_to_analytic(pair, init, t, params,
                                                  validate=False)
            rows.append((n, float(t), float(err)))
            if n == finest:
                worst_finest = max(worst_finest, err)
    files = [emit_csv(cfg.out_dir / "oracle_error.csv",
                      ["grid_n", "t", "l2_error"], rows)]
    failures = []
    if worst_finest > p["tolerance"]:
        failures.append(
            f"finest-grid L2 error {worst_finest:.3e} exceeds tolerance "
            f"{p['tolerance']:.1e}")
    summary = {
        "collision_time": t_c,
        "grid": {"r_length": float(r_len), "R_halfwidth": float(R_half)},
        "worst_error_at_finest": worst_finest,
        "requested_tolerance": p["tolerance"],
        "outputs": [f.name for f in files],
    }
    return summary, failures


def _run_channel_verify(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    grid = channel.SpatialGrid(n=p["grid_n"], length=p["grid_length"])
    psi = channel.grid_packet(grid, pair.brownian_packet(p["state_x"], p["state_p"]))
    rho = channel.OperatorGrid(np.outer(psi, psi.conj()), grid)
    gas_state = (p["gas_x"], p["gas_p"])
    out = channel.apply_collision_channel(rho, pair, gas_state, p["time"])
    trace = out.trace()
    *_, x_out, p_out = classical_collision_map(pair, *gas_state,
                                               p["state_x"], p["state_p"])
    target_pkt = pair.brownian_packet(x_out, p_out)
    target = channel.grid_packet(grid, target_pkt)
    target = channel.free_evolve_vector(grid, target, pair.brownian_mass,
                                        p["time"], pair.hbar)
    fidelity = out.expectation(target) / trace
    eff = channel.build_effect_operator(pair, 0.0, 0.0, grid)
    root = channel.operator_sqrt(eff)
    ktk_residual = float(np.max(np.abs(root.matrix @ root.matrix - eff.matrix)))
    completeness = _completeness_residual(pair, grid)
    lo, hi = eff.eigenvalue_range()
    rows = [
        ("pointer_fidelity", fidelity, p["fidelity_min"], fidelity >= p["fidelity_min"]),
        ("trace_error", abs(trace - 1.0), p["trace_tol"],
         abs(trace - 1.0) <= p["trace_tol"]),
        ("completeness_residual", completeness, p["completeness_tol"],
         completeness <= p["completeness_tol"]),
        ("kraus_ktk_residual", ktk_residual, 1e-8, ktk_residual <= 1e-8),
        ("effect_min_eigenvalue", lo, -1e-8, lo >= -1e-8),
    ]
    files = [emit_csv(cfg.out_dir / "channel_checks.csv",
                      ["check", "value", "threshold", "passed"],
                      [(name, float(v), float(thr), passed)
                       for name, v, thr, passed in rows])]
    failures = [f"{name} = {v:.6g} fails threshold {thr:.3g}"
                for name, v, thr, passed in rows if not passed]
    summary = {
        "checks": {name: {"value": float(v), "threshold": float(thr),
                          "passed": bool(passed)}
                   for name, v, thr, passed in rows},
        "outputs": [f.name for f in files],
    }
    return summary, failures


def _completeness_residual(pair, grid, span_x_frac=0.55, p_span=6.0):
    """Operator-norm residual of the coherent completeness sum on interior
    test states."""
    hb = pair.hbar
    sig = pair.brownian_width
    step_x = sig / 6.0
    step_p = hb / sig / 6.0
    half = span_x_frac * grid.length / 2
    xs = np.arange(-half, half + step_x / 2, step_x)
    p_half = p_span * hb / sig
    ps = np.arange(-p_half, p_half + step_p / 2, step_p)
    XX, PP = np.meshgrid(xs, ps, indexing="ij")
    cols = channel.grid_packets(grid, sig, hb, XX.ravel(), PP.ravel())
    M = (step_x * step_p / (2 * np.pi * hb)) * (cols @ cols.conj().T)
    TX, TP = np.meshgrid([-half / 3, 0.0, half / 3], [-p_half / 4, 0.0, p_half / 4])
    tests = channel.grid_packets(grid, sig, hb, TX.ravel(), TP.ravel())
    return float(np.max(np.linalg.norm(M @ tests - tests, axis=0)))


def _run_trajectories(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    gas = _gas_from(p, pair)
    rng = np.random.default_rng(p["seed"])
    n = p["n_traj"]
    x0 = np.zeros(n)
    if p["thermal_start"]:
        p0 = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
    else:
        p0 = np.full(n, p["p0"])
    policy = trajectories.JumpPolicy(timing=p["timing"],
                                     gas_flight_window=p["gas_flight_window"])
    series = trajectories.run(x0, p0, gas, pair, p["horizon"], p["delta"],
                              seed=p["seed"] + 1, policy=policy,
                              n_chunks=p["n_chunks"],
                              record_every=p["record_every"])
    rows = [(s.t, s.mean_x, s.mean_p, s.mean_x2, s.mean_xp, s.mean_p2,
             s.se_mean_x, s.se_mean_p, s.se_mean_x2, s.se_mean_xp, s.se_mean_p2)
            for s in series]
    files = [emit_csv(cfg.out_dir / "moments.csv",
                      ["t", "mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2",
                       "se_mean_x", "se_mean_p", "se_mean_x2", "se_mean_xp",
                       "se_mean_p2"], rows)]
    t_typ = trajectories.typical_collision_time(gas, pair)
    rate0 = float(trajectories.collision_rate(np.array([p["p0"]]), gas, pair)[0])
    summary = {
        "friction_constant": moments.friction_constant(gas, pair.brownian_mass),
        "diagnostics": {
            "typical_collision_time": t_typ,
            "coarse_graining_ratio": t_typ / p["delta"],
            "step_collision_probability": rate0 * p["delta"],
            "ldht_number": float(np.sqrt(2) * (1 + pair.alpha)
                                 * gas.number_density * pair.hbar
                                 / np.sqrt(np.pi * gas.gas_mass * gas.kT)),
        },
        "outputs": [f.name for f in files],
    }
    return summary, []


def _run_moments(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    gas = _gas_from(p, pair)
    params = moments.FrictionParams.from_gas(gas, pair.brownian_mass, p["delta"],
                                             include_artifact=p["include_artifact"])
    s2 = pair.brownian_width**2
    initial = moments.MomentState(
        mean_x=p["x0"], mean_p=p["p0"],
        mean_x2=p["x0"] ** 2 + s2 / 2,
        mean_xp=2 * p["x0"] * p["p0"],
        mean_p2=p["p0"] ** 2 + pair.hbar**2 / (2 * s2))
    dt = p["dt"] or 0.001 / params.f
    series = moments.integrate(initial, params, p["horizon"], dt)
    rows = [(s.t, s.mean_x, s.mean_p, s.mean_x2, s.mean_xp, s.mean_p2)
            for s in series]
    files = [emit_csv(cfg.out_dir / "moments_ode.csv",
                      ["t", "mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2"],
                      rows)]
    summary = {
        "friction_constant": params.f,
        "artifact_rate": params.artifact_rate,
        "dt": dt,
        "slow_particle_ratio": params.slow_particle_ratio(p["p0"]),
        "outputs": [f.name for f in files],
    }
    return summary, []


def _run_delta_scan(cfg: ScenarioConfig):
    p = cfg.params
    pair = _pair_from(p)
    gas = _gas_from(p, pair)
    policy = trajectories.JumpPolicy(timing=p["timing"],
                                     gas_flight_window=p["gas_flight_window"])
    rows = []
    rates = []
    for i, delta in enumerate(sorted(p["deltas"])):
        ts, msd = trajectories.excess_position_msd(
            p["n_traj"], gas, pair, delta, p["horizon"], seed=p["seed"] + i,
            policy=policy)
        rate = float(np.polyfit(ts, msd, 1)[0])
        printed = moments.artifact_diffusion_rate(gas, delta)
        rows.append((float(delta), rate, printed,
                     rate / printed if printed else float("nan")))
        rates.append(rate)
    deltas = sorted(p["deltas"])
    # without a flight window the excess rates are 0: the slope is NaN and
    # fails the gate below
    slope = (float(np.polyfit(np.log(deltas), np.log(rates), 1)[0])
             if min(rates) > 0 else float("nan"))
    ratios = [r[3] for r in rows]
    mean_ratio = float(np.mean(ratios))
    # timing-convention sensitivity at the largest step
    ts, msd = trajectories.excess_position_msd(
        p["n_traj"], gas, pair, deltas[-1], p["horizon"],
        seed=p["seed"] + len(deltas),
        policy=trajectories.JumpPolicy(timing="midpoint",
                                       gas_flight_window=p["gas_flight_window"]))
    midpoint_rate = float(np.polyfit(ts, msd, 1)[0])
    files = [emit_csv(cfg.out_dir / "delta_scan.csv",
                      ["delta", "excess_rate", "printed_rate", "ratio"], rows)]
    failures = []
    if not abs(slope - 2.0) <= p["slope_tol"]:
        failures.append(f"log-log slope {slope:.3f} outside 2 +- {p['slope_tol']}")
    if not (1 / p["ratio_factor"] <= mean_ratio <= p["ratio_factor"]):
        failures.append(
            f"mean ratio {mean_ratio:.3f} outside factor {p['ratio_factor']}")
    summary = {
        "log_log_slope": slope if np.isfinite(slope) else None,
        "mean_ratio_to_printed": mean_ratio,
        "midpoint_timing_rate_at_largest_delta": midpoint_rate,
        "uniform_timing_rate_at_largest_delta": rates[-1],
        "outputs": [f.name for f in files],
    }
    return summary, failures


_RUNNERS = {
    "fig1": _run_fig1,
    "collide": _run_collide,
    "oracle-verify": _run_oracle_verify,
    "channel-verify": _run_channel_verify,
    "trajectories": _run_trajectories,
    "moments": _run_moments,
    "delta-scan": _run_delta_scan,
}


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one validated scenario; writes artifacts, returns the exit code."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary, failures = _RUNNERS[cfg.kind](cfg)
    except QBM1DError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary["tolerance_failures"] = failures
    path = _write_summary(cfg, summary)
    print(f"wrote {path}")
    if failures:
        for f in failures:
            print(f"tolerance failure: {f}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbm1d",
        description="collisional quantum Brownian motion scenario runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in SCHEMAS:
        sp = sub.add_parser(kind)
        sp.add_argument("config", help="path to the INI scenario config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out-dir", default=None,
                        help="directory for CSV/JSON artifacts (default: cwd)")
    args = parser.parse_args(argv)
    try:
        cfg = ScenarioConfig.load(args.kind, args.config, seed=args.seed,
                                  out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(cfg)


if __name__ == "__main__":
    sys.exit(main())
