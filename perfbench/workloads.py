"""The benchmark's three workloads: inputs from a seed, bodies and checks.

collision  ``fig1`` at 2 of its 24 default times, a lab-frame ``collide``
           and ``oracle-verify``, all through ``qbm1d.cli.main``.
channel    the ``channel-verify`` pipeline through ``qbm1d.channel``'s
           public functions (``qbm1d channel-verify`` itself crashes).
ensemble   ``trajectories`` with 5e4 paths, ``moments`` and ``delta-scan``
           through ``qbm1d.cli.main``.

A workload is a list of operations run in order, closed loop, in one
process.  An operation is one scenario run or one library call.  Its
correctness checks and the accuracy metrics run after the timed body.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qbm1d import channel, cli, moments, trajectories
from qbm1d import exact_collision as ec
from qbm1d.packets import CollisionPair, classical_collision_map
from qbm1d.thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed

WORKLOADS = ("collision", "channel", "ensemble")

ACCURACY_UNITS = {
    "marginal_err": "density",
    "oracle_err": "rel_L2",
    "trace_err": "abs",
    "fidelity_loss": "1",
    "rate_err": "rel",
    "ode_gap_se": "SE",
    "delta_slope_err": "1",
}

# Reported for an accuracy metric whose route the workload does not run:
# every workload prints every end-to-end metric, and none may read 0.
NOT_RUN = 1.0
# Errors below double-precision resolution read as this, never as 0.
FLOOR = 1e-16


@dataclass
class Op:
    """One operation: ``call(out_dir, done)`` with the earlier results."""

    name: str
    call: object
    scenario: str | None = None


@dataclass
class Outcome:
    out_dir: Path
    seconds: float
    result: object = None
    error: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    owns: tuple             # accuracy metrics this workload computes
    accuracy: object        # accuracy(outcomes) -> (metrics, problems)

    def run_body(self, iter_dir: Path, tracer=None) -> dict:
        """Run every operation once; exceptions become failed outcomes.

        With a tracer, each operation is a root span ``bench.<op>``.
        """
        done = {}
        for op in self.ops:
            out_dir = iter_dir / op.name
            out_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call(out_dir, done)
                else:
                    with tracer.span(f"bench.{op.name}"):
                        result = op.call(out_dir, done)
                done[op.name] = Outcome(out_dir, time.perf_counter() - t0, result)
            except Exception:
                done[op.name] = Outcome(out_dir, time.perf_counter() - t0,
                                        error=traceback.format_exc())
        return done


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

def _write_ini(path: Path, params: dict) -> Path:
    lines = ["[scenario]"] + [f"{k} = {_ini_value(v)}" for k, v in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _ini_value(v):
    if isinstance(v, (list, tuple)):
        return " ".join(repr(float(x)) for x in v)
    return repr(float(v)) if isinstance(v, float) else str(v)


def _scenario_op(kind, ini: Path) -> Op:
    def call(out_dir, done):
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            code = cli.main([kind, str(ini), "--out-dir", str(out_dir)])
        return code, log.getvalue()

    # validate the config now, so a bad input fails set-up, not the body
    cli.ScenarioConfig.load(kind, ini)
    return Op(kind, call, scenario=kind)


def check(op: Op, outcome: Outcome):
    """Problems with one operation's outputs, and a digest of them."""
    if outcome.error is not None:
        return [outcome.error.strip().splitlines()[-1]], None
    if op.scenario is None:
        return [], _digest_matrix(outcome.result)
    code, log = outcome.result
    problems = [] if code == 0 else [f"exit code {code}: {log.strip()[-300:]}"]
    summary_path = outcome.out_dir / "summary.json"
    if not summary_path.is_file():
        return problems + ["summary.json missing"], None
    summary = json.loads(summary_path.read_text())
    problems += [f"tolerance failure: {f}" for f in summary.get("tolerance_failures", ["missing"])]
    files = ["summary.json"] + list(summary.get("outputs", []))
    problems += [f"output {f} missing" for f in files if not (outcome.out_dir / f).is_file()]
    h = hashlib.sha256()
    for f in sorted(files):
        if (outcome.out_dir / f).is_file():
            h.update(f.encode() + b"\0" + (outcome.out_dir / f).read_bytes())
    return problems, h.hexdigest()


def _digest_matrix(result: channel.OperatorGrid):
    return hashlib.sha256(np.ascontiguousarray(result.matrix).tobytes()).hexdigest()


def _summary(outcome: Outcome) -> dict:
    return json.loads((outcome.out_dir / "summary.json").read_text())


def _table(path: Path) -> np.ndarray:
    # emit_csv writes numpy scalars with repr, which numpy >= 2 renders as
    # "np.float64(0.5)"; unwrap them (see README, known defects)
    text = re.sub(r"np\.float64\(([^)]*)\)", r"\1", path.read_text())
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _pair(cfg) -> CollisionPair:
    return CollisionPair.matched(cfg["mass"], cfg["alpha"] * cfg["mass"],
                                 cfg["sigma"], hbar=cfg["hbar"])


def _floor(v):
    return max(float(v), FLOOR)


# ---------------------------------------------------------------------------
# collision
# ---------------------------------------------------------------------------

# fig1's default times are linspace(0, 5 t_c, 24); these two are its
# entries 0 and 9 (before and during the collision)
_FIG1_T_MAX = 5.0 * 9 / 23
# collide, COM frame: Brownian packet at x = 6 moving with p = -2 meets the
# gas packet at t = 3; marginals at t = 0, 3 and 6, fidelity at the meeting
# and one time unit after it, as the packets separate
_COLLIDE_COM = {"alpha": 0.7, "sigma": 3.0, "x": 6.0, "p": -2.0}
_COLLIDE_FIDELITY_TIMES = (3.0, 4.0)
_MARGINAL_GATE = 1e-4


def _collision(seed, work: Path, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    mirror = 1 if rng.random() < 0.5 else -1
    shift = float(rng.uniform(-5.0, 5.0))
    boost = float(rng.uniform(-0.2, 0.2))
    a, sig, x, p = (_COLLIDE_COM[k] for k in ("alpha", "sigma", "x", "p"))
    x_g = -x / a
    t_meet = abs(x / p)
    win = sorted(shift + boost * t_meet + mirror * v for v in (-4.0, 16.0))
    pwin = sorted(boost + mirror * v for v in (-3.0, 3.0))
    pair = CollisionPair.matched(1.0, a, sig)
    t_c = ec.collision_time(pair, -p)
    fig1 = {"seed": seed, "n_times": 2, "t_max_collision_units": _FIG1_T_MAX}
    collide = {
        "seed": seed, "alpha": a, "sigma": sig,
        "x": shift + mirror * x, "p": mirror * p + boost,
        "gas_x": shift + mirror * x_g, "gas_p": -mirror * p + a * boost,
        "n_times": 3, "t_max_collision_units": 2 * t_meet / t_c,
        "x_lo": win[0], "x_hi": win[1], "n_x": 25,
        "p_lo": pwin[0], "p_hi": pwin[1], "n_p": 61,
        "fidelity_times": _COLLIDE_FIDELITY_TIMES,
    }
    oracle = {"seed": seed}
    if tiny:
        small = {"sigma": 1.0, "x": 3.0, "p": -1.0, "n_times": 2, "n_x": 9,
                 "n_p": 9, "momentum_grid_n": 128, "x_lo": -10.0, "x_hi": 10.0}
        fig1.update(small)
        collide.update(n_times=1, n_x=5, n_p=5, momentum_grid_n=128,
                       fidelity_times=(0.5,))
        oracle.update(grid_sizes="32 48", times_collision_units=(0.0, 0.5),
                      tolerance=10.0)
    ops = [_scenario_op(kind, _write_ini(work / f"{kind}.ini", cfg))
           for kind, cfg in (("fig1", fig1), ("collide", collide),
                             ("oracle-verify", oracle))]
    return Workload("collision", ops, ("marginal_err", "oracle_err"),
                    _collision_accuracy)


def _marginal_errors(table, init, pair, to_com):
    """|density - closed form| at every (t, x') row, x' mapped to COM."""
    return [abs(d - ec.position_marginal_erf(pair, init, t, to_com(t, xv)))
            for t, xv, d in table]


def _collision_accuracy(outcomes):
    fig1, collide = _summary(outcomes["fig1"]), _summary(outcomes["collide"])
    cfg = fig1["config"]
    pair = _pair(cfg)
    init = ec.com_condition(pair, cfg["x"], cfg["p"])
    errs = _marginal_errors(_table(outcomes["fig1"].out_dir / "position_marginal.csv"),
                            init, pair, lambda t, xv: xv)
    cfg = collide["config"]
    pair = _pair(cfg)
    lab = ec.LabFrameCollision(pair, cfg["gas_x"], cfg["gas_p"], cfg["x"], cfg["p"])
    errs += _marginal_errors(
        _table(outcomes["collide"].out_dir / "position_marginal.csv"),
        lab.com_init, pair,
        lambda t, xv: lab.reflection * (xv - (lab.com_offset + lab.boost_velocity * t)))
    marginal = max(errs)
    metrics = {"marginal_err": _floor(marginal),
               "oracle_err": _floor(_summary(outcomes["oracle-verify"])["worst_error_at_finest"])}
    problems = {}
    if not marginal <= _MARGINAL_GATE:
        problems["fig1"] = [f"marginal_err {marginal:.3e} > {_MARGINAL_GATE:.0e}"]
    return metrics, problems


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

# channel-verify defaults; the seed translates state and gas packets by a
# whole number of grid steps, under which the periodic channel is covariant
_CV = {"alpha": 0.3, "sigma": 1.0, "grid_n": 256, "grid_length": 24.0,
       "state": (1.0, 0.5), "gas": (-2.0, 1.5), "time": 0.5}
_MIXED = ((0.5, 0.0, 0.0), (0.3, -0.4, -0.3), (0.2, 0.4, 0.3))  # weight, dx, dp
_FIDELITY_MIN = 0.95
_TRACE_TOL = 1e-3
_RATE_MOMENTA = (0.0, 0.8)


def _channel(seed, work: Path, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    pair = CollisionPair.matched(1.0, _CV["alpha"], _CV["sigma"])
    n, length = (128, 16.0) if tiny else (_CV["grid_n"], _CV["grid_length"])
    grid = channel.SpatialGrid(n=n, length=length)
    shift = int(rng.integers(-8, 9)) * grid.dx
    x0, p0 = _CV["state"][0] + shift, _CV["state"][1]
    gas_state = (_CV["gas"][0] + shift, _CV["gas"][1])
    t = _CV["time"]
    mesh = channel.PhaseSpaceMesh(3.0, 4.5) if tiny else channel.PhaseSpaceMesh()
    psi = channel.grid_packet(grid, pair.brownian_packet(x0, p0))
    pure = channel.OperatorGrid(np.outer(psi, psi.conj()), grid)
    mixed = np.zeros((n, n), dtype=complex)
    for w, dx, dp in _MIXED:
        v = channel.grid_packet(grid, pair.brownian_packet(x0 + dx, p0 + dp))
        mixed += w * np.outer(v, v.conj())
    mixed = channel.OperatorGrid(mixed, grid)
    region = channel.PhaseSpaceRegion(x_g=-2.0, p_g=1.2, delta=4.0,
                                      brownian_mass=pair.brownian_mass,
                                      gas_mass=pair.gas_mass)
    rate_pair = CollisionPair.matched(1.0, 0.3, 3.0)
    rate_gas = ThermalGasSpec(temperature=4.0, number_density=0.05,
                              gas_mass=rate_pair.gas_mass, packet_width=50.0)
    rate_grid = channel.SpatialGrid(n=96, length=48.0) if tiny else \
        channel.SpatialGrid(n=320, length=36.0)
    rate_pps = 2.0 if tiny else 6.0

    def apply(rho):
        return lambda out_dir, done: channel.apply_collision_channel(
            rho, pair, gas_state, t, mesh=mesh, pointer_mesh=mesh)

    ops = [
        Op("apply_pure", apply(pure)),
        Op("apply_mixed", apply(mixed)),
        Op("effect", lambda d, done: channel.build_effect_operator(
            pair, 0.0, 0.0, grid, mesh)),
        Op("sqrt", lambda d, done: channel.operator_sqrt(done["effect"].result)),
        Op("kraus", lambda d, done: channel.build_kraus(
            pair, gas_state, x0, p0, grid, mesh,
            sqrt_effect_center=done["sqrt"].result.matrix)),
        Op("projection", lambda d, done: channel.build_projection(region, pair, grid)),
        Op("rate", lambda d, done: channel.aggregate_rate_operator(
            rate_pair, rate_gas, rate_grid, points_per_std=rate_pps)),
    ]

    def accuracy(outcomes):
        outs = {"apply_pure": pure, "apply_mixed": mixed}
        trace_err = max(abs(outcomes[k].result.trace() - rho.trace())
                        for k, rho in outs.items())
        out = outcomes["apply_pure"].result
        *_, x_out, p_out = classical_collision_map(pair, *gas_state, x0, p0)
        target = channel.free_evolve_vector(
            grid, channel.grid_packet(grid, pair.brownian_packet(x_out, p_out)),
            pair.brownian_mass, t, pair.hbar)
        fidelity = out.expectation(target) / out.trace()
        rate_op = outcomes["rate"].result
        rates, rate_errs = [], []
        for pm in _RATE_MOMENTA:
            v = channel.grid_packet(rate_grid, rate_pair.brownian_packet(0.0, pm))
            got = rate_op.expectation(v)
            ref = rate_gas.number_density * float(mean_relative_speed(
                rate_gas, pm, rate_pair.brownian_mass,
                temperature=adjusted_temperature(rate_gas)))
            rates.append(got)
            rate_errs.append(abs(got - ref) / ref)
        problems = {}
        if not trace_err <= _TRACE_TOL:
            problems["apply_mixed"] = [f"trace_err {trace_err:.3e} > {_TRACE_TOL}"]
        if not fidelity >= _FIDELITY_MIN:
            problems["apply_pure"] = [f"fidelity {fidelity:.6f} < {_FIDELITY_MIN}"]
        if not all(r > 0 and np.isfinite(r) for r in rates):
            problems["rate"] = [f"rate expectations {rates} not positive"]
        metrics = {"trace_err": _floor(trace_err),
                   "fidelity_loss": _floor(abs(1.0 - fidelity)),
                   "rate_err": _floor(max(rate_errs))}
        return metrics, problems

    return Workload("channel", ops, ("trace_err", "fidelity_loss", "rate_err"),
                    accuracy)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

# ode_gap_se grows as sqrt(n_traj); its seed-to-seed spread (IQR/median),
# from the estimated SE of heavy-tailed moments, was 8 % here, 6-22 % at 2e4
_N_TRAJ = 50000


def _ensemble(seed, work: Path, tiny: bool) -> Workload:
    traj = {"seed": seed, "n_traj": _N_TRAJ}
    # moments and delta-scan run with their defaults, delta-scan's seed too
    mom, scan = {}, {}
    if tiny:
        traj.update(n_traj=200, horizon=20.0)
        mom.update(horizon=20.0)
        scan.update(n_traj=500, horizon=10.0, slope_tol=10.0, ratio_factor=100.0)
    ops = [_scenario_op(kind, _write_ini(work / f"{kind}.ini", cfg))
           for kind, cfg in (("trajectories", traj), ("moments", mom),
                             ("delta-scan", scan))]
    return Workload("ensemble", ops, ("ode_gap_se", "delta_slope_err"),
                    _ensemble_accuracy)


def _ensemble_accuracy(outcomes):
    cfg = _summary(outcomes["trajectories"])["config"]
    pair = _pair(cfg)
    gas = ThermalGasSpec(temperature=cfg["temperature"],
                         number_density=cfg["number_density"],
                         gas_mass=pair.gas_mass, packet_width=pair.gas_width,
                         hbar=cfg["hbar"], k_B=cfg["boltzmann_k"])
    params = moments.FrictionParams.from_gas(gas, pair.brownian_mass, cfg["delta"],
                                             include_artifact=True)
    # every path starts at x = 0, p = p0 (no thermal start)
    s2 = pair.brownian_width**2
    p0 = cfg["p0"]
    initial = moments.MomentState(mean_x=0.0, mean_p=p0, mean_x2=s2 / 2,
                                  mean_xp=0.0,
                                  mean_p2=p0**2 + pair.hbar**2 / (2 * s2))
    rows = _table(outcomes["trajectories"].out_dir / "moments.csv")
    mc = [trajectories.EnsembleStats(r[0], cfg["n_traj"], *r[1:]) for r in rows]
    ode = moments.closed_form(initial, params, rows[:, 0])
    gap = moments.compare_to_trajectories(ode, mc, params).worst
    slope = _summary(outcomes["delta-scan"])["log_log_slope"]
    problems = {} if np.isfinite(gap) else {"trajectories": [f"ode_gap_se {gap}"]}
    return {"ode_gap_se": _floor(gap), "delta_slope_err": _floor(abs(slope - 2.0))}, problems


_BUILDERS = {"collision": _collision, "channel": _channel, "ensemble": _ensemble}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the workload's configs under ``work`` and return it."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work, tiny)
