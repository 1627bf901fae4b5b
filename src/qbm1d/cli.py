"""Scenario runner: declarative INI configs, CSV/JSON artifacts, exit codes.

Usage::

    qbm1d <scenario> <config.ini> [--seed N] [--out-dir DIR]

Scenarios: collide, oracle-verify, channel-verify, trajectories, moments,
fig1, delta-scan.  The config file holds one ``[scenario]`` section of
``key = value`` pairs.  Each scenario is a frozen, keyword-only dataclass
under ``ScenarioConfig`` that owns its keys: its fields are the keys, cast
by their annotation, each with its default (none: required) and, in its
metadata, the rule it obeys; ``check()`` holds the rules that tie keys
together, and ``run()`` is the scenario.  Every key is validated before any
computation starts; unknown keys are rejected and errors name the field
path.  Exit codes: 0 success, 2 configuration/validation failure,
3 numerical tolerance failure.

A scenario's ``run()`` writes no file: it returns its summary, its tables,
{file name: (header, rows)}, and its tolerance failures.  ``run_scenario``
alone writes them: each table with ``emit_csv``, then ``summary.json``, whose
``outputs`` names the tables and whose ``config`` holds every key's resolved
value and ``kind``; a run that exits 2 writes no table.  Identical config, seed
and BLAS thread count give byte-identical outputs.  ``numerics.validity_warnings``
lists every ``ValidityWarning`` the scenario raised, which still go to stderr.
``trajectories`` and ``moments`` write their rows at the same times
t = k delta, k = 0, ..., round(horizon / delta).  ``trajectories``, ``moments``
and ``collide`` write ``trajectories.regime``'s coarse-graining report in their
``diagnostics``, at their delta and initial Brownian momentum, and gate it with
``trajectories._check_regime``; ``collide`` adds ``collision_ratios`` and
``collision_time``.  The ODE and one collision take no random coarse step, so
``moments`` and ``collide`` list a rate * delta above 0.1 as a validity
warning (``_Gas._regime``).  ``collide`` holds one ``ec.LabFrameCollision``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, cached_property, partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import channel, exact_collision as ec, grid_oracle, moments, trajectories
from .errors import ConfigError, GridTooCoarse, GridTooSmall, QBM1DError, StepTooLarge
from .packets import CollisionPair, classical_collision_map
from .thermal import ThermalGasSpec, adjusted_temperature

__all__ = ["ScenarioConfig", "run_scenario", "emit_csv", "main"]


def _bool(s):
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s):
    if not np.isfinite(v := float(s)):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _tuple_of(cast):
    return lambda s: tuple(cast(v) for v in str(s).replace(",", " ").split())


# a field's annotation -> the cast of its INI text
_CASTS = {"float": _finite, "int": int, "bool": _bool, "tuple[int, ...]": _tuple_of(int),
          "tuple[float, ...]": _tuple_of(_finite), "tuple[float, ...] | None": _tuple_of(_finite)}
# the moment columns of the moments CSVs, named as the series' attributes
_MOMENTS = ["t", "mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2"]


def _key(default=MISSING, rule=None, message=""):
    """A config key: its default (MISSING: required) and the rule its value obeys."""
    return field(default=default, metadata={"rule": rule, "message": message})


_positive = partial(_key, rule=lambda v: v > 0, message="must be > 0")
_nonnegative = partial(_key, rule=lambda v: v >= 0, message="must be >= 0")
_count = partial(_key, rule=lambda v: v > 0, message="must be a positive integer")


def _times_ok(ts):
    return ts and all(t >= 0 for t in ts)


def _keys(scenario):
    """The config keys of a scenario class or instance, in field order."""
    return fields(scenario)


def _require(cond, key, message):
    if not cond:
        raise ConfigError(f"scenario.{key}", message)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A validated scenario.  The keys here are shared by every scenario; a
    subclass sets ``kind``, adds its keys and may redeclare a key's default."""

    kind: ClassVar[str]
    hbar: float = _positive(1.0)
    seed: int = _nonnegative(0)
    mass: float = _positive(1.0)
    alpha: float = _positive()
    sigma: float = _positive()

    def __post_init__(self):
        for f in _keys(self):
            rule = f.metadata["rule"]
            if rule is not None and not rule(getattr(self, f.name)):
                raise ConfigError(f"scenario.{f.name}", f.metadata["message"])
        self.check()

    def check(self):
        """Rules that tie keys together; each raises a ConfigError naming a key."""

    def run(self):
        """Return (summary payload, {file name: (header, rows)}, tolerance failures)."""
        raise NotImplementedError

    @property
    def pair(self) -> CollisionPair:
        return CollisionPair.matched(self.mass, self.alpha * self.mass, self.sigma, hbar=self.hbar)

    @classmethod
    def load(cls, kind: str, path, seed=None) -> ScenarioConfig:
        """Read the ``[scenario]`` section of the INI file at ``path`` as
        scenario ``kind``, cast and validate it; ``seed`` overrides its seed."""
        if kind not in SCENARIOS:
            raise ConfigError("scenario.kind", f"unknown scenario {kind!r}")
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive, as the fields are
        try:
            if not parser.read(path):
                raise ConfigError("config", f"cannot read config file {path!r}")
        except configparser.Error as exc:
            raise ConfigError("config", f"malformed config file: {exc}") from exc
        if parser.sections() != ["scenario"]:
            raise ConfigError("config", "expected exactly one [scenario] section, got "
                              f"{parser.sections()!r}")
        raw = dict(parser["scenario"])
        scenario = SCENARIOS[kind]
        values = {}
        for f in _keys(scenario):
            if f.name in raw:
                try:
                    values[f.name] = _CASTS[f.type](raw.pop(f.name))
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"scenario.{f.name}", str(exc)) from exc
            elif f.default is MISSING:
                raise ConfigError(f"scenario.{f.name}", "required key is missing")
        if raw:
            raise ConfigError(f"scenario.{sorted(raw)[0]}", "unknown key")
        if seed is not None:
            values["seed"] = int(seed)
        return scenario(**values)


@dataclass(frozen=True, kw_only=True)
class _Gas(ScenarioConfig):
    """Keys of the thermal gas the Brownian particle moves in."""

    boltzmann_k: float = _positive(1.0)
    temperature: float = _positive(1.0)
    number_density: float = _positive(0.02)

    @property
    def gas(self) -> ThermalGasSpec:
        """The gas; NonPositiveAdjustedTemperature (exit 2, before any draw or table)
        where its packet mixture does not exist: T_sigma <= 0, at matched widths
        sigma < sigma_c = hbar / sqrt(2 m k_B T)."""
        pair = self.pair
        gas = ThermalGasSpec(temperature=self.temperature, number_density=self.number_density,
                             gas_mass=pair.gas_mass, packet_width=pair.gas_width,
                             hbar=self.hbar, k_B=self.boltzmann_k)
        adjusted_temperature(gas)
        return gas

    def _regime(self, delta, p) -> dict:
        """``trajectories.regime`` at delta and labels p, gated, with a rate *
        delta above 0.1 a validity warning: no random coarse step is taken."""
        pair, gas = self.pair, self.gas
        try:
            trajectories._check_regime(gas, pair, delta, p)
        except StepTooLarge as exc:
            warnings.warn(str(exc), trajectories.ValidityWarning)
        return trajectories.regime(gas, pair, delta, p)


@dataclass(frozen=True, kw_only=True)
class _Ensemble(_Gas):
    """An ensemble from x = 0, p = p0 with rows at t = k delta, k = 0, ...,
    round(horizon / delta): the keys ``trajectories`` and ``moments`` share."""

    alpha: float = _positive(0.02)
    sigma: float = _positive(8.0)
    delta: float = _positive(0.5)
    horizon: float = _positive(250.0)
    p0: float = _key(0.0)

    def check(self):
        _require(self.horizon >= self.delta, "horizon", "must be >= delta, or no step is taken")


@dataclass(frozen=True, kw_only=True)
class _ComFrame(ScenarioConfig):
    """A collision given in the canonical COM frame: x > 0, p < 0."""

    x: float = _key(10.0, lambda v: v > 0, "canonical COM frame needs x > 0")
    p: float = _key(-2.0, lambda v: v < 0, "canonical COM frame needs p < 0")
    alpha: float = _positive(0.3)
    sigma: float = _positive(4.0)


@dataclass(frozen=True, kw_only=True)
class _Marginals(ScenarioConfig):
    """The marginal tables' times, in collision times, and (x', p') grids."""

    n_times: int = _count(24)
    t_max_collision_units: float = _key(5.0)
    x_lo: float = _key(-40.0)
    x_hi: float = _key(40.0)
    n_x: int = _count(321)
    p_lo: float = _key(-4.0)
    p_hi: float = _key(4.0)
    n_p: int = _count(241)
    momentum_grid_n: int = _count(1024)  # ignored; the momentum marginal needs no grid

    def _marginal_tables(self, t_c, position, momentum):
        """The table times, the position and momentum marginal tables, and the
        ``numerics`` block; ``position(t, xs)`` gives the densities and
        ``momentum(t, ps)`` the densities and the momentum rule's node count."""
        times = np.linspace(0.0, self.t_max_collision_units * t_c, self.n_times)
        xs = np.linspace(self.x_lo, self.x_hi, self.n_x)
        ps = np.linspace(self.p_lo, self.p_hi, self.n_p)
        momenta, nodes = zip(*[momentum(t, ps) for t in times])
        tables = {f"{name}_marginal.csv": (
                      ["t", column, "density"],
                      np.column_stack([np.repeat(times, grid.size), np.tile(grid, times.size),
                                       np.concatenate(densities)]).tolist())
                  for name, column, grid, densities in (
                      ("position", "x_prime", xs, [position(t, xs) for t in times]),
                      ("momentum", "p_prime", ps, momenta))}
        return times, tables, {"momentum_rule_nodes": list(nodes)}


def _cell(v):
    return repr(v) if type(v) is float else repr(float(v)) if isinstance(v, float) else str(v)


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
            fh.write(",".join(map(_cell, row)) + "\n")
    return path


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class Fig1Config(_ComFrame, _Marginals):
    """Marginals and Brownian mean momentum through one COM-frame collision."""

    kind: ClassVar[str] = "fig1"

    def run(self):
        pair = self.pair
        init = ec.com_condition(pair, self.x, self.p)
        t_c = ec.collision_time(pair, init.p)
        times, tables, numerics = self._marginal_tables(
            t_c, lambda t, xs: ec.position_marginal(pair, init, t, xs),
            lambda t, ps: ec.momentum_marginal(pair, init, t, ps, return_nodes=True))
        tables["momentum_mean.csv"] = (
            ["t", "mean_p"], [(float(t), ec.brownian_momentum_mean(pair, init, t)) for t in times])
        return {"collision_time": t_c, "numerics": numerics,
                "diagnostics": ec.collision_ratios(pair, init)}, tables, []


@dataclass(frozen=True, kw_only=True)
class CollideConfig(_Gas, _Marginals):
    """One collision of lab-frame packets: marginals, fidelity, and the
    coarse-graining regime at delta and the lab-frame label p."""

    kind: ClassVar[str] = "collide"
    gas_x: float = _key()
    gas_p: float = _key()
    x: float = _key()
    p: float = _key()
    number_density: float = _positive(0.01)
    delta: float = _positive(10.0)
    # COM-frame fidelity sample times; none: 11 up to 5 collision times
    fidelity_times: tuple[float, ...] | None = _key(
        None, lambda v: v is None or _times_ok(v), "need one or more times, each >= 0")

    @cached_property
    def lab(self) -> ec.LabFrameCollision:
        return ec.LabFrameCollision(self.pair, self.gas_x, self.gas_p, self.x, self.p)

    def check(self):
        _require(self.gas_x != self.x, "gas_x", "must differ from x")
        try:
            self.lab
        except ValueError as exc:
            raise ConfigError("scenario.p",
                              "packets recede from each other and never collide") from exc

    def run(self):
        pair, lab = self.pair, self.lab
        init = lab.com_init
        regime = self._regime(self.delta, self.p)
        t_c = ec.collision_time(pair, init.p)
        _, tables, numerics = self._marginal_tables(
            t_c, lab.position_marginal, partial(lab.momentum_marginal, return_nodes=True))
        fid_times = self.fidelity_times or [float(v) for v in np.linspace(0.0, 5 * t_c, 11)]
        tables["fidelity.csv"] = (["t", "outgoing_fidelity"], [
            (float(t), ec.outgoing_fidelity(pair, init, t)) for t in fid_times])
        x_g, p_g = init.gas_label(pair)
        return {"collision_time": t_c, "numerics": numerics,
                "com_condition": {"x_g": x_g, "p_g": p_g, "x": init.x, "p": init.p,
                                  "reflection": lab.reflection, "com_offset": lab.com_offset,
                                  "boost_velocity": lab.boost_velocity},
                "diagnostics": {**ec.collision_ratios(pair, init), "collision_time": t_c,
                                **regime}}, tables, []


@dataclass(frozen=True, kw_only=True)
class OracleVerifyConfig(_ComFrame):
    """The spectral grid oracle against the closed-form collision.  The summary's
    ``numerics.finest_grid_resolved`` says whether ``grid_oracle._validate`` accepts
    the finest grid; no table or verdict reads it."""

    kind: ClassVar[str] = "oracle-verify"
    grid_sizes: tuple[int, ...] = _key(
        (96, 128, 192, 256, 384, 512, 1024), lambda v: v and all(n >= 8 for n in v),
        "need one or more grid sizes, each >= 8")
    times_collision_units: tuple[float, ...] = _key(
        (0.0, 1.0, 3.0), _times_ok, "need one or more times, each >= 0")
    tolerance: float = _positive(1e-3)

    def run(self):
        pair = self.pair
        init = ec.com_condition(pair, self.x, self.p)
        t_c = ec.collision_time(pair, init.p)
        times = [u * t_c for u in self.times_collision_units]
        finest = max(self.grid_sizes)
        base = grid_oracle.default_grid(pair, init, finest, t_max=max(times))
        rows = []
        for n in sorted(self.grid_sizes):
            errs = grid_oracle.compare_to_analytic(pair, init, times, replace(base, n_R=n, n_r=n),
                                                   validate=False)
            rows.extend((n, float(t), float(e)) for t, e in zip(times, errs))
        # np.max, unlike max, keeps a NaN
        worst_finest = float(np.max([e for n, _, e in rows if n == finest], initial=0.0))
        try:
            grid_oracle._validate(pair, init, base)
        except (GridTooCoarse, GridTooSmall):
            resolved = False
        else:
            resolved = True
        failures = [f"L2 error {e} at grid_n = {n}, t = {t!r} is not finite"
                    for n, t, e in rows if not np.isfinite(e)]
        if worst_finest > self.tolerance:
            failures.append(f"finest-grid L2 error {worst_finest:.3e} exceeds tolerance "
                            f"{self.tolerance:.1e}")
        tables = {"oracle_error.csv": (["grid_n", "t", "l2_error"], rows)}
        return {"collision_time": t_c,
                "grid": {"r_length": float(base.r_length),
                         "R_halfwidth": float(base.R_halfwidth)},
                "worst_error_at_finest": worst_finest if np.isfinite(worst_finest) else None,
                "requested_tolerance": self.tolerance,
                "numerics": {"finest_grid_resolved": resolved}}, tables, failures


@dataclass(frozen=True, kw_only=True)
class ChannelVerifyConfig(ScenarioConfig):
    """The collision channel on a grid, each of its checks against a gate."""

    kind: ClassVar[str] = "channel-verify"
    alpha: float = _positive(0.3)
    sigma: float = _positive(1.0)
    grid_n: int = _key(256, lambda v: v >= 16, "must be >= 16")
    grid_length: float = _positive(24.0)
    state_x: float = _key(1.0)
    state_p: float = _key(0.5)
    gas_x: float = _key(-2.0)
    gas_p: float = _key(1.5)
    time: float = _nonnegative(0.5)  # 0 is a collision with no free flight

    def run(self):
        pair = self.pair
        grid = channel.SpatialGrid(n=self.grid_n, length=self.grid_length)
        psi = channel.grid_packet(grid, pair.brownian_packet(self.state_x, self.state_p))
        rho = channel.OperatorGrid(np.outer(psi, psi.conj()), grid)
        gas_state = (self.gas_x, self.gas_p)
        out = channel.apply_collision_channel(rho, pair, gas_state, self.time)
        trace = out.trace()
        trace_error = abs(trace - 1.0)
        *_, x_out, p_out = classical_collision_map(pair, *gas_state, self.state_x, self.state_p)
        target = channel.grid_packet(grid, pair.brownian_packet(x_out, p_out))
        target = channel.free_evolve_vector(grid, target, pair.brownian_mass, self.time,
                                            pair.hbar)
        fidelity = out.expectation(target) / trace
        eff = channel.build_effect_operator(pair, 0.0, 0.0, grid)
        root = channel._sqrt_effect_center(pair, grid)  # the root the channel applied
        ktk_residual = float(np.max(np.abs(root @ root - eff.matrix)))
        completeness = channel.completeness_residual(pair, grid)
        lo, hi = eff.eigenvalue_range()
        rows = [
            ("pointer_fidelity", fidelity, 0.95, fidelity >= 0.95),
            ("trace_error", trace_error, 1e-3, trace_error <= 1e-3),
            ("completeness_residual", completeness, 1e-3, completeness <= 1e-3),
            ("kraus_ktk_residual", ktk_residual, 1e-8, ktk_residual <= 1e-8),
            ("effect_min_eigenvalue", lo, -1e-8, lo >= -1e-8),
        ]
        tables = {"channel_checks.csv": (
            ["check", "value", "threshold", "passed"],
            [(name, float(v), float(thr), ok) for name, v, thr, ok in rows])}
        failures = [f"{name} = {v:.6g} fails threshold {thr:.3g}"
                    for name, v, thr, ok in rows if not ok]
        return {"checks": {name: {"value": float(v), "threshold": float(thr), "passed": bool(ok)}
                           for name, v, thr, ok in rows}}, tables, failures


@dataclass(frozen=True, kw_only=True)
class TrajectoriesConfig(_Ensemble):
    """Trajectory Monte Carlo of the coarse-grained master equation."""

    kind: ClassVar[str] = "trajectories"
    n_traj: int = _count(10000)
    gas_flight_window: float = _nonnegative(1.0)

    def run(self):
        pair, gas = self.pair, self.gas
        series = trajectories.run(
            np.broadcast_to(0.0, self.n_traj), np.broadcast_to(self.p0, self.n_traj), gas, pair,
            self.horizon, self.delta, seed=self.seed + 1, gas_flight_window=self.gas_flight_window)
        columns = _MOMENTS + ["se_" + c for c in _MOMENTS[1:]]
        tables = {"moments.csv": (columns, [[getattr(s, c) for c in columns] for s in series])}
        ratio = moments.min_uncertainty_ratio(series, self.hbar)
        return {"friction_constant": moments.friction_constant(gas, pair.brownian_mass),
                "numerics": {"min_uncertainty_ratio": ratio},
                "diagnostics": trajectories.regime(gas, pair, self.delta, self.p0)}, tables, []


@dataclass(frozen=True, kw_only=True)
class MomentsConfig(_Ensemble):
    """The moment ODE of the coarse-grained master equation."""

    kind: ClassVar[str] = "moments"
    include_artifact: bool = _key(True)

    def run(self):
        pair = self.pair
        params = moments.FrictionParams.from_gas(self.gas, pair.brownian_mass, self.delta,
                                                 include_artifact=self.include_artifact)
        p0 = self.p0
        fx2, fxp, fp2 = pair.brownian_packet(0.0, p0).evolve(0.0).covariance()
        initial = moments.MomentState(mean_x=0.0, mean_p=p0, mean_x2=fx2, mean_xp=fxp,
                                      mean_p2=p0**2 + fp2)
        series = moments.integrate(initial, params, self.horizon, self.delta)
        tables = {"moments_ode.csv": (_MOMENTS,
                                      [[getattr(s, c) for c in _MOMENTS] for s in series])}
        ratio = moments.min_uncertainty_ratio(series, self.hbar)
        # the artifact rate above which every state stays quantum (``moments``)
        d_min = params.f * self.hbar**2 / (8 * params.mass * params.kT)
        return {"friction_constant": params.f, "artifact_rate": params.artifact_rate,
                "artifact_to_positivity_floor": params.artifact_rate / d_min,
                "numerics": {"min_uncertainty_ratio": ratio},
                "slow_particle_ratio": params.slow_particle_ratio(p0),
                "diagnostics": self._regime(self.delta, p0)}, tables, []


@dataclass(frozen=True, kw_only=True)
class DeltaScanConfig(_Gas):
    """The coarse-grained trajectories' excess position diffusion against delta."""

    kind: ClassVar[str] = "delta-scan"
    n_traj: int = _count(20000)
    alpha: float = _positive(1.0)
    sigma: float = _positive(4.0)
    deltas: tuple[float, ...] = _key((0.125, 0.25, 0.5, 1.0))
    horizon: float = _positive(60.0)
    gas_flight_window: float = _nonnegative(1.0)
    slope_tol: float = _positive(0.2)
    ratio_factor: float = _key(2.0, lambda v: v >= 1, "must be >= 1")

    def check(self):
        d = self.deltas
        _require(len(set(d)) == len(d) >= 2, "deltas", "need at least two distinct deltas")
        _require(all(v > 0 for v in d), "deltas", "must be > 0")
        _require(2 * max(d) <= self.horizon, "deltas",
                 "each delta must be <= horizon / 2, two steps to fit a rate")

    def run(self):
        pair, gas = self.pair, self.gas

        def excess_rate(delta, seed):
            ts, msd = trajectories.excess_position_msd(
                self.n_traj, gas, pair, delta, self.horizon, seed=seed,
                gas_flight_window=self.gas_flight_window)
            return float(np.polyfit(ts, msd, 1)[0])

        deltas = sorted(self.deltas)
        rates = [excess_rate(d, self.seed + i) for i, d in enumerate(deltas)]
        # the paper's rate, the closed form's alpha = 1, w = 1, v = 0 limit
        printed = [gas.number_density / (3 * np.sqrt(np.pi))
                   * (2 * gas.kT / gas.gas_mass) ** 1.5 * d**2 for d in deltas]
        closed = [moments.artifact_diffusion_rate(gas, pair.brownian_mass, d,
                                                  self.gas_flight_window) for d in deltas]
        ratios = [r / c if c else float("nan") for r, c in zip(rates, closed)]
        # without a flight window the excess rates are 0: the slope is NaN and
        # fails the gate below
        slope = (float(np.polyfit(np.log(deltas), np.log(rates), 1)[0])
                 if min(rates) > 0 else float("nan"))
        mean_ratio = float(np.mean(ratios))
        tables = {"delta_scan.csv": (
            ["delta", "excess_rate", "printed_rate", "closed_form_rate", "ratio"],
            [(float(d), *row) for d, *row in zip(deltas, rates, printed, closed, ratios)])}
        failures = []
        if not abs(slope - 2.0) <= self.slope_tol:
            failures.append(f"log-log slope {slope:.3f} outside 2 +- {self.slope_tol}")
        if not (1 / self.ratio_factor <= mean_ratio <= self.ratio_factor):
            failures.append(f"mean ratio {mean_ratio:.3f} outside factor {self.ratio_factor}")
        return {"log_log_slope": slope if np.isfinite(slope) else None,
                "mean_ratio_to_closed_form": (mean_ratio if np.isfinite(mean_ratio)
                                              else None)}, tables, failures


SCENARIOS = {c.kind: c for c in (Fig1Config, CollideConfig, OracleVerifyConfig,
                                 ChannelVerifyConfig, TrajectoriesConfig,
                                 MomentsConfig, DeltaScanConfig)}


def run_scenario(cfg: ScenarioConfig, out_dir=".") -> int:
    """Run one validated scenario; write its tables and ``summary.json`` into
    ``out_dir``, none of them after a ``QBM1DError``; return the exit code."""
    (out_dir := Path(out_dir)).mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", trajectories.ValidityWarning)
        try:
            summary, tables, failures = cfg.run()
        except QBM1DError as exc:
            error = exc
        else:
            error = None
    for w in caught:                     # on to stderr, under the caller's filters
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    if error is not None:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    for name, (header, rows) in tables.items():
        emit_csv(out_dir / name, header, rows)
    summary["outputs"] = list(tables)
    summary.setdefault("numerics", {})["validity_warnings"] = [
        str(w.message) for w in caught if issubclass(w.category, trajectories.ValidityWarning)]
    summary["tolerance_failures"] = failures
    config = {"kind": cfg.kind, **{f.name: getattr(cfg, f.name) for f in _keys(cfg)}}
    path = out_dir / "summary.json"
    path.write_text(json.dumps({"scenario": cfg.kind, "config": config, **summary},
                               indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    for f in failures:
        print(f"tolerance failure: {f}", file=sys.stderr)
    return 3 if failures else 0


@cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="qbm1d", description="collisional quantum Brownian motion scenario runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in SCENARIOS:
        sp = sub.add_parser(kind)
        sp.add_argument("config", help="path to the INI scenario config")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out-dir", default=".", help="artifact directory (default: cwd)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ScenarioConfig.load(args.kind, args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(cfg, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
