"""Which qbm1d functions the traced run wraps, and the per-layer metrics.

The layers are qbm1d's modules.  A wrapper is installed at every place a
name is looked up: ``mean_relative_speed`` is bound by ``from .thermal
import`` in ``channel``, ``exact_collision`` and ``trajectories`` (and the
package), ``grid_oracle`` binds ``wavefunction`` from ``exact_collision``,
and the packet amplitudes and ``ScenarioConfig.load`` are class
attributes.
"""

from __future__ import annotations

import os

import numpy as np

import qbm1d
from qbm1d import (channel, cli, exact_collision, grid_oracle, moments, packets,
                   thermal, trajectories)

LAYERS = ("packets", "thermal", "exact_collision", "grid_oracle", "channel",
          "trajectories", "moments", "cli")

# scenarios the workloads run through the CLI (channel-verify crashes; the
# channel workload drives the library instead)
SCENARIOS = ("fig1", "collide", "oracle-verify", "trajectories", "moments",
             "delta-scan")

_EC_TIMED = ("position_marginal_profile_grid", "position_marginal",
             "momentum_marginal_profile", "brownian_momentum_mean",
             "outgoing_fidelity")
_CHANNEL_TIMED = ("build_effect_operator", "operator_sqrt", "build_kraus",
                  "build_projection", "aggregate_rate_operator")
_TRAJ_TIMED = ("run", "step_ensemble", "excess_position_msd",
               "sample_collision_partner")

PER_LAYER = (
    [(f"exact_collision.{f}.{m}", u) for f in _EC_TIMED
     for m, u in (("busy_s", "s"), ("calls", "count"))]
    + [("exact_collision.wavefunction.calls", "count"),
       ("exact_collision.wavefunction.points", "count"),
       ("exact_collision.fail", "count"),
       ("grid_oracle.compare_to_analytic.busy_s", "s"),
       ("grid_oracle.compare_to_analytic.calls", "count"),
       ("grid_oracle.grid_points", "count"),
       ("packets.amplitude.calls", "count"),
       ("packets.amplitude.points", "count"),
       ("channel.apply_collision_channel.pure.busy_s", "s"),
       ("channel.apply_collision_channel.mixed.busy_s", "s")]
    + [(f"channel.{f}.busy_s", "s") for f in _CHANNEL_TIMED]
    + [("channel.displace_vector.calls", "count"),
       ("channel.grid_packet.calls", "count"),
       ("channel.fail", "count"),
       ("thermal.mean_relative_speed.busy_s", "s"),
       ("thermal.mean_relative_speed.calls", "count")]
    + [(f"trajectories.{f}.busy_s", "s") for f in _TRAJ_TIMED]
    + [("trajectories.step_ensemble.calls", "count"),
       ("trajectories.traj_steps", "count"),
       ("trajectories.partner_draws", "count"),
       ("trajectories.partner_draw_fraction", "1"),
       ("moments.integrate.busy_s", "s"),
       ("moments.integrate.steps", "count"),
       ("cli.ScenarioConfig.load.busy_s", "s"),
       ("cli.emit_csv.busy_s", "s"),
       ("cli.emit_csv.bytes", "B")]
    + [(f"cli.run_scenario.{s}.busy_s", "s") for s in SCENARIOS]
    + [(f"{layer}.share", "1") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


def _result_size(counter):
    return lambda args, kwargs, result: {counter: int(np.size(result))}


def _grid_points(args, kwargs, result):
    params = args[3] if len(args) > 3 else kwargs["params"]
    return {"grid_oracle.grid_points": params.n_R * params.n_r}


def _purity(args, kwargs):
    m = args[0].matrix
    tr = np.trace(m).real
    return "pure" if np.vdot(m, m).real >= (1 - 1e-9) * tr * tr else "mixed"


def _steps(args, kwargs, result):
    return {"trajectories.traj_steps": int(np.size(args[0]))}


def _twin_steps(args, kwargs, result):
    n, delta, horizon = args[0], args[3], args[4]
    return {"trajectories.traj_steps": int(n) * int(round(horizon / delta))}


def instrument(tracer):
    """Wrap every traced qbm1d function; undo with ``tracer.restore()``."""
    ec = exact_collision
    for f in _EC_TIMED:
        tracer.patch([ec], f, f"exact_collision.{f}")
    tracer.patch([ec, grid_oracle], "wavefunction", "exact_collision.wavefunction",
                 count=_result_size("exact_collision.wavefunction.points"),
                 timed=False)
    tracer.patch([grid_oracle], "compare_to_analytic",
                 "grid_oracle.compare_to_analytic", count=_grid_points)
    for cls in (packets.GaussianPacket, packets.EvolvedPacket):
        tracer.patch([cls], "amplitude", "packets.amplitude",
                     count=_result_size("packets.amplitude.points"), timed=False)
    tracer.patch([thermal, channel, ec, trajectories, qbm1d], "mean_relative_speed",
                 "thermal.mean_relative_speed")
    tracer.patch([channel], "apply_collision_channel",
                 "channel.apply_collision_channel", name_of=_purity)
    for f in _CHANNEL_TIMED:
        tracer.patch([channel], f, f"channel.{f}")
    for f in ("displace_vector", "grid_packet"):
        tracer.patch([channel], f, f"channel.{f}", timed=False)
    tracer.patch([trajectories], "run", "trajectories.run")
    tracer.patch([trajectories], "step_ensemble", "trajectories.step_ensemble",
                 count=_steps)
    tracer.patch([trajectories], "excess_position_msd",
                 "trajectories.excess_position_msd", count=_twin_steps)
    tracer.patch([trajectories], "sample_collision_partner",
                 "trajectories.sample_collision_partner",
                 count=_result_size("trajectories.partner_draws"))
    tracer.patch([moments], "integrate", "moments.integrate",
                 count=lambda a, k, r: {"moments.integrate.steps": len(r) - 1})
    tracer.patch([cli.ScenarioConfig], "load", "cli.ScenarioConfig.load")
    tracer.patch([cli], "emit_csv", "cli.emit_csv",
                 count=lambda a, k, r: {"cli.emit_csv.bytes": os.path.getsize(r)})
    tracer.patch([cli], "run_scenario", "cli.run_scenario",
                 name_of=lambda a, k: a[0].kind)


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced workload run of ``wall_s`` seconds."""
    busy = tracer.busy_by_name()
    by_layer = tracer.busy_by_layer()
    counts = tracer.counts
    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".busy_s"):
            out[name] = busy.get(name[:-len(".busy_s")], 0.0)
        elif name.endswith(".share"):
            out[name] = by_layer.get(name[:-len(".share")], 0.0) / wall_s
        elif name == "trajectories.partner_draw_fraction":
            steps = counts["trajectories.traj_steps"]
            out[name] = counts["trajectories.partner_draws"] / steps if steps else 0.0
        elif not name.startswith("trace."):
            out[name] = counts[name]
    return out
