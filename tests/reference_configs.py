"""The reference scenario configs: one ``Row`` of ``ROWS`` each.

``test_cli`` runs every row twice in one process and takes each scenario's
smoke config from the row named after it.  As a script,

    python tests/reference_configs.py OUT [QBM1D]

writes each row's INI file to OUT/<name>.ini and runs the row into
OUT/<name>: all rows through ``qbm1d.cli.main`` in this one process, or,
given the path of a ``qbm1d`` console script, each row in its own process of
it.  It stops at the first row that does not exit 0.  Two such runs write the
same bytes only at the same BLAS thread count (``qbm1d.cli``): pin it, e.g.
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, on both sides of a diff.
At 1 and 2 threads only the ``channel-*`` rows differ.

    python tests/reference_configs.py --digests

rewrites ``reference_digests.json``: the sha256 of every output file of the
Monte Carlo rows ``PINNED``, which ``test_cli`` compares, and numpy's version.
NEP 19 promises no random stream across numpy releases, so the test skips at
another version; run it at one BLAS thread, and only where a change is meant
to move the Monte Carlo bytes.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from qbm1d import cli


class Row(NamedTuple):
    name: str
    kind: str
    config: dict          # the [scenario] keys; empty: every default
    seed: Optional[int] = None  # the --seed option; None: the config's

    def argv(self, ini, out):
        """``qbm1d`` arguments that run this row from ``ini`` into ``out``."""
        return [self.kind, str(ini),
                *(["--seed", str(self.seed)] if self.seed is not None else []),
                "--out-dir", str(out)]


# A row named after a scenario is that scenario's tier-1 smoke config.
ROWS = [
    Row("fig1", "fig1", {"sigma": 1.0, "x": 3.0, "p": -1.0, "n_times": 2, "n_x": 9, "n_p": 9,
                         "momentum_grid_n": 128, "x_lo": -10.0, "x_hi": 10.0}, 3),
    Row("fig1-defaults", "fig1", {}),
    Row("far", "fig1", {"alpha": 0.3, "sigma": 1.0, "x": 60.0, "p": -2.0, "n_times": 4,
                        "t_max_collision_units": 132.5}),
    Row("collide", "collide", {"alpha": 0.7, "sigma": 1.0, "x": 3.0, "p": -1.0,
                               "gas_x": -4.285714285714286, "gas_p": 1.0, "n_times": 2,
                               "n_x": 9, "n_p": 9, "momentum_grid_n": 128, "x_lo": -10.0,
                               "x_hi": 10.0, "fidelity_times": "0.5 4.0"}),
    Row("oracle-verify", "oracle-verify", {"sigma": 1.0, "x": 3.0, "p": -1.0,
                                           "grid_sizes": "64 96",
                                           "times_collision_units": "0 1"}, 3),
    Row("oracle-defaults", "oracle-verify", {}),
    Row("oracle-alpha1", "oracle-verify", {"alpha": 1.0, "sigma": 1.0, "x": 5.0, "p": -0.5}),
    Row("channel-verify", "channel-verify", {"grid_n": 192, "grid_length": 24.0}, 3),
    Row("channel-defaults", "channel-verify", {}),
    Row("channel-equal", "channel-verify", {"alpha": 1.0}),
    Row("channel-heavy", "channel-verify", {"alpha": 3.0}),
    Row("channel-near-equal", "channel-verify", {"alpha": 0.999}),
    Row("trajectories", "trajectories", {"n_traj": 200, "horizon": 20.0}),
    Row("alpha5", "trajectories", {"alpha": 5.0, "n_traj": 2000, "horizon": 20.0}),
    Row("drift", "trajectories", {"p0": 3.0, "n_traj": 2000}),
    Row("moments", "moments", {"horizon": 20.0}),
    Row("delta-scan", "delta-scan", {"n_traj": 2000, "horizon": 20.0}, 3),
    Row("delta-scan-defaults", "delta-scan", {}),
    Row("scan14", "delta-scan", {}, 14),
]


def write_ini(path, cfg):
    path.write_text("[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


PINNED = ("trajectories", "alpha5", "drift", "delta-scan", "delta-scan-defaults", "scan14")
DIGESTS = Path(__file__).with_name("reference_digests.json")


def digests(out, names=PINNED):
    """{row: {file: sha256}} of the output files of the rows ``names`` under out."""
    return {name: {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted((Path(out) / name).iterdir())} for name in names}


def write_digests():
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
        table = {"numpy": np.__version__, "rows": digests(tmp)}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(out, console=None):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for row in ROWS:
        argv = row.argv(write_ini(out / f"{row.name}.ini", row.config), out / row.name)
        code = (cli.main(argv) if console is None
                else subprocess.run([console, *argv], stdin=subprocess.DEVNULL).returncode)
        if code != 0:
            sys.exit(f"{row.name}: {row.kind} exited {code}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        write_digests()
    else:
        main(*sys.argv[1:])
