import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

from qbm1d import moments
from qbm1d import trajectories as tr
from qbm1d.errors import PartnerNotConverged, StepTooLarge
from qbm1d.packets import CollisionPair, classical_collision_map
from qbm1d.thermal import ThermalGasSpec

# Tests marked with this step at delta = 0.5 or 1, under 3 typical collision
# times, to keep their paths few; TestRegime and TestStepCheck assert the
# warning itself.
STRAINED_DELTA = pytest.mark.filterwarnings(
    "ignore:coarse step delta:qbm1d.trajectories.ValidityWarning")


@pytest.fixture(scope="module")
def pair():
    return CollisionPair.matched(1.0, 0.3, 2.0)


@pytest.fixture(scope="module")
def gas(pair):
    return ThermalGasSpec(temperature=1.0, number_density=0.02, gas_mass=pair.gas_mass,
                          packet_width=pair.gas_width)


def _partner_cdf(p_g, p, gas, pair):
    """CDF of the flux-weighted gas momentum, density ~ phi(z) |z - zv| in
    gas-velocity units z: with g(z) = zv Phi(z) + phi(z), the integral up to z
    is g(z) below zv and 2 g(zv) - g(z) above, out of 2 g(zv) - zv."""
    su = np.sqrt(gas.kT / gas.gas_mass)
    zv = p / pair.brownian_mass / su
    z = np.asarray(p_g) / (gas.gas_mass * su)

    def g(v):
        return zv * ndtr(v) + np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)

    raw = np.where(z <= zv, g(z), 2 * g(zv) - g(z))
    return raw / (2 * g(zv) - zv)


def _pair_and_gas(alpha):
    pair = CollisionPair.matched(1.0, alpha, 2.0)
    return pair, ThermalGasSpec(temperature=1.0, number_density=0.02,
                                gas_mass=pair.gas_mass, packet_width=pair.gas_width)


def _free_packet_moments(pair, p0, t):
    """<x^2>, <{x,p}> and <p^2> of the packet |0, p0> after free flight for
    time t, by quadrature of its amplitude exp(-a x^2 + b x + c)."""
    packet = pair.brownian_packet(0.0, p0).evolve(t)
    a, b, _ = packet.quadratic_form()
    half = 12 * np.sqrt(packet.covariance()[0])
    xs = np.linspace(packet.center - half, packet.center + half, 4001)
    psi = packet.amplitude(xs)
    p_psi = -1j * pair.hbar * (-2 * a * xs + b) * psi
    norm = integrate.trapezoid(abs(psi)**2, xs)
    x2 = integrate.trapezoid(xs**2 * abs(psi)**2, xs) / norm
    xp = 2 * integrate.trapezoid(xs * np.conj(psi) * p_psi, xs).real / norm
    p2 = integrate.trapezoid(abs(p_psi)**2, xs) / norm
    return x2, xp, p2


class TestCollisionPartner:
    def test_cdf_matches_quadrature(self, gas, pair):
        # the test's closed form against a direct integral of the density
        p = 1.5
        su = np.sqrt(gas.kT / gas.gas_mass)
        zv = p / pair.brownian_mass / su
        dens = lambda z: abs(z - zv) * np.exp(-z**2 / 2)  # noqa: E731
        total = integrate.quad(dens, -np.inf, zv)[0] + integrate.quad(dens, zv, np.inf)[0]
        for z in (-2.0, 0.3, zv, 3.0):
            part = integrate.quad(dens, -np.inf, min(z, zv))[0]
            if z > zv:
                part += integrate.quad(dens, zv, z)[0]
            assert _partner_cdf(z * gas.gas_mass * su, p, gas, pair) == pytest.approx(
                part / total, abs=1e-10)

    @pytest.mark.parametrize("alpha,p", [
        pytest.param(0.3, 0.0, id="0.0"), pytest.param(0.3, 1.5, id="1.5"),
        pytest.param(0.3, -4.0, id="-4.0"),
        # z_v = 8, 12 and 6.7: a fixed bracket z_v +- 9 cuts off the gas mass
        pytest.param(1.0, 8.0, id="alpha1-8.0"), pytest.param(1.0, 12.0, id="alpha1-12.0"),
        pytest.param(5.0, 3.0, id="alpha5-3.0"),
        # z_v = +-20 and +-40: at +-40 phi and the mass below the kink underflow
        # to 0, the kinks of a cold gas (hence under="ignore")
        pytest.param(1.0, 20.0, id="alpha1-20.0"), pytest.param(1.0, -20.0, id="alpha1--20.0"),
        pytest.param(1.0, 40.0, id="alpha1-40.0"), pytest.param(1.0, -40.0, id="alpha1--40.0"),
        # thermal kinks, z_v normal with variance alpha: each draw against its own CDF
        pytest.param(0.02, None, id="alpha0.02-thermal")])
    def test_ks_against_closed_form_cdf(self, alpha, p):
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(7)
        if p is None:
            p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), 20000)
        p = np.broadcast_to(p, 20000)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            draws = tr.sample_collision_partner(p, gas, pair, rng)
            res = stats.kstest(_partner_cdf(draws, p, gas, pair), "uniform")
        assert res.pvalue > 1e-3

    def test_unconverged_draw_raises(self, gas, pair, monkeypatch):
        monkeypatch.setattr(tr, "_MAX_ROUNDS", 1)
        with pytest.raises(PartnerNotConverged, match="in 1 rejection rounds"):
            tr.sample_collision_partner(np.linspace(-3.0, 3.0, 50), gas, pair,
                                        np.random.default_rng(0))

    def test_nan_momentum_raises(self, gas, pair):
        # no candidate is ever kept against a NaN kink; without the cap the
        # rounds would never end
        with pytest.raises(PartnerNotConverged, match="1 partner draws"):
            tr.sample_collision_partner(np.array([0.0, np.nan, 1.0]), gas, pair,
                                        np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momentum_raises_before_any_draw(self, gas, pair, bad):
        rng = np.random.default_rng(0)
        with pytest.raises(PartnerNotConverged, match="non-finite"):
            tr.sample_collision_partner(np.array([0.0, bad, 1.0]), gas, pair, rng)
        assert rng.random() == np.random.default_rng(0).random()


def _step_positions(x, p, hit, tau, eta, p_g, pair, delta):
    """One coarse step on the positions, the O(n) oracle: a hit drifts to
    contact, takes the label map against the gas label displaced by its
    flight and drifts on; every other path drifts for delta."""
    ph = p[hit]
    xh = x[hit] + ph / pair.brownian_mass * tau
    x_g_label = xh - (p_g / pair.gas_mass) * eta
    _, _, x_out, p_out = classical_collision_map(pair, x_g_label, p_g, xh, ph)
    x = x + p / pair.brownian_mass * delta
    x[hit] = x_out + p_out / pair.brownian_mass * (delta - tau)
    p = p.copy()
    p[hit] = p_out
    return x, p


def _two_pass_stats(t, x, p, pair):
    """The oracle's EnsembleStats: label moments with standard errors from
    sums of squared deviations from the mean (two passes over the paths)."""
    n, mean, se = x.size, [], []
    for q in (x, p, x * x, 2 * x * p, p * p):
        mean.append(q.mean())
        d = q - mean[-1]
        se.append(np.sqrt(np.dot(d, d) / (n - 1) / n) if n > 1 else np.nan)
    return tr.EnsembleStats.from_label_moments(t, n, mean, se, pair)


def _per_row_stats(sums, t, row, pair):
    """The per-row route, the oracle of ``_LabelSums.stats``: EnsembleStats at
    time t from the sums ``row`` then, by three 5 x 5 Pascal products."""
    n, s = sums.n, t / pair.brownian_mass
    raw = np.zeros((5, 5))
    raw[tr._I, tr._J] = row / n
    ma, mp = raw[1, 0], raw[0, 1]
    c = tr._pascal(-ma) @ raw @ tr._pascal(-mp).T
    by_order = np.zeros((5, 5))
    by_order[tr._I, tr._I + tr._J] = c[tr._I, tr._J]
    mu = np.zeros((5, 5))
    mu[tr._I, tr._J] = (tr._pascal(s) @ by_order)[tr._I, tr._I + tr._J]
    x = sums.a_c + sums.p_c * s + ma + mp * s
    p = sums.p_c + mp
    mean = (x, p, x * x + mu[2, 0], 2 * (x * p + mu[1, 1]), p * p + mu[0, 2])
    var = (mu[2, 0], mu[0, 2],
           mu[4, 0] - mu[2, 0]**2 + 4 * x * mu[3, 0] + 4 * x * x * mu[2, 0],
           4 * (mu[2, 2] - mu[1, 1]**2 + x * x * mu[0, 2] + p * p * mu[2, 0]
                + 2 * x * mu[1, 2] + 2 * p * mu[2, 1] + 2 * x * p * mu[1, 1]),
           mu[0, 4] - mu[0, 2]**2 + 4 * p * mu[0, 3] + 4 * p * p * mu[0, 2])
    se = [np.sqrt(max(v, 0.0) / (n - 1)) if n > 1 else np.nan for v in var]
    return tr.EnsembleStats.from_label_moments(t, n, mean, se, pair)


def _step_draw(p, gas, pair, delta, rng, window=1.0):
    """The per-step law, the oracle of the collision kernel: (hit, tau, eta,
    p_g) of one coarse step.  Each path collides with probability
    rate(p) * delta; only uniforms below the bound rate(max |p|) * delta
    (+1e-9 relative, for rounding) take their own rate.  A hit's instant tau
    is uniform in the step, its flight eta uniform on +-window * delta (zeros
    at a window of 0, which draws nothing) and its partner drawn from the
    flux-weighted law."""
    if window < 0:
        raise ValueError("window must be >= 0")
    bound = float(tr.collision_rate(max(p.max(), -p.min()), gas, pair) * delta)
    u = rng.random(p.size)
    cand = np.flatnonzero(u < bound * (1 + 1e-9))
    hit = cand[u[cand] < tr.collision_rate(p[cand], gas, pair) * delta]
    tau = eta = p_g = np.zeros(hit.size)
    if hit.size:
        tau = rng.uniform(0.0, delta, hit.size)
        if window > 0:
            eta = rng.uniform(-window * delta, window * delta, hit.size)
        p_g = tr.sample_collision_partner(p[hit], gas, pair, rng)
    return hit, tau, eta, p_g


def _full_rate_draw(p, gas, pair, delta, rng, window=1.0):
    """The unthinned draw: every path's rate, one uniform per path, the hits
    as a boolean mask; the same rng calls in the same order as the thinned
    draw ``_step_draw``."""
    rate = tr.collision_rate(p, gas, pair)
    hit = rng.random(p.size) < rate * delta
    n_hit = int(np.count_nonzero(hit))
    tau = eta = p_g = np.zeros(n_hit)
    if n_hit:
        tau = rng.uniform(0.0, delta, n_hit)
        if window > 0:
            eta = rng.uniform(-window * delta, window * delta, n_hit)
        p_g = tr.sample_collision_partner(p[hit], gas, pair, rng)
    return hit, tau, eta, p_g


class _FixedUniforms:
    """The given uniforms on the first ``random`` call, then a seeded stream."""

    def __init__(self, u, seed=0):
        self.u = np.asarray(u, dtype=float)
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        if self.u is None:
            return self.rng.random(size)
        assert size == self.u.size
        u, self.u = self.u, None
        return u

    def uniform(self, lo, hi, size):
        return self.rng.uniform(lo, hi, size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


def _law_run(x0, p0, gas, pair, n_steps, delta, seed, at):
    """The positions loop under the per-step law: {step: two-pass
    EnsembleStats} at the steps ``at``."""
    x, p = np.array(x0, dtype=float), np.array(p0, dtype=float)
    rng, out = np.random.default_rng(seed), {}
    for step in range(1, n_steps + 1):
        x, p = _step_positions(x, p, *_step_draw(p, gas, pair, delta, rng), pair, delta)
        if step in at:
            out[step] = _two_pass_stats(step * delta, x, p, pair)
    return out


class _Rounds:
    """Records the collision kernel's rounds (hit, k, eta, p_g and the
    incoming momenta p_in they were drawn from) and the instants that
    ``_collide`` receives, as tau = t - (k - 1) delta in the step.  Asserts
    that each round's p_out, and p[hit] after it, are bit-equal to the label
    map's outgoing momentum of p_in against p_g, and that ``_collide``
    writes none of its arguments."""

    def __init__(self, monkeypatch, delta):
        self.delta = delta
        empty = np.zeros(0)
        self.rounds, self.taus = [(empty.astype(int), empty.astype(int), empty, empty, empty)], []
        kernel, collide = tr._collisions, tr._collide

        def collisions(p, gas, pair, *args):
            for hit, k, eta, p_g, p_in, p_out in kernel(p, gas, pair, *args):
                want = classical_collision_map(pair, 0.0, p_g, 0.0, p_in)[3].tobytes()
                assert p_out.tobytes() == p[hit].tobytes() == want
                self.rounds.append((hit.copy(), k.copy(), eta.copy(), p_g.copy(), p_in.copy()))
                yield hit, k, eta, p_g, p_in, p_out

        def recording_collide(a_in, t, *args):
            self.taus.append(np.array(t, dtype=float) - (self.rounds[-1][1] - 1) * self.delta)
            given = [np.array(v).tobytes() for v in (a_in, t, *args[:-1])]
            a_out = collide(a_in, t, *args)
            assert [np.array(v).tobytes() for v in (a_in, t, *args[:-1])] == given
            return a_out

        monkeypatch.setattr(tr, "_collisions", collisions)
        monkeypatch.setattr(tr, "_collide", recording_collide)

    def by_step(self, n_steps):
        """(hit, tau, eta, p_g, drawn_from) of each step 1, ..., n_steps,
        ascending in hit; tau is 0 where no ``_collide`` took the rounds."""
        hit, k, eta, p_g, drawn = (np.concatenate(c) for c in zip(*self.rounds))
        tau = np.concatenate(self.taus) if self.taus else np.zeros(hit.size)
        assert tau.size == hit.size and np.all((k >= 1) & (k <= n_steps))
        for step in range(1, n_steps + 1):
            at = np.flatnonzero(k == step)
            at = at[np.argsort(hit[at])]
            assert np.unique(hit[at]).size == at.size      # at most one hit a step
            yield hit[at], tau[at], eta[at], p_g[at], drawn[at]


def _replay(x0, p0, rounds, n_steps, pair, delta):
    """The recorded rounds replayed step by step on the positions, with
    two-pass moments; asserts that each partner was drawn from the replay's
    momentum."""
    x, p = np.array(x0, dtype=float), np.array(p0, dtype=float)
    series = [_two_pass_stats(0.0, x, p, pair)]
    for step, (hit, tau, eta, p_g, drawn) in enumerate(rounds.by_step(n_steps), 1):
        assert drawn.tobytes() == p[hit].tobytes(), step
        x, p = _step_positions(x, p, hit, tau, eta, p_g, pair, delta)
        series.append(_two_pass_stats(step * delta, x, p, pair))
    return series


_MOMENTS = ("mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2")


def _run_against_positions_loop(x0, p0, gas, pair, horizon, delta, seed, monkeypatch,
                                mean_rel=0.0):
    """Run ``run`` and replay its collisions on the positions; assert that the
    means agree within 1e-9 SE (or ``mean_rel`` relative, if larger) and the
    SEs within 1e-9 relative.  Returns run's series."""
    rounds = _Rounds(monkeypatch, delta)
    series = tr.run(x0, p0, gas, pair, horizon, delta, seed)
    monkeypatch.undo()
    ref = _replay(x0, p0, rounds, len(series) - 1, pair, delta)
    assert len(ref) == len(series)
    for got, want in zip(series, ref):
        assert (got.t, got.n) == (want.t, want.n)
        for name in _MOMENTS:
            se, want_se = getattr(got, "se_" + name), getattr(want, "se_" + name)
            if want.n == 1:
                assert np.isnan(se) and np.isnan(want_se), name
                tol = 1e-12 * (1 + abs(getattr(want, name)))
            else:
                assert se == pytest.approx(want_se, rel=1e-9), (got.t, name)
                tol = max(1e-9 * want_se, mean_rel * abs(getattr(want, name)))
            assert abs(getattr(got, name) - getattr(want, name)) <= tol, (got.t, name)
    return series


class TestRun:
    @STRAINED_DELTA
    def test_reproducible_for_fixed_seed(self, gas, pair):
        rng = np.random.default_rng(1)
        p0 = rng.normal(0.0, 1.0, 500)

        def go():
            return tr.run(np.zeros(500), p0, gas, pair, horizon=20.0, delta=0.5, seed=11)

        first, second = go(), go()
        assert [dataclasses.astuple(s) for s in first] == [
            dataclasses.astuple(s) for s in second]
        assert first[-1].mean_p2 != first[0].mean_p2  # collisions happened

    @STRAINED_DELTA
    @pytest.mark.parametrize("alpha,n,p0", [(0.02, 20000, 0.0), (5.0, 2000, 0.0),
                                            (0.02, 2000, 3.0), (1.0, 1, 0.5)])
    def test_rows_match_per_row_stats(self, alpha, n, p0, monkeypatch):
        # the rows of all steps at once equal the per-row route bit for bit,
        # a lone path's NaN standard errors included
        pair, gas = _pair_and_gas(alpha)
        seen = {}
        batched = tr._LabelSums.stats

        def spy(sums, ts, running, pair):
            seen.update(sums=sums, ts=ts, running=running)
            return batched(sums, ts, running, pair)

        monkeypatch.setattr(tr._LabelSums, "stats", spy)
        x0 = np.random.default_rng(1).normal(0.0, 2.0, n)
        series = tr.run(x0, np.full(n, p0), gas, pair, 40.0, 0.5, seed=1)
        want = [_per_row_stats(seen["sums"], step * 0.5, seen["running"][:, step], pair)
                for step in range(seen["ts"].size)]
        assert [repr(s) for s in series] == [repr(s) for s in want]
        assert series[-1].mean_p2 != series[0].mean_p2 or n == 1

    @STRAINED_DELTA
    def test_leaves_initial_labels_untouched(self, gas, pair):
        # run steps copies of the labels; step_ensemble writes the hits into
        # its momentum array and leaves x alone
        p0 = np.random.default_rng(1).normal(0.0, 1.0, 500)
        x0 = np.zeros(500)
        kept = p0.copy()
        series = tr.run(x0, p0, gas, pair, horizon=20.0, delta=0.5, seed=11)
        assert series[-1].mean_p2 != series[0].mean_p2  # collisions happened
        np.testing.assert_array_equal(p0, kept)
        assert not x0.any()
        p = p0.copy()
        x, p_next = tr.step_ensemble(x0, p, gas, pair, 20.0, np.random.default_rng(0))
        assert p_next is p and not np.array_equal(p, p0) and not x0.any()

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_step_ensemble_matches_positions_step(self, alpha, monkeypatch):
        # one step of thermal labels, delta at rate * delta = 0.09 for the
        # one path at 6 thermal momenta
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(7)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        x0, p0 = rng.normal(0.0, 3.0, 5000), rng.normal(0.0, thermal, 5000)
        p0[-1] = 6 * thermal
        delta = 0.09 / float(tr.collision_rate(p0[-1], gas, pair))
        rounds = _Rounds(monkeypatch, delta)
        x, p = tr.step_ensemble(x0, p0.copy(), gas, pair, delta, np.random.default_rng(8))
        monkeypatch.undo()
        (hit, tau, eta, p_g, drawn), = rounds.by_step(1)
        assert hit.size > 0 and drawn.tobytes() == p0[hit].tobytes()
        want_x, want_p = _step_positions(x0, p0, hit, tau, eta, p_g, pair, delta)
        assert p.tobytes() == want_p.tobytes()
        np.testing.assert_allclose(x, want_x, rtol=1e-13, atol=1e-13 * np.abs(x0).max())

    @STRAINED_DELTA
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    @pytest.mark.parametrize("p0", [0.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_matches_positions_loop(self, alpha, p0, n, monkeypatch):
        # thermal labels about (0, p0): run's intercepts and running sums
        # against every position stepped and two-pass moments
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(3)
        x0 = rng.normal(0.0, pair.brownian_width, n)
        p = p0 + rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
        series = _run_against_positions_loop(x0, p, gas, pair, 20.0, 0.5, 4, monkeypatch)
        if n == 500:
            assert series[-1].mean_p2 != series[0].mean_p2  # collisions happened

    @STRAINED_DELTA
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_matches_positions_loop_past_fifty_friction_times(self, alpha, monkeypatch):
        # a drifting ensemble long after it came to rest: the intercepts grow
        # like p t/m and the mean x leaves the initial labels' free flight
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(3)
        x0 = rng.normal(0.0, 1.0, 500)
        p = 3.0 + rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), 500)
        delta = 0.09 / float(tr.collision_rate(np.max(np.abs(p)), gas, pair))
        f = moments.friction_constant(gas, pair.brownian_mass)
        horizon = np.ceil(50 / (f * delta)) * delta
        assert f * horizon >= 50
        series = _run_against_positions_loop(x0, p, gas, pair, horizon, delta, 4, monkeypatch)
        # at rest, far short of the free flight 3 t/m
        assert abs(series[-1].mean_p) < 0.2 and series[-1].mean_x < 0.1 * 3.0 * horizon

    @STRAINED_DELTA
    def test_two_pass_standard_errors(self, gas, pair, monkeypatch):
        # a mean far above the spread: a variance taken as s2/n - mean^2 from
        # raw sums puts se_mean_x 1 % off here.  At t = 0 the floors of
        # <x> and <{x,p}> are 0 and that of <x^2> is sigma^2/2.  The oracle's
        # own means round at 1e-16 of 1e4, far above 1e-9 SE at t = 0.
        rng = np.random.default_rng(2)
        x = 1e4 + rng.normal(0.0, 1e-3, 1001)
        p = rng.normal(-1.0, 0.5, 1001)
        series = _run_against_positions_loop(x, p, gas, pair, 2.0, 0.5, 1, monkeypatch,
                                             mean_rel=1e-14)
        floors = {"x": 0.0, "x2": pair.brownian_width**2 / 2, "xp": 0.0}
        for name, values in (("x", x), ("x2", x**2), ("xp", 2 * x * p)):
            assert getattr(series[0], "mean_" + name) - floors[name] == pytest.approx(
                np.mean(values), rel=1e-12), name
            assert getattr(series[0], "se_mean_" + name) == pytest.approx(
                np.std(values, ddof=1) / np.sqrt(x.size), rel=1e-9), name

    @STRAINED_DELTA
    def test_identical_labels_have_zero_standard_errors(self, gas, pair):
        # compare_to_trajectories skips SEs of 0, but would divide by rounding
        # noise; 1000 copies of 0.1 or of 0.7 do not sum to 1000 times them
        series = tr.run(np.full(1000, 0.1), np.full(1000, 0.7), gas, pair, 1.0, 0.5, 1)
        first = series[0]
        assert [getattr(first, "se_" + name) for name in _MOMENTS] == [0.0] * 5
        assert (first.mean_x, first.mean_p) == (0.1, 0.7)
        assert series[-1].se_mean_p > 0.0   # collisions happened

    @STRAINED_DELTA
    def test_collision_free_ensemble_spreads_like_a_free_packet(self, pair):
        gas = ThermalGasSpec(temperature=1.0, number_density=1e-9, gas_mass=pair.gas_mass,
                             packet_width=pair.gas_width)
        p0 = 0.7
        series = tr.run(np.zeros(50), np.full(50, p0), gas, pair, horizon=40.0,
                        delta=0.5, seed=5)[::20]
        assert [s.t for s in series] == [0.0, 10.0, 20.0, 30.0, 40.0]
        for s in series:
            x2, xp, p2 = _free_packet_moments(pair, p0, s.t)
            assert s.mean_x2 == pytest.approx(x2, rel=1e-9)
            assert s.mean_xp == pytest.approx(xp, rel=1e-9, abs=1e-12)
            assert s.mean_p2 == pytest.approx(p2, rel=1e-9)


def _twin_msd(n, gas, pair, delta, horizon, seed, rounds):
    """The excess position by contact twins, on the recorded rounds of
    ``excess_position_msd``: both twins take each step's collisions and the
    label map, one against the gas label displaced by its flight and one at
    contact (eta = 0); msd is their mean squared position gap, which tau does
    not move.  Asserts that each partner was drawn from the twins' momentum."""
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
    x_ref, x_alt = np.zeros(n), np.zeros(n)
    n_steps = int(round(horizon / delta))
    msd = np.zeros(n_steps + 1)
    for step, (hit, tau, eta, p_g, drawn) in enumerate(rounds.by_step(n_steps), 1):
        assert drawn.tobytes() == p[hit].tobytes(), step
        x_ref, _ = _step_positions(x_ref, p, hit, tau, np.zeros_like(eta), p_g, pair, delta)
        x_alt, p = _step_positions(x_alt, p, hit, tau, eta, p_g, pair, delta)
        msd[step] = np.mean((x_alt - x_ref) ** 2)
    return msd


@STRAINED_DELTA
class TestExcessPositionMSD:
    def test_contact_twins_coincide(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4,
                                        gas_flight_window=0.0)
        assert np.all(msd == 0.0)

    def test_flight_window_spreads_twins(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4)
        assert msd[0] == 0.0 and msd[-1] > 0.0

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    @pytest.mark.parametrize("window", [0.0, 1.0])
    def test_offset_matches_twin_loop(self, alpha, window, monkeypatch):
        pair, gas = _pair_and_gas(alpha)
        rounds = _Rounds(monkeypatch, 0.5)
        ts, msd = tr.excess_position_msd(3000, gas, pair, 0.5, 20.0, 9,
                                         gas_flight_window=window)
        monkeypatch.undo()
        np.testing.assert_array_equal(ts, 0.5 * np.arange(41))
        assert len(rounds.rounds) > 1 and not rounds.taus
        np.testing.assert_allclose(msd, _twin_msd(3000, gas, pair, 0.5, 20.0, 9, rounds),
                                   rtol=1e-12, atol=0)
        assert (msd[-1] > 0) == (window > 0)


class TestStepLaw:
    @STRAINED_DELTA
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_run_matches_per_step_draw(self, alpha):
        # 2e4 drifting thermal labels, about 5 collisions a path in 100 steps:
        # run's geometric gaps against one uniform per path and step, every
        # moment at four times within 4 combined SEs
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(12)
        n, delta, n_steps, at = 20000, 0.5, 100, (25, 50, 75, 100)
        x0 = rng.normal(0.0, pair.brownian_width, n)
        p0 = 2.0 + rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
        want = _law_run(x0, p0, gas, pair, n_steps, delta, 13, at)
        got = tr.run(x0, p0, gas, pair, n_steps * delta, delta, 14)
        for step in at:
            for name in _MOMENTS:
                se = np.hypot(getattr(got[step], "se_" + name), getattr(want[step], "se_" + name))
                z = (getattr(got[step], name) - getattr(want[step], name)) / se
                assert abs(z) <= 4, (alpha, step, name, z)


    @STRAINED_DELTA
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_each_step_collides_at_its_rate(self, alpha, monkeypatch):
        # the recorded collisions of 2e4 thermal paths against the per-step
        # law: each path-step hits with probability q = rate(p) delta at the
        # path's momentum then, so the hits minus the summed q, over all
        # path-steps and over those right after a hit, are within 4 of their
        # standard deviations sqrt(sum q (1 - q))
        pair, gas = _pair_and_gas(alpha)
        n, delta, n_steps = 20000, 0.5, 100
        rounds = _Rounds(monkeypatch, delta)
        tr.excess_position_msd(n, gas, pair, delta, n_steps * delta, seed=3)
        monkeypatch.undo()
        p = np.random.default_rng(3).normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
        after, sums = np.zeros(n, dtype=bool), np.zeros((2, 3))
        for hit, _, _, p_g, drawn in rounds.by_step(n_steps):
            assert drawn.tobytes() == p[hit].tobytes()
            q = tr.collision_rate(p, gas, pair) * delta
            hits = np.zeros(n, dtype=bool)
            hits[hit] = True
            for row, sel in enumerate((slice(None), after)):
                sums[row] += hits[sel].sum(), q[sel].sum(), np.sum(q[sel] * (1 - q[sel]))
            p[hit] = classical_collision_map(pair, 0.0, p_g, 0.0, p[hit])[3]
            after = hits
        z = (sums[:, 0] - sums[:, 1]) / np.sqrt(sums[:, 2])
        assert np.all(np.abs(z) <= 4), z


class TestGaps:
    def test_rate_delta_at_least_one_collides_every_step(self, gas, pair, monkeypatch):
        # rate * delta >= 1 is the step law's "always collides": every gap is
        # one step, and one step of step_ensemble collides every path
        p = np.linspace(-3.0, 3.0, 101)
        delta = 1.0 / float(tr.collision_rate(0.0, gas, pair))   # the rate is least at 0
        np.testing.assert_array_equal(
            tr._gaps(tr._step_probability(p, gas, pair, delta), 10, np.random.default_rng(0)), 1)
        rounds = _Rounds(monkeypatch, delta)
        tr.step_ensemble(np.zeros_like(p), p.copy(), gas, pair, delta, np.random.default_rng(0))
        (hit, *_), = rounds.by_step(1)
        np.testing.assert_array_equal(hit, np.arange(p.size))

    def test_zero_rate_draws_nothing(self, gas, pair, monkeypatch):
        # rng.geometric raises ValueError at q = 0: a path that cannot collide
        # takes the cap without a draw
        monkeypatch.setattr(tr, "collision_rate", lambda p, gas, pair: np.zeros(np.shape(p)))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        np.testing.assert_array_equal(
            tr._gaps(tr._step_probability(np.linspace(-1.0, 1.0, 5), gas, pair, 0.5), 41, rng), 41)
        assert rng.bit_generator.state == state

    @STRAINED_DELTA
    def test_tiny_rate_gaps_are_capped(self, pair, monkeypatch):
        # at n_g = 1e-300, q ~ 5e-302 and rng.geometric returns 2^63 - 1, so
        # k + gap would wrap negative and fake collisions: the rows must be
        # those of free flight exactly
        gas = ThermalGasSpec(temperature=1.0, number_density=1e-300, gas_mass=pair.gas_mass,
                             packet_width=pair.gas_width)
        p = np.random.default_rng(1).normal(0.0, 1.0, 500)
        q = tr.collision_rate(p, gas, pair) * 0.5
        assert np.all(np.random.default_rng(2).geometric(q) == np.iinfo(np.int64).max)
        np.testing.assert_array_equal(
            tr._gaps(tr._step_probability(p, gas, pair, 0.5), 41, np.random.default_rng(2)), 41)
        monkeypatch.setattr(tr, "sample_collision_partner", _no_step)
        x = np.random.default_rng(3).normal(0.0, 2.0, 500)
        series = tr.run(x, p, gas, pair, 20.0, 0.5, seed=4)
        free = tr._LabelSums(x, p)
        assert len(series) == 41
        for step, s in enumerate(series):
            assert s == _per_row_stats(free, step * 0.5, free.initial, pair), step

    def test_infinite_momentum_raises_named_error(self, gas, pair):
        # an infinite rate takes q = 1, and against an infinite kink every
        # finite candidate passes (inf <= inf), which would give x = NaN
        p = np.array([0.0, np.inf, 1.0])
        with pytest.raises(PartnerNotConverged):
            tr.step_ensemble(np.zeros(3), p, gas, pair, 0.5, np.random.default_rng(0))

    @STRAINED_DELTA
    def test_nan_momentum_raises_named_error(self, gas, pair):
        # a NaN rate takes q = 1, so the path collides and its partner draw
        # raises, not rng.geometric's ValueError
        p = np.array([0.0, np.nan, 1.0])
        with pytest.raises(PartnerNotConverged):
            tr.step_ensemble(np.zeros(3), p, gas, pair, 0.5, np.random.default_rng(0))
        with pytest.raises(PartnerNotConverged):
            tr.run(np.zeros(3), p, gas, pair, 1.0, 0.5, seed=0)

    @STRAINED_DELTA
    def test_rounds_count_collisions_not_steps(self, gas, pair, monkeypatch):
        # work as a count: 10^6 collision-free steps take one gap draw per
        # pool of paths and no round; with collisions, one pool takes as many
        # rounds as its most colliding path has collisions, not one per step
        empty = ThermalGasSpec(temperature=1.0, number_density=1e-300,
                               gas_mass=pair.gas_mass, packet_width=pair.gas_width)
        calls, gaps = [], tr._gaps
        monkeypatch.setattr(tr, "_gaps", lambda q, *a: calls.append(q.size) or gaps(q, *a))
        monkeypatch.setattr(tr, "sample_collision_partner", _no_step)
        rounds = _Rounds(monkeypatch, 1.0)
        ts, msd = tr.excess_position_msd(tr._BLOCK + 1, empty, pair, 1.0, 1e6, seed=0)
        assert msd.size == 10**6 + 1 and not msd.any()
        assert calls == [tr._BLOCK, 1] and len(rounds.rounds) == 1
        monkeypatch.undo()
        rounds = _Rounds(monkeypatch, 0.5)
        tr.excess_position_msd(100, gas, pair, 0.5, 5000.0, seed=0)
        per_path = np.bincount(np.concatenate([r[0] for r in rounds.rounds]), minlength=100)
        assert len(rounds.rounds) - 1 == per_path.max() and per_path.sum() > 10**4


    @STRAINED_DELTA
    def test_rate_evaluations_take_at_most_a_block(self, gas, pair, monkeypatch):
        # the paths not yet in the pool have their rates evaluated a block at
        # a time, each round's hits once; no evaluation exceeds _BLOCK paths
        sizes, rate = [], tr.collision_rate
        monkeypatch.setattr(tr, "collision_rate",
                            lambda p, *a: sizes.append(np.size(p)) or rate(p, *a))
        n = 2 * tr._BLOCK + 100
        p = np.random.default_rng(0).normal(0.0, 1.0, n)
        tr.run(np.zeros(n), p, gas, pair, 20.0, 0.5, seed=0)
        assert max(sizes) == tr._BLOCK and sum(sizes) > n


class TestThinnedDraw:
    # the oracle's thinning against the unthinned per-step draw
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    @pytest.mark.parametrize("n", [1, 5000])
    @pytest.mark.parametrize("window", [1.0, 0.0])
    def test_matches_full_rate_draw(self, alpha, n, window):
        # thermal momenta plus one path at 6 thermal momenta, whose rate sets
        # the bound: rate * delta = 0.09 there, far above most paths' own
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        for seed in range(4):
            p = np.random.default_rng(100 + seed).normal(0.0, thermal, n)
            p[-1] = (-1) ** seed * 6 * thermal
            delta = 0.09 / float(tr.collision_rate(p[-1], gas, pair))
            rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mask, *ref = _full_rate_draw(p, gas, pair, delta, rng_ref, window)
            hit, *got = _step_draw(p, gas, pair, delta, rng, window)
            np.testing.assert_array_equal(hit, np.flatnonzero(mask))
            for name, a, b in zip(("tau", "eta", "p_g"), got, ref):
                assert a.tobytes() == b.tobytes(), name
            assert rng.random() == rng_ref.random()   # the same draws were taken

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_uniforms_at_the_rate_decide_alike(self, alpha):
        # each path's uniform sits at its own rate * delta (no hit) or one ulp
        # below it (a hit), the fast path's too, wherever the bound puts it
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(8).normal(0.0, thermal, 2001)
        for far in (6 * thermal, -6 * thermal):
            p[-1] = far
            delta = 0.09 / float(tr.collision_rate(far, gas, pair))
            bar = tr.collision_rate(p, gas, pair) * delta
            u = np.where(np.arange(p.size) % 2 == 0, np.nextafter(bar, 0.0), bar)
            mask, *_ = _full_rate_draw(p, gas, pair, delta, _FixedUniforms(u, 9))
            hit, *_ = _step_draw(p, gas, pair, delta, _FixedUniforms(u, 9))
            np.testing.assert_array_equal(hit, np.arange(0, p.size, 2))
            np.testing.assert_array_equal(hit, np.flatnonzero(mask))

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_rate_even_and_nondecreasing_in_p(self, alpha):
        pair, gas = _pair_and_gas(alpha)
        p = np.linspace(0.0, 60.0, 200001)
        rate = tr.collision_rate(p, gas, pair)
        np.testing.assert_array_equal(tr.collision_rate(-p, gas, pair), rate)
        assert np.all(np.diff(rate) >= 0.0)

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_sampler_normaliser_is_the_rate(self, alpha):
        # the partner law's total flux mass G_b(b) + G_-b(-b), in gas velocity
        # units, times n_g sqrt(kT/m_g), against the rate's erf closed form;
        # G_b(b) = b Phi(b) + phi(b) is the mass of |z - b| phi(z) below z = b
        def below_kink(b):
            return b * ndtr(b) + np.exp(-0.5 * b * b) / np.sqrt(2 * np.pi)

        pair, gas = _pair_and_gas(alpha)
        su = np.sqrt(gas.kT / gas.gas_mass)
        p = np.sqrt(pair.brownian_mass * gas.kT) * np.linspace(-40.0, 40.0, 8001)
        b = p / pair.brownian_mass / su
        total = below_kink(b) + below_kink(-b)
        np.testing.assert_allclose(gas.number_density * su * total,
                                   tr.collision_rate(p, gas, pair), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("alpha", [0.02, 1.0])
    def test_one_fast_path_does_not_stop_a_step(self, alpha):
        # rate * delta = 0.2 at one path: step_ensemble checks no step size
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(5).normal(0.0, thermal, 1000)
        p[123] = -8 * thermal
        delta = 0.2 / float(tr.collision_rate(p[123], gas, pair))
        x, p_next = tr.step_ensemble(np.zeros_like(p), p.copy(), gas, pair, delta,
                                     np.random.default_rng(6))
        assert np.all(np.isfinite(x)) and not np.array_equal(p_next, p)


def _no_step(*args):
    raise AssertionError("a step was taken")


@STRAINED_DELTA
class TestStepCheck:
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_thermal_law_rate_checked_before_any_step(self, alpha, monkeypatch):
        # the thermal-law rate as the thermal mean of the rate, by quadrature
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        rate = integrate.quad(
            lambda p: float(tr.collision_rate(p, gas, pair)) * stats.norm.pdf(p, 0, thermal),
            -12 * thermal, 12 * thermal, epsabs=0, epsrel=1e-12)[0]
        edge = 0.1 / rate
        p0 = np.zeros(50)   # rate(0) lies below the thermal-law rate
        tr.run(p0, p0, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), seed=1)
        tr.excess_position_msd(50, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), 1)
        monkeypatch.setattr(tr, "_collisions", _no_step)
        monkeypatch.setattr(tr, "_collide", _no_step)
        with pytest.raises(StepTooLarge, match="thermal-law"):
            tr.run(p0, p0, gas, pair, 10 * edge, edge * (1 + 1e-6), seed=1)
        with pytest.raises(StepTooLarge, match="thermal-law"):
            tr.excess_position_msd(50, gas, pair, edge * (1 + 1e-6), 10 * edge, 1)

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_initial_label_rate_checked_before_any_step(self, alpha, monkeypatch):
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(5).normal(0.0, thermal, 1000)
        p[123] = -8 * thermal
        edge = 0.1 / float(tr.collision_rate(p[123], gas, pair))
        x = np.zeros_like(p)
        tr.run(x, p, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), seed=6)
        monkeypatch.setattr(tr, "_collisions", _no_step)
        monkeypatch.setattr(tr, "_collide", _no_step)
        with pytest.raises(StepTooLarge, match="initial-label"):
            tr.run(x, p, gas, pair, 10 * edge, edge * (1 + 1e-6), seed=6)
        # without the fast path the same step is well inside both bounds
        monkeypatch.undo()
        tr.run(x[:123], p[:123], gas, pair, edge * (1 + 1e-6), edge * (1 + 1e-6), seed=6)

    def test_gas_of_another_mass_raises(self, gas, pair):
        # partners drawn at the gas's mass 3.0 and mapped at the pair's 0.3
        # settled near <p^2> = 3.5, where the pair's own gas settles near 1.15
        heavy = dataclasses.replace(gas, gas_mass=10 * pair.gas_mass)
        p = np.zeros(10)
        with pytest.raises(ValueError, match="gas mass"):
            tr.run(p, p, heavy, pair, 1.0, 0.5, seed=0)
        with pytest.raises(ValueError, match="gas mass"):
            tr.excess_position_msd(10, heavy, pair, 0.5, 1.0, 0)
        with pytest.raises(ValueError, match="gas mass"):
            tr._check_regime(heavy, pair, 0.5)

    def test_warning_comes_before_the_step_check(self, gas, pair):
        # delta below 3 typical collision times and rate * delta above 0.1:
        # both are reported, the warning first
        dense = dataclasses.replace(gas, number_density=10.0)
        with pytest.warns(tr.ValidityWarning, match="typical collision time"):
            with pytest.raises(StepTooLarge, match="thermal-law"):
                tr._check_regime(dense, pair, 1.0)

    def test_negative_flight_window_raises(self, gas, pair):
        p = np.zeros(10)
        with pytest.raises(ValueError, match="gas_flight_window"):
            next(tr._collisions(p, gas, pair, 0.5, 2, np.random.default_rng(0), -0.5))
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.step_ensemble(p, p, gas, pair, 0.5, np.random.default_rng(0), -0.5)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.run(p, p, gas, pair, 1.0, 0.5, seed=0, gas_flight_window=-0.5)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.excess_position_msd(10, gas, pair, 0.5, 1.0, 0, gas_flight_window=-0.5)


class TestRegime:
    def test_ldht_proportional_to_density(self, pair):
        def ldht(n_g):
            gas = ThermalGasSpec(temperature=1.0, number_density=n_g, gas_mass=pair.gas_mass,
                                 packet_width=pair.gas_width)
            return tr.regime(gas, pair, 10.0)["ldht_number"]

        assert ldht(1e-9) < 1e-8
        assert ldht(0.02) == pytest.approx(2 * ldht(0.01), rel=1e-12)

    def test_warns_below_three_typical_collision_times(self, pair):
        gas = ThermalGasSpec(temperature=1.0, number_density=1e-3, gas_mass=pair.gas_mass,
                             packet_width=pair.gas_width)
        report = tr.regime(gas, pair, 1.0)
        t_typ = report["typical_collision_time"]
        assert report["coarse_graining_ratio"] == t_typ
        with warnings.catch_warnings():
            warnings.simplefilter("error", tr.ValidityWarning)
            tr._check_regime(gas, pair, 3 * t_typ)
        with pytest.warns(tr.ValidityWarning, match="typical collision time"):
            tr._check_regime(gas, pair, 3 * t_typ * (1 - 1e-9))
