import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from qbm1d import channel as ch
from qbm1d.errors import (EmptyRegion, EqualMassSingularity, GridTooCoarse,
                          GridTooSmall, NegativeEigenvalueBeyondTolerance)
from qbm1d.packets import CollisionPair, classical_collision_map, overlap
from qbm1d.thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed


@pytest.fixture(scope="module")
def pair():
    return CollisionPair.matched(1.0, 0.3, 1.0)


@pytest.fixture(scope="module")
def grid():
    return ch.SpatialGrid(n=256, length=24.0)


@pytest.fixture(scope="module")
def effect0(pair, grid):
    return ch.build_effect_operator(pair, 0.0, 0.0, grid)


@pytest.fixture(scope="module")
def sqrt_effect0(effect0):
    return ch.operator_sqrt(effect0)


class TestSmearingWeight:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.9])
    def test_normalization_by_quadrature(self, alpha):
        pr = CollisionPair.matched(1.0, alpha, 1.0)
        wx, wp = ch.smearing_widths(pr)
        val, err = integrate.dblquad(
            lambda p, x: ch.smearing_weight(pr, x, p),
            -8 * wx, 8 * wx, lambda x: -8 * wp, lambda x: 8 * wp,
            epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_peak_value(self, pair):
        a, hb = pair.alpha, pair.hbar
        expected = 2 * a / (np.pi * hb * (1 - a) ** 2)
        assert ch.smearing_weight(pair, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_width_vanishes_at_equal_mass(self):
        for alpha in (0.9, 0.99, 0.999):
            pr = CollisionPair.matched(1.0, alpha, 1.0)
            wx, wp = ch.smearing_widths(pr)
            assert wx < (1 - alpha) and wp < (1 - alpha)

    def test_equal_mass_raises(self):
        pr = CollisionPair.matched(1.0, 1.0, 1.0)
        with pytest.raises(EqualMassSingularity):
            ch.smearing_weight(pr, 0.0, 0.0)


class TestGridPacket:
    def test_mass_off_grid_raises(self, pair, grid):
        # (-9, -3) on [-12, 12) leaves 8.1e-6 of its mass off the grid,
        # above the 1e-6 gate; the grid's extent, not its spacing, is at fault
        with pytest.raises(GridTooSmall):
            ch.grid_packet(grid, pair.brownian_packet(-9.0, -3.0))

    def test_columns_match_single_packets(self, pair, grid):
        xs = np.array([-6.0, -0.4, 0.0, 2.5, 7.9])
        ps = np.array([1.3, -2.2, 0.0, 0.7, -4.0])
        cols = ch.grid_packets(grid, pair.brownian_width, pair.hbar, xs, ps)
        assert cols.shape == (grid.n, xs.size)
        for j, (x, p) in enumerate(zip(xs, ps)):
            packet = pair.brownian_packet(x, p)
            np.testing.assert_allclose(cols[:, j], ch.grid_packet(grid, packet),
                                       rtol=0, atol=1e-15)
            # the sampled amplitude route, independent of the kernel
            amp = packet.amplitude(grid.x)
            np.testing.assert_allclose(cols[:, j], amp / np.linalg.norm(amp),
                                       rtol=0, atol=1e-15)

    def test_off_grid_column_raises(self, pair, grid):
        # one bad centre in a batch fails the whole batch, naming its mass
        amp = pair.brownian_packet(-9.0, -3.0).amplitude(grid.x)
        mass = float(np.sum(np.abs(amp) ** 2) * grid.dx)
        assert 1 - mass > 1e-6
        with pytest.raises(GridTooSmall, match=f"{mass:.8f}"):
            ch.grid_packets(grid, pair.brownian_width, pair.hbar,
                            [0.0, -9.0, 3.0], [0.0, -3.0, 1.0])


class TestDisplacement:
    def test_creates_coherent_state(self, pair, grid):
        v0 = ch.grid_packet(grid, pair.brownian_packet(0.0, 0.0))
        va = ch.displace_vector(grid, v0, 1.7, -0.9, pair.hbar)
        target = ch.grid_packet(grid, pair.brownian_packet(1.7, -0.9))
        assert abs(np.vdot(target, va)) == pytest.approx(1.0, abs=1e-12)
        # including the symmetric phase convention, not just up to phase
        assert np.vdot(target, va) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_kraus_shift_moments(self, pair, grid):
        # displacement moves a grid Gaussian by the collision map's shift
        x_t, p_t = 0.4, -0.3
        gas_state = (-2.0, 1.5)
        da, db = ch.kraus_displacement(pair, gas_state, x_t, p_t)
        a = pair.alpha
        assert da == pytest.approx(2 * a / (1 + a) * (gas_state[0] - x_t))
        assert db == pytest.approx(2 / (1 + a) * (gas_state[1] - a * p_t))
        v = ch.grid_packet(grid, pair.brownian_packet(x_t, p_t))
        vd = ch.displace_vector(grid, v, da, db, pair.hbar)
        dens = np.abs(vd) ** 2
        mean_x = float(np.sum(grid.x * dens))
        k_density = np.abs(np.fft.fft(vd)) ** 2
        k_density /= k_density.sum()
        mean_p = float(pair.hbar * np.sum(grid.k * k_density))
        assert mean_x == pytest.approx(x_t + da, abs=1e-9)
        assert mean_p == pytest.approx(p_t + db, abs=1e-9)


class TestEffectOperator:
    def test_positive_semidefinite(self, effect0):
        lo, hi = effect0.eigenvalue_range()
        assert lo >= -1e-8
        assert hi <= 1.0 + 1e-3

    def test_hermitian(self, effect0):
        assert np.max(np.abs(effect0.matrix - effect0.matrix.conj().T)) < 1e-12

    def test_diagonal_expectation_vs_quadrature(self, pair, grid):
        # <xt,pt| effect |xt,pt> equals the w-weighted coherent overlap
        x_t, p_t = 0.6, 0.8
        eff = ch.build_effect_operator(pair, x_t, p_t, grid)
        v = ch.grid_packet(grid, pair.brownian_packet(x_t, p_t))
        lhs = eff.expectation(v)
        wx, wp = ch.smearing_widths(pair)
        probe = pair.brownian_packet(x_t, p_t)

        def integrand(p, x):
            shifted = pair.brownian_packet(x_t + x, p_t + p)
            return (ch.smearing_weight(pair, x, p)
                    * abs(overlap(probe, shifted)) ** 2 / (2 * np.pi * pair.hbar))

        rhs, _ = integrate.dblquad(integrand, -8 * wx, 8 * wx,
                                   lambda x: -8 * wp, lambda x: 8 * wp,
                                   epsabs=1e-10)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_completeness_on_interior(self, pair, grid):
        assert ch.completeness_residual(pair, grid) <= 1e-3

    def test_grid_resolution_guard(self, pair):
        with pytest.raises(GridTooCoarse):
            ch.build_effect_operator(pair, 0.0, 0.0, ch.SpatialGrid(64, 24.0))

    def test_equal_mass_branch_is_projector(self, grid):
        # the weight is a point mass: C = |x_t, p_t><x_t, p_t| / (2 pi hbar)
        pr = CollisionPair.matched(1.0, 1.0, 1.0)
        eff = ch.build_effect_operator(pr, 0.5, -0.2, grid)
        v = ch.grid_packet(grid, pr.brownian_packet(0.5, -0.2))
        np.testing.assert_allclose(eff.matrix, np.outer(v, v.conj()) / (2 * np.pi * pr.hbar),
                                   atol=1e-12)

    def test_continuous_at_equal_mass(self, grid):
        near, at = (ch.build_effect_operator(CollisionPair.matched(1.0, a, 1.0),
                                             0.5, -0.2, grid).matrix
                    for a in (1.0 - 1e-4, 1.0))
        assert np.max(np.abs(near - at)) <= 1e-6 * np.max(np.abs(at))

    def test_trace_is_one_over_two_pi_hbar(self, grid):
        for alpha in (0.3, 1.0, 3.0):
            pr = CollisionPair.matched(1.0, alpha, 1.0, hbar=0.7)
            eff = ch.build_effect_operator(pr, 0.4, -0.3, grid)
            assert eff.trace() == pytest.approx(1 / (2 * np.pi * pr.hbar), rel=1e-12)

    def test_mesh_argument_has_no_effect(self, pair, grid, effect0):
        eff = ch.build_effect_operator(pair, 0.0, 0.0, grid, ch.PhaseSpaceMesh(3.0, 4.5))
        np.testing.assert_array_equal(eff.matrix, effect0.matrix)

    def test_mass_off_grid_raises(self, pair, grid):
        # the mixture's position density has std sqrt(sigma^2/2 + w_x^2) = 0.95
        # here, so a centre 2 from the edge of [-12, 12) loses ~2e-2 of its mass
        with pytest.raises(GridTooSmall):
            ch.build_effect_operator(pair, 10.0, 0.0, grid)
        ch.build_effect_operator(pair, 6.0, 0.0, grid)

    def test_momentum_cutoff_guard(self, pair, grid):
        # the packets the weight reaches, 4.5 w_p beyond p_t and 6 packet
        # momentum widths wide, must stay below 0.9 of the cutoff
        _, wp = ch.smearing_widths(pair)
        edge = (0.9 * grid.momentum_cutoff(pair.hbar) - 4.5 * wp
                - 6 * pair.hbar / pair.brownian_width)
        ch.build_effect_operator(pair, 0.0, edge - 0.1, grid)
        with pytest.raises(GridTooCoarse):
            ch.build_effect_operator(pair, 0.0, edge + 0.1, grid)


def _mesh_effect_operator(pair, x_t, p_t, grid, points_per_std, span_std):
    """Reference route for build_effect_operator: the w-weighted sum of
    coherent projectors on a uniform phase-space mesh of ``points_per_std``
    nodes per smearing std out to ``span_std`` stds, one x row at a time."""
    wx, wp = ch.smearing_widths(pair)
    nx = max(3, int(np.ceil(2 * span_std * points_per_std)) | 1)
    xs = np.linspace(-span_std * wx, span_std * wx, nx)
    ps = np.linspace(-span_std * wp, span_std * wp, nx)
    area = (xs[1] - xs[0]) * (ps[1] - ps[0]) / (2 * np.pi * pair.hbar)
    mat = np.zeros((grid.n, grid.n), dtype=complex)
    for x in xs:
        cols = ch.grid_packets(grid, pair.brownian_width, pair.hbar, x_t + x, p_t + ps)
        mat += (cols * (area * ch.smearing_weight(pair, x, ps))) @ cols.conj().T
    return mat


class TestEffectOperatorAgainstMeshSum:
    """The closed form against the phase-space mesh sum, which must converge
    to it as the mesh is refined (nodes per std, half-span in stds)."""

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 3.0])
    @pytest.mark.parametrize("points_per_std,span_std,tol", [
        (6.0, 4.5, 2e-5), (6.0, 6.0, 5e-9), (8.0, 7.0, 1e-11), (10.0, 8.0, 1e-13),
    ])
    def test_mesh_sum_converges(self, grid, alpha, points_per_std, span_std, tol):
        pr = CollisionPair.matched(1.0, alpha, 1.0)
        closed = ch.build_effect_operator(pr, 0.4, -0.3, grid).matrix
        mesh = _mesh_effect_operator(pr, 0.4, -0.3, grid, points_per_std, span_std)
        assert np.max(np.abs(mesh - closed)) <= tol * np.max(np.abs(closed))


class TestKraus:
    def test_ktk_equals_effect(self, pair, grid, effect0, sqrt_effect0):
        K = ch.build_kraus(pair, (-2.0, 1.5), 0.0, 0.0, grid,
                           sqrt_effect_center=sqrt_effect0.matrix)
        ktk = K.matrix.conj().T @ K.matrix
        assert np.max(np.abs(ktk - effect0.matrix)) < 1e-8

    def test_ktk_displaced(self, pair, grid, sqrt_effect0):
        x_t, p_t = 0.8, -0.6
        K = ch.build_kraus(pair, (-2.0, 1.5), x_t, p_t, grid,
                           sqrt_effect_center=sqrt_effect0.matrix)
        eff = ch.build_effect_operator(pair, x_t, p_t, grid)
        ktk = K.matrix.conj().T @ K.matrix
        assert np.max(np.abs(ktk - eff.matrix)) < 1e-6

    def test_negative_eigenvalue_guard(self, grid):
        mat = -1e-3 * np.eye(grid.n)
        with pytest.raises(NegativeEigenvalueBeyondTolerance):
            ch.operator_sqrt(ch.OperatorGrid(mat, grid))


class TestChannel:
    @pytest.fixture(scope="class")
    def channel_output(self, pair, grid):
        psi = ch.grid_packet(grid, pair.brownian_packet(1.0, 0.5))
        rho = ch.OperatorGrid(np.outer(psi, psi.conj()), grid)
        out = ch.apply_collision_channel(rho, pair, (-2.0, 1.5), t=0.8)
        return rho, out

    def test_trace_preserved(self, channel_output):
        rho, out = channel_output
        assert out.trace() == pytest.approx(rho.trace(), abs=1e-3)

    def test_trace_preserved_at_equal_mass(self, grid):
        pr = CollisionPair.matched(1.0, 1.0, 1.0)
        psi = ch.grid_packet(grid, pr.brownian_packet(1.0, 0.5))
        rho = ch.OperatorGrid(np.outer(psi, psi.conj()), grid)
        out = ch.apply_collision_channel(rho, pr, (-2.0, 1.5), t=0.5)
        assert out.trace() == pytest.approx(1.0, abs=1e-3)

    def test_output_positive(self, channel_output):
        _, out = channel_output
        lo, _ = out.eigenvalue_range()
        assert lo >= -1e-6

    def test_pointer_fidelity(self, pair, grid, channel_output):
        # the collision maps the matched Gaussian onto the classically
        # collided, freely evolving Gaussian
        _, out = channel_output
        _, _, x_o, p_o = classical_collision_map(pair, -2.0, 1.5, 1.0, 0.5)
        tgt = ch.grid_packet(grid, pair.brownian_packet(x_o, p_o))
        tgt = ch.free_evolve_vector(grid, tgt, pair.brownian_mass, 0.8, pair.hbar)
        fid = out.expectation(tgt) / out.trace()
        assert fid >= 0.95
        assert fid == pytest.approx(1.0, abs=1e-3)


def _per_node_channel(rho, pair, gas_state, t, pointer_mesh):
    """Reference route for apply_collision_channel: for every pointer node
    and kept eigenvector, three displace_vector calls and one product with
    sqrt(C); the columns' Gram matrix is then evolved by the matrix U(t)."""
    grid, hb = rho.grid, pair.hbar
    xts, pts = ch._pointer_nodes(rho, pair, pointer_mesh)
    ev, U = np.linalg.eigh(0.5 * (rho.matrix + rho.matrix.conj().T))
    keep = ev > max(1e-12, 1e-12 * ev[-1])
    vecs = U[:, keep] * np.sqrt(ev[keep])
    sqrt_c = ch.operator_sqrt(ch.build_effect_operator(pair, 0.0, 0.0, grid)).matrix
    area = (xts[1] - xts[0]) * (pts[1] - pts[0])
    cols = []
    for x_t in xts:
        for p_t in pts:
            da, db = ch.kraus_displacement(pair, gas_state, x_t, p_t)
            for v in vecs.T:
                v = ch.displace_vector(grid, v, -x_t, -p_t, hb)
                v = sqrt_c @ v
                v = ch.displace_vector(grid, v, x_t, p_t, hb)
                v = ch.displace_vector(grid, v, da, db, hb)
                cols.append(v * np.sqrt(area))
    C = np.array(cols).T
    U_t = ch.free_evolve_vector(grid, np.eye(grid.n), pair.brownian_mass, t, hb).T
    out = U_t @ (C @ C.conj().T) @ U_t.conj().T
    return 0.5 * (out + out.conj().T)


class TestChannelAgainstPerNodeLoop:
    """The row-batched channel against the per-node loop, on the channel
    benchmark's small inputs: a pure state and a rank-3 mixture."""

    GAS = (-2.0, 1.5)
    MESH = ch.PhaseSpaceMesh(3.0, 4.5)

    @pytest.fixture(scope="class")
    def small_grid(self):
        return ch.SpatialGrid(n=128, length=16.0)

    @staticmethod
    def mixture(pair, grid, parts):
        mat = np.zeros((grid.n, grid.n), dtype=complex)
        for w, x, p in parts:
            v = ch.grid_packet(grid, pair.brownian_packet(x, p))
            mat += w * np.outer(v, v.conj())
        return ch.OperatorGrid(mat, grid)

    @pytest.mark.parametrize("parts", [
        [(1.0, 1.0, 0.5)],
        [(0.5, 1.0, 0.5), (0.3, 0.6, 0.2), (0.2, 1.4, 0.8)],
    ], ids=["pure", "rank3"])
    def test_matches_loop(self, pair, small_grid, parts):
        rho = self.mixture(pair, small_grid, parts)
        ev = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(ev > 1e-12) == len(parts)
        got = ch.apply_collision_channel(rho, pair, self.GAS, 0.5, mesh=self.MESH,
                                         pointer_mesh=self.MESH)
        ref = _per_node_channel(rho, pair, self.GAS, 0.5, self.MESH)
        np.testing.assert_allclose(got.matrix, ref, rtol=0, atol=1e-12)
        assert got.trace() == pytest.approx(rho.trace(), abs=1e-3)


class TestProjection:
    @pytest.fixture(scope="class")
    def region(self, pair):
        return ch.PhaseSpaceRegion(x_g=-2.0, p_g=1.2, delta=4.0,
                                   brownian_mass=pair.brownian_mass,
                                   gas_mass=pair.gas_mass)

    @pytest.fixture(scope="class")
    def gamma(self, region, pair, grid):
        return ch.build_projection(region, pair, grid)

    def test_membership_predicate(self, region):
        # gas at -2 moving right at v_g = 4; brownian at rest at 0 collides
        # after tau = 0.5 < delta
        assert region.contains(0.0, 0.0)
        assert not region.contains(-3.0, 0.0)      # behind the gas packet
        assert not region.contains(30.0, 0.0)      # too far to reach in delta
        assert not region.contains(0.0, region.p_g * region.brownian_mass
                                   / region.gas_mass)  # co-moving: empty

    def test_eigenvalue_window(self, gamma):
        lo, hi = gamma.eigenvalue_range()
        assert lo >= -1e-8
        assert hi <= 1.0 + 1e-3

    @staticmethod
    def husimi_mass(region, pair, x0, p0):
        """Husimi mass of the coherent state (x0, p0) inside the region.

        The Husimi density is Gaussian with standard deviations sigma in x
        and hbar/sigma in p; at fixed p the region is the x-interval between
        x_g and x_g + delta v_rel(p), so its x-mass is a normal-CDF difference.
        """
        sig, hb = pair.brownian_width, pair.hbar
        sp = hb / sig

        def integrand(p):
            reach = region.delta * region.relative_velocity(p)
            x_mass = abs(ndtr((region.x_g + reach - x0) / sig)
                         - ndtr((region.x_g - x0) / sig))
            return x_mass * np.exp(-((p - p0) / sp) ** 2 / 2) / (np.sqrt(2 * np.pi) * sp)

        p_stop = region.p_g * region.brownian_mass / region.gas_mass  # v_rel = 0
        lo, _ = integrate.quad(integrand, -np.inf, p_stop, epsabs=1e-13)
        hi, _ = integrate.quad(integrand, p_stop, np.inf, epsabs=1e-13)
        return lo + hi

    def test_far_outside_state(self, pair, grid, gamma, region):
        # behind the gas packet, 6 sigma from the region; (-9, -3) would not
        # fit on the grid (see TestGridPacket)
        v = ch.grid_packet(grid, pair.brownian_packet(-8.0, -3.0))
        assert self.husimi_mass(region, pair, -8.0, -3.0) < 1e-9
        assert gamma.expectation(v) < 1e-8

    def test_deep_inside_state(self, pair, grid, gamma, region):
        # (3, 0) lies only 2.67 Husimi standard deviations from the slanted
        # edge x + 4 p = 14 (tau = delta), so even an exact Gamma gives 0.99618
        v = ch.grid_packet(grid, pair.brownian_packet(3.0, 0.0))
        expected = self.husimi_mass(region, pair, 3.0, 0.0)
        assert expected == pytest.approx(0.996183, abs=1e-6)
        assert gamma.expectation(v) == pytest.approx(expected, abs=1e-3)

    def test_idempotency_deviation_reported(self, pair, grid, gamma):
        # approximate projection: report how far Gamma^2 falls from Gamma on
        # a deep-inside state (a transition-layer effect, not asserted small)
        v = ch.grid_packet(grid, pair.brownian_packet(3.0, 0.0))
        g1 = gamma.expectation(v)
        g2 = float(np.real(np.vdot(v, gamma.matrix @ (gamma.matrix @ v))))
        deviation = abs(g2 - g1)
        assert 0.0 <= deviation < 0.1
        print(f"projection idempotency deviation on deep state: {deviation:.3e}")

    def test_empty_region_raises(self, pair, grid):
        region = ch.PhaseSpaceRegion(x_g=500.0, p_g=1.0, delta=1e-6,
                                     brownian_mass=1.0, gas_mass=0.3)
        with pytest.raises(EmptyRegion):
            ch.build_projection(region, pair, grid)


class TestCollisionProbability:
    @pytest.fixture(scope="class")
    def gas(self, pair):
        # wide packets so the label temperature is indistinguishable from T
        return ThermalGasSpec(temperature=4.0, number_density=0.05,
                              gas_mass=pair.gas_mass, packet_width=50.0)

    def test_total_probability_against_flux(self, pair, gas):
        # localized state: total collision probability = n_g delta E|v_rel|
        grid = ch.SpatialGrid(n=320, length=36.0)
        pr = CollisionPair.matched(1.0, 0.3, 3.0)
        delta = 0.05
        rate_op = ch.aggregate_rate_operator(pr, gas, grid)
        p0 = 0.8
        v = ch.grid_packet(grid, pr.brownian_packet(0.0, p0))
        got = delta * rate_op.expectation(v)
        expected = gas.number_density * delta * float(
            mean_relative_speed(gas, p0, pr.brownian_mass,
                                temperature=adjusted_temperature(gas)))
        assert got == pytest.approx(expected, rel=2e-2)

    def test_rest_rate_closed_form(self, pair, gas):
        # at p = 0 the thermal rate reduces to n_g sqrt(2 kT / (pi m_g))
        grid = ch.SpatialGrid(n=320, length=36.0)
        pr = CollisionPair.matched(1.0, 0.3, 3.0)
        rate_op = ch.aggregate_rate_operator(pr, gas, grid)
        v = ch.grid_packet(grid, pr.brownian_packet(0.0, 0.0))
        rate = rate_op.expectation(v)
        expected = gas.number_density * np.sqrt(2 * gas.kT / (np.pi * gas.gas_mass))
        assert rate == pytest.approx(expected, rel=1e-2)

    def test_rate_independent_of_position(self, gas):
        # R integrates positions over the whole period, so no window of the
        # grid singles out where a packet may sit
        grid = ch.SpatialGrid(n=320, length=36.0)
        pr = CollisionPair.matched(1.0, 0.3, 3.0)
        rate_op = ch.aggregate_rate_operator(pr, gas, grid)
        rates = [rate_op.expectation(ch.grid_packet(grid, pr.brownian_packet(x, 0.8)))
                 for x in (0.0, 6.0)]
        assert rates[1] == pytest.approx(rates[0], rel=1e-7)

    def test_rate_against_position_sum(self, pair, grid, gas):
        # the closed-form symbol against the coherent sum over a phase-space
        # mesh: 6 nodes per packet width, positions to 8.5 sigma beyond the
        # probe states on each side, momenta to 8 thermal momenta
        rate_op = ch.aggregate_rate_operator(pair, gas, grid)
        hb, sig, m = pair.hbar, pair.brownian_width, pair.brownian_mass
        step_x, step_p = sig / 6, hb / sig / 6
        p_half = 8 * max(hb / sig, np.sqrt(m * gas.kT))
        ps = np.arange(-p_half, p_half + step_p / 2, step_p)
        xs = np.arange(-8.5 * sig, 8.5 * sig + step_x / 2, step_x)
        flux = mean_relative_speed(gas, ps, m, temperature=adjusted_temperature(gas))
        probes = ch.grid_packets(grid, sig, hb, [0.0, 0.0, 0.3], [0.0, 0.8, -1.3])
        ref = np.zeros(probes.shape[1])
        for pv, fl in zip(ps, flux):
            cols = ch.grid_packets(grid, sig, hb, xs, pv)
            ref += fl * np.sum(abs(cols.conj().T @ probes) ** 2, axis=0)
        ref *= gas.number_density * step_x * step_p / (2 * np.pi * hb)
        for v, expected in zip(probes.T, ref):
            assert rate_op.expectation(v) == pytest.approx(expected, rel=1e-12)
