import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from qbm1d import channel as ch
from qbm1d.errors import (EmptyRegion, GridTooCoarse, GridTooSmall,
                          NegativeEigenvalueBeyondTolerance, QBM1DError)
from qbm1d.packets import CollisionPair, GaussianPacket, classical_collision_map, overlap
from qbm1d.thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed


class EqualMassSingularity(QBM1DError):
    """The smearing weight degenerates to a point mass at alpha = 1."""


def smearing_weight(pair, x, p):
    """Phase-space weight w(x, p) whose mixture of coherent projectors is the
    effect operator; its double integral is 1.  At alpha = 1 it is a point
    mass, where it raises; the closed-form effect operator needs no branch."""
    a, s, hb = pair.alpha, pair.brownian_width, pair.hbar
    if a == 1.0:
        raise EqualMassSingularity("w(x,p) is a point mass at alpha = 1")
    x = np.asarray(x)
    p = np.asarray(p)
    pref = 2 * a / (np.pi * hb * (1 - a) ** 2)
    return pref * np.exp(-2 * a / (1 - a) ** 2 * (x**2 / s**2 + s**2 * p**2 / hb**2))


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
            lambda p, x: smearing_weight(pr, x, p),
            -8 * wx, 8 * wx, lambda x: -8 * wp, lambda x: 8 * wp,
            epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_peak_value(self, pair):
        a, hb = pair.alpha, pair.hbar
        expected = 2 * a / (np.pi * hb * (1 - a) ** 2)
        assert smearing_weight(pair, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_width_vanishes_at_equal_mass(self):
        for alpha in (0.9, 0.99, 0.999):
            pr = CollisionPair.matched(1.0, alpha, 1.0)
            wx, wp = ch.smearing_widths(pr)
            assert wx < (1 - alpha) and wp < (1 - alpha)

    def test_equal_mass_raises(self):
        pr = CollisionPair.matched(1.0, 1.0, 1.0)
        with pytest.raises(EqualMassSingularity):
            smearing_weight(pr, 0.0, 0.0)


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
            return (smearing_weight(pair, x, p)
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
        mat += (cols * (area * smearing_weight(pair, x, ps))) @ cols.conj().T
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

    def test_matches_dense_displacements(self, pair, grid, sqrt_effect0):
        # K = D(da, db) D(x_t, p_t) sqrt(C_0) D(x_t, p_t)^dagger with every
        # displacement a dense matrix, column j the displaced basis vector e_j
        x_t, p_t, gas_state = 0.8, -0.6, (-2.0, 1.5)

        def dense(a, b):
            return ch.displace_vector(grid, np.eye(grid.n), a, b, pair.hbar).T

        da, db = ch.kraus_displacement(pair, gas_state, x_t, p_t)
        D = dense(x_t, p_t)
        ref = dense(da, db) @ D @ sqrt_effect0.matrix @ D.conj().T
        K = ch.build_kraus(pair, gas_state, x_t, p_t, grid,
                           sqrt_effect_center=sqrt_effect0.matrix)
        np.testing.assert_allclose(K.matrix, ref, rtol=0, atol=1e-14)

    def test_matches_dense_displacements_with_parity(self, grid):
        # alpha > 1: K = D(da, db) D(x_t, p_t) Pi sqrt(C_0) D(x_t, p_t)^dagger,
        # Pi the permutation x -> -x of the periodic grid
        pr = CollisionPair.matched(1.0, 3.0, 1.0)
        x_t, p_t, gas_state = 0.8, -0.6, (-2.0, 1.5)
        root = ch.operator_sqrt(ch.build_effect_operator(pr, 0.0, 0.0, grid)).matrix

        def dense(a, b):
            return ch.displace_vector(grid, np.eye(grid.n), a, b, pr.hbar).T

        parity = np.eye(grid.n)[-np.arange(grid.n) % grid.n]
        np.testing.assert_allclose((parity @ grid.x)[1:], -grid.x[1:], rtol=0, atol=1e-12)
        da, db = ch.kraus_displacement(pr, gas_state, x_t, p_t)
        D = dense(x_t, p_t)
        ref = dense(da, db) @ D @ parity @ root @ D.conj().T
        K = ch.build_kraus(pr, gas_state, x_t, p_t, grid)
        np.testing.assert_allclose(K.matrix, ref, rtol=0, atol=1e-14)
        ktk = K.matrix.conj().T @ K.matrix
        eff = ch.build_effect_operator(pr, x_t, p_t, grid)
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

    def test_pointer_mesh_bounded_near_equal_mass(self, grid):
        # the smearing widths vanish as alpha -> 1; stepped on them, the mesh
        # grew like 1/w^2, to about 1.2e10 nodes at alpha = 0.999
        pr = CollisionPair.matched(1.0, 0.999, 1.0)
        psi = ch.grid_packet(grid, pr.brownian_packet(1.0, 0.5))
        rho = ch.OperatorGrid(np.outer(psi, psi.conj()), grid)
        xts, pts = ch._pointer_nodes(rho, pr, ch.PhaseSpaceMesh(6.0, 4.5))
        assert xts.size * pts.size < 2e4
        out = ch.apply_collision_channel(rho, pr, (-2.0, 1.5), t=0.5)
        assert out.trace() == pytest.approx(1.0, abs=1e-3)
        _, _, x_o, p_o = classical_collision_map(pr, -2.0, 1.5, 1.0, 0.5)
        tgt = ch.grid_packet(grid, pr.brownian_packet(x_o, p_o))
        tgt = ch.free_evolve_vector(grid, tgt, pr.brownian_mass, 0.5, pr.hbar)
        assert 1 - out.expectation(tgt) / out.trace() <= 1e-10

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

    @pytest.mark.parametrize("alpha,loss", [(1.5, 1e-14), (3.0, 1e-10), (5.0, 5e-6)])
    def test_pointer_fidelity_heavy_gas(self, grid, alpha, loss):
        # c = (1 - alpha)/(1 + alpha) < 0: without the parity the output was a
        # Gaussian of variance 1/2 + 4 w^2, fidelity 0.857, 0.429 and 0.238
        pr = CollisionPair.matched(1.0, alpha, 1.0)
        psi = ch.grid_packet(grid, pr.brownian_packet(1.0, 0.5))
        rho = ch.OperatorGrid(np.outer(psi, psi.conj()), grid)
        out = ch.apply_collision_channel(rho, pr, (-2.0, 1.5), t=0.5)
        _, _, x_o, p_o = classical_collision_map(pr, -2.0, 1.5, 1.0, 0.5)
        tgt = ch.grid_packet(grid, pr.brownian_packet(x_o, p_o))
        tgt = ch.free_evolve_vector(grid, tgt, pr.brownian_mass, 0.5, pr.hbar)
        assert 1 - out.expectation(tgt) / out.trace() <= loss


def _grid_moments(rho: ch.OperatorGrid, hbar):
    """Means (x, p) and symmetric covariance of rho from the exact grid
    operators x and p = F^-1 hbar k F, normalized by the trace."""
    g = rho.grid
    X = np.diag(g.x)
    P = np.fft.ifft(hbar * g.k[:, None] * np.fft.fft(np.eye(g.n), axis=0), axis=0)
    tr = np.trace(rho.matrix).real

    def ev(op):
        return np.trace(rho.matrix @ op).real / tr

    mean = np.array([ev(X), ev(P)])
    cov = np.array([[ev(X @ X), ev(X @ P + P @ X) / 2],
                    [ev(X @ P + P @ X) / 2, ev(P @ P)]]) - np.outer(mean, mean)
    return mean, cov


class TestGaussianAttenuator:
    """The collision is a Gaussian attenuator: with c = (1 - alpha)/(1 + alpha),
    <x> -> c <x> + (1 - c) x_g, <p> -> c <p> + (1 + c) p_g and
    Sigma -> c^2 Sigma + (1 - c^2) diag(sigma^2/2, hbar^2/(2 sigma^2)), then U(t)
    maps Sigma -> S Sigma S^T with S = [[1, t/m], [0, 1]], for any input."""

    GAS, T = (-2.0, 1.5), 0.5

    @staticmethod
    def state(pair, grid, kind):
        if kind == "mixture":
            return _mixture(pair, grid, [(0.5, 1.0, 0.5), (0.3, 0.6, 0.1), (0.2, 1.4, 0.9)])
        width = {"squeezed": 0.6, "wide": 1.7}[kind] * pair.brownian_width
        psi = ch.grid_packet(grid, GaussianPacket(1.0, 0.5, width, pair.brownian_mass,
                                                  pair.hbar))
        return ch.OperatorGrid(np.outer(psi, psi.conj()), grid)

    @pytest.mark.parametrize("kind", ["squeezed", "wide", "mixture"])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 3.0])
    def test_moments(self, grid, alpha, kind):
        pr = CollisionPair.matched(1.0, alpha, 1.0)
        hb, sig, m = pr.hbar, pr.brownian_width, pr.brownian_mass
        rho = self.state(pr, grid, kind)
        mean, cov = _grid_moments(rho, hb)
        out_mean, out_cov = _grid_moments(
            ch.apply_collision_channel(rho, pr, self.GAS, self.T), hb)
        c = (1 - alpha) / (1 + alpha)
        S = np.array([[1.0, self.T / m], [0.0, 1.0]])
        want_mean = S @ (c * mean + np.array([1 - c, 1 + c]) * self.GAS)
        want_cov = S @ (c**2 * cov + (1 - c**2) * np.diag([sig**2 / 2, hb**2 / (2 * sig**2)])
                        ) @ S.T
        np.testing.assert_allclose(out_mean, want_mean, rtol=0, atol=5e-6)
        np.testing.assert_allclose(out_cov, want_cov, rtol=0, atol=5e-5)


class TestCatCoherence:
    """A collision maps product Weyl coherent states to product coherent
    states, with no extra phase, so a Brownian cat sum_j a_j |x_j, p> goes to

        rho_out = sum_jk a_j a_k* <g_k'|g_j'> |B_j'><B_k'|,

    the primed labels from the label map of each branch against the gas
    packet g.  The channel holds this to its pointer-mesh level (3.6e-7 to
    8.0e-7 here); a prediction without the coherence term, or without the
    phase of the which-path overlap <g_k'|g_j'>, misses by 1.4e-3 to 1.8e-2."""

    GATE = 5e-6

    @staticmethod
    def prediction(pair, grid, branches, p, gas_state, overlap_of):
        vs = [ch.grid_packet(grid, pair.brownian_packet(x, p)) for x in branches]
        norm2 = np.vdot(sum(vs), sum(vs)).real
        outs = [classical_collision_map(pair, *gas_state, x, p) for x in branches]
        gas = [pair.gas_packet(x_g, p_g) for x_g, p_g, _, _ in outs]
        out = [ch.grid_packet(grid, pair.brownian_packet(x, p)) for _, _, x, p in outs]
        return sum(overlap_of(gas[k], gas[j]) * np.outer(out[j], out[k].conj())
                   for j in range(len(outs)) for k in range(len(outs))) / norm2

    @pytest.mark.parametrize("alpha,branches,gas_state", [
        (0.3, (-0.5, 2.5), (-2.0, 1.5)),
        (0.3, (0.0, 2.0), (-2.0, 1.5)),
        (3.0, (0.5, 2.0), (-1.0, -0.5))])
    def test_two_branch_cat(self, grid, alpha, branches, gas_state):
        pr = CollisionPair.matched(1.0, alpha, 1.0)
        psi = sum(ch.grid_packet(grid, pr.brownian_packet(x, 0.5)) for x in branches)
        psi /= np.linalg.norm(psi)
        out = ch.apply_collision_channel(ch.OperatorGrid(np.outer(psi, psi.conj()), grid),
                                         pr, gas_state, 0.0).matrix

        def error(overlap_of):
            return np.max(np.abs(out - self.prediction(pr, grid, branches, 0.5, gas_state,
                                                       overlap_of)))

        assert error(overlap) <= self.GATE
        # without the overlap's phase, and without the coherence terms (j != k)
        assert error(lambda a, b: abs(overlap(a, b))) > 100 * self.GATE
        assert error(lambda a, b: overlap(a, b) if a is b else 0.0) > 100 * self.GATE


def _mixture(pair, grid, parts):
    """sum_j w_j |x_j, p_j><x_j, p_j| over the parts (w_j, x_j, p_j)."""
    mat = np.zeros((grid.n, grid.n), dtype=complex)
    for w, x, p in parts:
        v = ch.grid_packet(grid, pair.brownian_packet(x, p))
        mat += w * np.outer(v, v.conj())
    return ch.OperatorGrid(mat, grid)


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

    @pytest.mark.parametrize("parts", [
        [(1.0, 1.0, 0.5)],
        [(0.5, 1.0, 0.5), (0.3, 0.6, 0.2), (0.2, 1.4, 0.8)],
    ], ids=["pure", "rank3"])
    def test_matches_loop(self, pair, small_grid, parts):
        rho = _mixture(pair, small_grid, parts)
        ev = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(ev > 1e-12) == len(parts)
        got = ch.apply_collision_channel(rho, pair, self.GAS, 0.5, mesh=self.MESH,
                                         pointer_mesh=self.MESH)
        ref = _per_node_channel(rho, pair, self.GAS, 0.5, self.MESH)
        np.testing.assert_allclose(got.matrix, ref, rtol=0, atol=1e-12)
        assert got.trace() == pytest.approx(rho.trace(), abs=1e-3)

    def test_matches_kraus_sum_heavy_gas(self, small_grid):
        # alpha = 3, where both routes carry the parity: area * K rho K^dagger
        # summed with build_kraus's K over the pointer nodes, then U(t)
        pr = CollisionPair.matched(1.0, 3.0, 1.0)
        mesh = ch.PhaseSpaceMesh(1.5, 3.0)
        rho = _mixture(pr, small_grid, [(1.0, 1.0, 0.5)])
        xts, pts = ch._pointer_nodes(rho, pr, mesh)
        ref = sum(K @ rho.matrix @ K.conj().T for K in (
            ch.build_kraus(pr, self.GAS, x_t, p_t, small_grid).matrix
            for x_t in xts for p_t in pts))
        ref *= (xts[1] - xts[0]) * (pts[1] - pts[0])
        U = ch.free_evolve_vector(small_grid, np.eye(small_grid.n), 1.0, 0.5).T
        got = ch.apply_collision_channel(rho, pr, self.GAS, 0.5, pointer_mesh=mesh)
        np.testing.assert_allclose(got.matrix, U @ ref @ U.conj().T, rtol=0, atol=1e-12)


class TestProjection:
    @pytest.fixture(scope="class")
    def region(self, pair):
        return ch.PhaseSpaceRegion(x_g=-2.0, p_g=1.2, delta=4.0,
                                   brownian_mass=pair.brownian_mass,
                                   gas_mass=pair.gas_mass)

    @pytest.fixture(scope="class")
    def gamma(self, region, pair, grid):
        return ch.build_projection(region, pair, grid)

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

    @pytest.mark.parametrize("x0,p0", [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0),
                                       (-1.0, 3.5), (0.5, 4.5)])
    def test_husimi_mass(self, pair, grid, gamma, region, x0, p0):
        # the x-integral is exact and the p rule splits at the kink p = 4
        # (v_rel = 0), so only rounding and the far tails remain; a uniform
        # rule with a cell edge at the kink is off by 7.9e-4 at (-1, 3.5)
        v = ch.grid_packet(grid, pair.brownian_packet(x0, p0))
        expected = self.husimi_mass(region, pair, x0, p0)
        assert gamma.expectation(v) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("x0,p0", [(0.0, 0.0), (1.0, 2.0), (-1.0, 3.5)])
    def test_husimi_mass_long_step(self, pair, grid, x0, p0):
        # at delta = 20 the moving end of the interval meets the clipping
        # bounds at p = 3.47 and 4.33, beside the v_rel = 0 kink; a rule not
        # split there is off by up to 4e-6
        region = ch.PhaseSpaceRegion(x_g=-2.0, p_g=1.2, delta=20.0,
                                     brownian_mass=pair.brownian_mass,
                                     gas_mass=pair.gas_mass)
        v = ch.grid_packet(grid, pair.brownian_packet(x0, p0))
        got = ch.build_projection(region, pair, grid).expectation(v)
        assert got == pytest.approx(self.husimi_mass(region, pair, x0, p0), abs=1e-9)

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


    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_nonpositive_delta_is_empty(self, pair, grid, delta):
        region = ch.PhaseSpaceRegion(x_g=-2.0, p_g=1.2, delta=delta,
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
