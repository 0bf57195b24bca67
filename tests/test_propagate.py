import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import InputError, SteppingError

from conftest import make_free_jacobi


def scalar_free_recurrence(z, y0, y1, n):
    """Independent oracle: 2y(k) - y(k+1) - y(k-1) = z y(k)."""
    ys = [y0, y1]
    for _ in range(n):
        ys.append((2 - z) * ys[-1] - ys[-2])
    return ys


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_dirac_constant_solution_at_z0():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 10))
    state = hp.HatState(k=0, z=0.0, data=np.array([[1.0], [1.0]], dtype=complex))
    nxt = hp.step_forward(sysd, 0.0, state)
    assert nxt.k == 1
    assert np.allclose(nxt.data, state.data)


def test_scalar_jacobi_matches_three_term_recurrence():
    sysj = make_free_jacobi((0, 60))
    z = 0.37 + 0.21j
    # start from hat data (psi1(0), psi2(1)) = (1, 0.3-0.1j)
    state = hp.HatState(k=0, z=z, data=np.array([[1.0], [0.3 - 0.1j]]))
    traj = hp.hat_trajectory(sysj, z, 0, state.data, (0, 52))
    # psi1 satisfies the three-term recurrence; seed the oracle from the
    # first two propagated values and compare the next 50
    y0 = traj.psi1(0)[0, 0]
    y1 = traj.psi1(1)[0, 0]
    ys = scalar_free_recurrence(z, y0, y1, 50)
    for k in range(52):
        assert abs(traj.psi1(k)[0, 0] - ys[k]) < 1e-11 * (1 + abs(ys[k]))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_step_roundtrip_random_systems(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    cls = ("jacobi", "dirac", "general_A12zero")[seed % 3]
    sysr = htk.random_system(m, (0, 6), seed=seed, cls=cls)
    z = complex(rng.normal(), rng.normal())
    data = rng.normal(size=(2 * m, 2)) + 1j * rng.normal(size=(2 * m, 2))
    state = hp.HatState(k=3, z=z, data=data)
    fwd = hp.step_forward(sysr, z, state)
    back = hp.step_backward(sysr, z, fwd)
    assert back.k == 3
    assert np.linalg.norm(back.data - data) < 1e-12 * (1 + np.linalg.norm(data))
    bwd = hp.step_backward(sysr, z, state)
    fwd2 = hp.step_forward(sysr, z, bwd)
    assert np.linalg.norm(fwd2.data - data) < 1e-12 * (1 + np.linalg.norm(data))


def test_batched_kernel_matches_scalar_steps():
    # one kernel for every caller: each z of a batch gets the hats of the
    # scalar trajectory bit for bit, forward and backward
    for cls, m in (("jacobi", 2), ("dirac", 1), ("general_A12zero", 3)):
        sysr = htk.random_system(m, (0, 16), seed=41, cls=cls)
        init = np.eye(2 * m, dtype=complex)[:, :m]
        zs = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0 - 0.4j])
        for k_end in (16, 0):
            batch = hp.propagate_hats(sysr, zs, 8, init, k_end)
            for i, z in enumerate(zs):
                traj = hp.hat_trajectory(sysr, z, 8, init, (0, 16))
                assert np.array_equal(batch[i], traj.hat(k_end))


def test_trajectory_plain_values_at_the_edges():
    # the lower-edge psi2 is the pencil half of a backward step, bit for bit,
    # and sites outside the stored range raise instead of wrapping around
    for cls, m in (("jacobi", 2), ("dirac", 1), ("general_A12zero", 3)):
        sysr = htk.random_system(m, (0, 16), seed=43, cls=cls)
        z = 0.3 + 0.2j
        traj = hp.hat_trajectory(sysr, z, 8, np.eye(2 * m, dtype=complex), (4, 12))
        back = hp.step_backward(sysr, z, traj.state(4))
        assert np.array_equal(traj.plain(4)[m:], back.psi2_next)
        assert np.array_equal(traj.plain(4)[:m], traj.psi1(4))
        assert np.array_equal(traj.plain(9)[m:], traj.psi2_next(8))
        for k in (3, 13):
            with pytest.raises(InputError):
                traj.plain(k)


def test_lower_edge_psi2_is_computed_only_when_read():
    # a singular (1,2) pencil at the base site is never stepped through by a
    # forward trajectory; only reading psi2 there needs it
    sysj = make_free_jacobi((0, 12))
    B = sysj._B.copy()
    B[0, 0, 1] = 0.0
    bad = hsys.HamiltonianSystem(1, sysj.window, sysj._A, B, sysj._rho)
    traj = hp.hat_trajectory(bad, 0.5 + 0.5j, 0, np.eye(2, dtype=complex), (0, 8))
    assert np.all(np.isfinite(hwl.a_form_sum(bad, traj, hwl.plus_interval(0, 8))))
    with pytest.raises(SteppingError):
        traj.plain(0)


def test_pencil_check_on_z_dependent_block():
    # A21 = A12 = 1: the off-diagonal pencil blocks z + 1 depend on z and
    # vanish at z = -1; the check runs at every z of a batch, both ways
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    sysg = hsys.HamiltonianSystem(1, (0, 6), A, B, 1.0)
    init = np.eye(2, dtype=complex)
    zs = np.array([0.3 + 0.2j, -0.5 + 1.0j])
    fwd = hp.propagate_hats(sysg, zs, 0, init, 6)
    for i, z in enumerate(zs):
        traj = hp.hat_trajectory(sysg, z, 0, init, (0, 6))
        assert np.array_equal(fwd[i], traj.hat(6))
    back = hp.propagate_hats(sysg, zs, 6, fwd, 0)
    assert np.allclose(back, init, atol=1e-10)
    for k_end, which in ((6, "(2,1)"), (-3, "(1,2)")):
        with pytest.raises(SteppingError) as err:
            hp.propagate_hats(sysg, np.append(zs, -1.0), 0, init, k_end)
        assert err.value.which == which and err.value.rcond == 0.0


def test_linearity_of_propagation():
    sysr = htk.random_system(2, (0, 12), seed=7, cls="general_A12zero")
    z = 0.4 + 0.9j
    rng = np.random.default_rng(1)
    v1 = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    v2 = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    c1, c2 = 1.3 - 0.2j, -0.7 + 0.5j
    t1 = hp.hat_trajectory(sysr, z, 0, v1, (0, 12))
    t2 = hp.hat_trajectory(sysr, z, 0, v2, (0, 12))
    t12 = hp.hat_trajectory(sysr, z, 0, c1 * v1 + c2 * v2, (0, 12))
    for k in range(13):
        combo = c1 * t1.hat(k) + c2 * t2.hat(k)
        assert np.linalg.norm(t12.hat(k) - combo) \
            <= 1e-12 * (1 + np.linalg.norm(combo))


# ---------------------------------------------------------------------------
# fundamental systems
# ---------------------------------------------------------------------------

def test_fundamental_initial_values():
    sysj = make_free_jacobi((0, 6))
    fund = hp.fundamental(sysj, 0.7j, 0, hsys.dirichlet(1), (0, 6))
    assert np.allclose(fund.Theta_hat(0), [[1.0], [0.0]])
    assert np.allclose(fund.Phi_hat(0), [[0.0], [-1.0]])
    fund2 = hp.fundamental(sysj, 0.7j, 0, hsys.neumann(1), (0, 6))
    assert np.allclose(fund2.Theta_hat(0), [[0.0], [1.0]])
    assert np.allclose(fund2.Phi_hat(0), [[1.0], [0.0]])


def test_fundamental_dirichlet_columns_scalar_oracle():
    # phi1 at z=0 for the free chain follows the three-term recurrence with
    # Dirichlet-type seed (0 at the base site)
    sysj = make_free_jacobi((0, 8))
    fund = hp.fundamental(sysj, 0.0, 0, hsys.dirichlet(1), (0, 5))
    ys = scalar_free_recurrence(0.0, fund.phi1(0)[0, 0], fund.phi1(1)[0, 0], 4)
    for k in range(6):
        assert abs(fund.phi1(k)[0, 0] - ys[k]) < 1e-12
    # independent seed values: phi1(0) = 0, phi1(1) = 1 for this normalization
    assert abs(fund.phi1(0)[0, 0]) < 1e-14
    assert abs(fund.phi1(1)[0, 0] - 1.0) < 1e-14


def test_fundamental_symplectic_identity():
    for seed, m in ((11, 1), (12, 2), (13, 3)):
        sysr = htk.random_system(m, (0, 10), seed=seed, cls="general_A12zero")
        z = 0.3 + 0.8j
        al = hsys.make_boundary_data(
            np.hstack([np.eye(m), 0.25 * np.eye(m)]))
        f1 = hp.fundamental(sysr, z, 2, al, (0, 10))
        f2 = hp.fundamental(sysr, np.conj(z), 2, al, (0, 10))
        assert hp.fundamental_pair_defect(f1, f2) < 1e-10


def test_periodic_extension_propagation():
    # propagation beyond the stored window under the periodic policy must
    # match propagation on an explicitly tiled window
    vals = {0: 1.0, 1: 2.0, 2: 0.5}
    small = hsys.jacobi_system(lambda k: vals[k], lambda k: 0.1 * vals[k],
                               (0, 2), extension="periodic")
    tiled = hsys.jacobi_system(lambda k: vals[k % 3], lambda k: 0.1 * vals[k % 3],
                               (0, 11))
    z = 0.3 + 0.4j
    init = np.array([[1.0], [0.25 - 0.5j]])
    t_small = hp.hat_trajectory(small, z, 0, init, (0, 10))
    t_tiled = hp.hat_trajectory(tiled, z, 0, init, (0, 10))
    for k in range(0, 11):
        assert np.allclose(t_small.hat(k), t_tiled.hat(k), atol=1e-13)


def test_scale_monitor_warns():
    sysj = make_free_jacobi((0, 260))
    with pytest.warns(RuntimeWarning, match="1e150"):
        hp.fundamental(sysj, 4j, 0, hsys.dirichlet(1), (0, 260))


# ---------------------------------------------------------------------------
# the bilinear pairing
# ---------------------------------------------------------------------------

def test_lagrange_constant_for_real_z_same_solution():
    sysr = htk.random_system(2, (0, 20), seed=21, cls="jacobi")
    z = 0.83  # real
    traj = hp.hat_trajectory(sysr, z, 0, np.eye(4, dtype=complex)[:, :2], (0, 20))
    vals = [hp.lagrange_bilinear(sysr, traj.state(k), traj.state(k))
            for k in range(0, 21)]
    for v in vals[1:]:
        assert np.linalg.norm(v - vals[0]) < 1e-12 * (1 + np.linalg.norm(vals[0]))


def test_lagrange_telescoping_and_phi_sum():
    sysj = make_free_jacobi((0, 30))
    z = 0.5 + 0.6j
    fund = hp.fundamental(sysj, z, 0, hsys.dirichlet(1), (0, 20))
    # sum over the half-open interval equals the pairing difference
    g_ell = fund.Phi_hat(15).conj().T @ sysj.j_rho(15) @ fund.Phi_hat(15)
    g_k0 = fund.Phi_hat(0).conj().T @ sysj.j_rho(0) @ fund.Phi_hat(0)
    acc = np.zeros((1, 1), dtype=complex)
    for k in range(1, 16):
        phi = fund.Phi(k)
        acc += phi.conj().T @ sysj.A(k) @ phi
    assert np.linalg.norm((g_ell - g_k0) - (z - np.conj(z)) * acc) < 1e-10


def test_lagrange_streamed_long_window():
    sysr = htk.random_system(2, (0, 1000), seed=42, cls="general_A12zero")
    worst = hp.lagrange_telescoping_check(sysr, 0.9 + 0.4j, -0.3 + 1.1j, 0, 1000)
    assert worst < 1e-10


def test_lagrange_site_mismatch_rejected():
    sysj = make_free_jacobi((0, 5))
    s1 = hp.HatState(0, 1j, np.ones((2, 1), dtype=complex))
    s2 = hp.HatState(1, 1j, np.ones((2, 1), dtype=complex))
    with pytest.raises(InputError):
        hp.lagrange_bilinear(sysj, s1, s2)


# ---------------------------------------------------------------------------
# Weyl solutions and the Jacobi expression
# ---------------------------------------------------------------------------

def test_weyl_solution_accessors():
    sysj = make_free_jacobi((0, 10))
    fund = hp.fundamental(sysj, 1j, 0, hsys.dirichlet(1), (0, 10))
    u0 = hp.weyl_solution(fund, np.zeros((1, 1)))
    for k in range(0, 11):
        assert np.allclose(u0.hat(k), fund.Theta_hat(k))
    M = np.array([[0.3 - 0.8j]])
    u = hp.weyl_solution(fund, M)
    assert np.allclose(u.u1(0), np.eye(1))
    assert np.allclose(u.u2_next(0), -M)


def test_weyl_solution_hits_far_boundary():
    from hamweyl import weyl as hwl
    sysj = make_free_jacobi((0, 40))
    al = hsys.dirichlet(1)
    ctx = hwl.disk_context(sysj, 1j, 0, 12, al)
    fund = hp.fundamental(sysj, 1j, 0, al, (0, 12))
    mf = hwl.m_regular(sysj, ctx, hsys.dirichlet(1), fund=fund)
    u = hp.weyl_solution(fund, mf.M)
    bt = hsys.weighted_boundary(hsys.dirichlet(1), sysj, 12)
    assert np.linalg.norm(bt @ u.hat(12)) < 1e-10


def test_jacobi_apply_equivalences():
    sysj = make_free_jacobi((0, 120))
    # constant vector is annihilated (z = 0)
    out = hp.jacobi_apply(sysj, lambda k: np.array([2.0]), 5)
    assert np.allclose(out, [0.0])
    # geometric solution w^k with w + 1/w = 2 - z solves L y = z y
    z = 0.4 + 0.3j
    w = (2 - z + np.sqrt((2 - z) ** 2 - 4)) / 2
    y = lambda k: np.array([w ** k])
    for k in (2, 7, 19):
        lhs = hp.jacobi_apply(sysj, y, k)
        assert abs(lhs[0] - z * y(k)[0]) < 1e-10 * (1 + abs(y(k)[0]))
    # psi1 of a propagated solution satisfies L psi1 = z psi1 over 100 sites
    z2 = 1j
    fund = hp.fundamental(sysj, z2, 0, hsys.dirichlet(1), (0, 102))
    y2 = {k: fund.theta1(k) for k in range(0, 103)}
    for k in range(1, 101):
        lhs = hp.jacobi_apply(sysj, y2, k)
        rhs = z2 * y2[k]
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * (1 + np.linalg.norm(rhs))


def test_jacobi_apply_requires_jacobi_class():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 4))
    with pytest.raises(InputError):
        hp.jacobi_apply(sysd, lambda k: np.array([1.0]), 1)


# ---------------------------------------------------------------------------
# entireness surrogate
# ---------------------------------------------------------------------------

def test_concurrent_propagation_is_safe():
    # types are immutable and operations pure; concurrent propagation of
    # distinct z-values must reproduce the sequential results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    sysr = htk.random_system(2, (0, 30), seed=19, cls="general_A12zero")
    al = hsys.dirichlet(2)
    zs = [complex(0.2 * j, 0.5 + 0.1 * j) for j in range(12)]

    def run(z):
        return hp.fundamental(sysr, z, 0, al, (0, 30)).data.copy()

    sequential = [run(z) for z in zs]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(run, zs))
    for a, b in zip(sequential, parallel):
        assert np.array_equal(a, b)


def test_entries_interpolate_as_polynomials_in_z():
    sysr = htk.random_system(1, (0, 6), seed=31, cls="general_A12zero")
    k0, k = 0, 5
    deg = abs(k - k0) * 2 * sysr.m          # degree bound per step count
    n_pts = 2 * (deg + 1)
    ts = np.exp(2j * np.pi * np.arange(n_pts) / n_pts)  # unit circle nodes
    al = hsys.dirichlet(1)
    vals = []
    for z in ts:
        fund = hp.fundamental(sysr, complex(z), k0, al, (k0, k))
        vals.append(fund.hat(k)[0, 0])
    vals = np.array(vals)
    fit = np.polynomial.polynomial.polyfit(ts[::2], vals[::2], deg)
    check = np.polynomial.polynomial.polyval(ts[1::2], fit)
    assert np.max(np.abs(check - vals[1::2])) < 1e-8 * (1 + np.max(np.abs(vals)))
