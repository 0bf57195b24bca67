
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamweyl import _linalg as la
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import DomainError, InputError, SteppingError

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
    data = np.array([[1.0], [1.0]], dtype=complex)
    nxt = hp.propagate_hats(sysd, 0.0, 0, data, 1)[0]
    assert np.allclose(nxt, data)


def test_scalar_jacobi_matches_three_term_recurrence():
    sysj = make_free_jacobi((0, 60))
    z = 0.37 + 0.21j
    # start from hat data (psi1(0), psi2(1)) = (1, 0.3-0.1j)
    traj = hp.hat_trajectory(sysj, z, 0, np.array([[1.0], [0.3 - 0.1j]]), (0, 52))
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
    fwd = hp.propagate_hats(sysr, z, 3, data, 4)
    back = hp.propagate_hats(sysr, z, 4, fwd, 3)[0]
    assert np.linalg.norm(back - data) < 1e-12 * (1 + np.linalg.norm(data))
    bwd = hp.propagate_hats(sysr, z, 3, data, 2)
    fwd2 = hp.propagate_hats(sysr, z, 2, bwd, 3)[0]
    assert np.linalg.norm(fwd2 - data) < 1e-12 * (1 + np.linalg.norm(data))


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
        back = hp.propagate_hats(sysr, z, 4, traj.hat(4), 3)[0]
        assert np.array_equal(traj.plain(4)[m:], back[m:])
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
    assert np.all(np.isfinite(hp.a_form_sum(bad, traj, hwl.plus_interval(0, 8))))
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


def _reference_steps(sys, zs, k_start, init, k_end):
    """Independent oracle: the per-site algorithm, one step at a time. A
    forward step solves the second recurrence for psi1(k+1) with the (2,1)
    pencil block at k+1, then the first for psi2(k+2); a backward step
    solves the first for psi2(k) with the (1,2) block at k, then the
    second for psi1(k-1). All z of the batch step together."""
    m = sys.m
    d = 1 if k_end >= k_start else -1
    a, b = (slice(None, m), slice(m, None))[::d]
    hats = np.empty((len(zs), 2 * m, init.shape[-1]), dtype=complex)
    hats[...] = init
    for k in range(k_start, k_end, d):
        site = max(k, k + d)
        p = zs[:, None, None] * sys.A(site) + sys.B(site)
        x = np.linalg.solve(p[:, b, a], sys.rho(k) @ hats[:, a] - p[:, b, b] @ hats[:, b])
        y = np.linalg.solve(sys.rho(k + d), p[:, a, a] @ x + p[:, a, b] @ hats[:, b])
        hats = np.concatenate((x, y)[::d], axis=1)
    return hats


def _z_dependent_system(window=(0, 40)):
    # A21 = A12 = 1: the off-diagonal pencil blocks z + 1 depend on z
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    return hsys.HamiltonianSystem(1, window, A, B, 1.0)


def _mixed_system(window=(0, 40)):
    # the off-diagonal block of A vanishes at odd sites only
    A = lambda k: np.array([[1.0, 0.5 * (k % 2 == 0)], [0.5 * (k % 2 == 0), 0.7]])
    B = lambda k: np.array([[0.2 * k % 1.0, 1.0], [1.0, -0.4]])
    return hsys.HamiltonianSystem(1, window, A, B, lambda k: 1.0 + 0.1 * (k % 3))


def _random_system(cls, m):
    return lambda: htk.random_system(m, (0, 40), seed=61 + m, cls=cls)


_ORACLE_SYSTEMS = {
    **{f"{cls}-m{m}": _random_system(cls, m)
       for cls, m in (("jacobi", 1), ("jacobi", 2), ("dirac", 1), ("dirac", 2),
                      ("general_A12zero", 2), ("general_A12zero", 3))},
    "z-dependent": _z_dependent_system,
    "mixed": _mixed_system,
}


def _chunked_batch():
    # large enough that one assembly holds at most two sites of it
    n = hp._TRANSFER_STACK // 3 + 1
    return np.linspace(-1.5, 1.5, n) + 1j * np.linspace(0.2, 1.0, n)


@pytest.mark.parametrize("name", _ORACLE_SYSTEMS)
def test_propagation_matches_per_site_oracle(name):
    # transfers assembled for whole site ranges give the per-site
    # algorithm's hats to rounding, for N = 1, a small batch and a batch
    # whose stacks cross the chunk bound, forward and backward
    sysr = _ORACLE_SYSTEMS[name]()
    m = sysr.m
    rng = np.random.default_rng(5)
    init = rng.normal(size=(2 * m, m)) + 1j * rng.normal(size=(2 * m, m))
    for zs in (np.array([0.4 + 0.7j]),
               np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.0 - 0.4j, 0.5 - 1.5j]),
               _chunked_batch()):
        for k_start, k_end in ((12, 20), (12, 4)):
            got = hp.propagate_hats(sysr, zs, k_start, init, k_end)
            want = _reference_steps(sysr, zs, k_start, init, k_end)
            err = np.linalg.norm(got - want, axis=(1, 2))
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))
    # an empty batch is a batch too
    none = np.array([], dtype=complex)
    assert hp.propagate_hats(sysr, none, 12, init, 4).shape == (0, 2 * m, m)


@pytest.mark.parametrize("name", _ORACLE_SYSTEMS)
def test_chunked_batch_equals_single_z_calls_bit_for_bit(name):
    # each z of a batch gets the same bits as its own call, whatever chunk
    # its sites fall in
    sysr = _ORACLE_SYSTEMS[name]()
    m = sysr.m
    init = np.eye(2 * m, dtype=complex)[:, :m]
    zs = _chunked_batch()
    for k_start, k_end in ((12, 20), (12, 4)):
        batch = hp.propagate_hats(sysr, zs, k_start, init, k_end)
        for i, z in enumerate(zs):
            one = hp.propagate_hats(sysr, z, k_start, init, k_end)
            assert np.array_equal(batch[i], one[0]), i


def _error_system(window=(0, 20)):
    return hsys.jacobi_system(lambda k: 1.0 + 0.1 * (k % 3), lambda k: 0.2,
                              window, extension="error")


def _with_singular_blocks(sysj, sites, which):
    # zero B's (2,1) ("forward") or (1,2) ("backward") block at the sites
    B = sysj._B.copy()
    for k in sites:
        if "forward" in which:
            B[sysj._indices(k), 1, 0] = 0.0
        if "backward" in which:
            B[sysj._indices(k), 0, 1] = 0.0
    return hsys.HamiltonianSystem(1, sysj.window, sysj._A, B, sysj._rho,
                                  extension=sysj.extension)


def test_stepping_error_comes_before_an_unreachable_site():
    # steps resolve their sites in step order: a singular pencil inside the
    # window raises before the first site beyond it under 'error'
    good = _error_system()
    init = np.eye(2, dtype=complex)
    bad = _with_singular_blocks(good, (5,), ("forward", "backward"))
    with pytest.raises(SteppingError) as err:
        hp.propagate_hats(bad, 0.5j, 0, init, 30)
    assert (err.value.site, err.value.which) == (5, "(2,1)")
    with pytest.raises(SteppingError) as err:
        hp.propagate_hats(bad, 0.5j, 20, init, -10)
    assert (err.value.site, err.value.which) == (5, "(1,2)")
    with pytest.raises(DomainError, match="site 21 outside"):
        hp.propagate_hats(good, 0.5j, 0, init, 30)
    with pytest.raises(DomainError, match="site -1 outside"):
        hp.propagate_hats(good, 0.5j, 20, init, -10)
    # the pencil at the edge site is checked before the site beyond it
    with pytest.raises(SteppingError) as err:
        hp.propagate_hats(_with_singular_blocks(good, (20,), ("forward",)),
                          0.5j, 0, init, 30)
    assert err.value.site == 20
    with pytest.raises(SteppingError) as err:
        hp.propagate_hats(_with_singular_blocks(good, (0,), ("backward",)),
                          0.5j, 20, init, -10)
    assert err.value.site == 0


def test_first_singular_site_in_step_order_is_reported():
    bad = _with_singular_blocks(make_free_jacobi((0, 20)), (5, 9),
                                ("forward", "backward"))
    init = np.eye(2, dtype=complex)
    zs = np.array([0.5j, 1.0 + 0.2j])
    for k_start, k_end, site, which in ((0, 20, 5, "(2,1)"), (20, 0, 9, "(1,2)"),
                                        (7, 20, 9, "(2,1)"), (7, 0, 5, "(1,2)")):
        with pytest.raises(SteppingError) as err:
            hp.propagate_hats(bad, zs, k_start, init, k_end)
        assert (err.value.site, err.value.which) == (site, which)


def test_lower_edge_plain_value_reads_only_its_site():
    # under 'error' a backward step from k_min raises, but psi2(k_min) needs
    # only the pencil and rho at k_min
    sysj = _error_system()
    z = 0.3 + 0.6j
    traj = hp.hat_trajectory(sysj, z, 0, np.eye(2, dtype=complex), (0, 8))
    assert np.all(np.isfinite(traj.plain(0)))
    with pytest.raises(DomainError):
        hp.propagate_hats(sysj, z, 0, traj.hat(0), -1)
    p = z * sysj.A(0) + sysj.B(0)
    psi2 = np.linalg.solve(p[:1, 1:], sysj.rho(0) @ traj.psi2_next(0)
                           - p[:1, :1] @ traj.psi1(0))
    assert np.allclose(traj.plain(0)[1:], psi2, rtol=1e-14, atol=0.0)


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
    # columns (Theta, Phi) of the hat at the base site
    fund = hp.fundamental(sysj, 0.7j, 0, hsys.dirichlet(1), (0, 6))
    assert fund.k0 == 0
    assert np.allclose(fund.hat(0), [[1.0, 0.0], [0.0, -1.0]])
    fund2 = hp.fundamental(sysj, 0.7j, 0, hsys.neumann(1), (0, 6))
    assert np.allclose(fund2.hat(0), [[0.0, 1.0], [1.0, 0.0]])


def test_fundamental_dirichlet_columns_scalar_oracle():
    # phi1 (the psi1 entry of the Phi column) at z=0 for the free chain
    # follows the three-term recurrence with Dirichlet-type seed (0 at the
    # base site)
    sysj = make_free_jacobi((0, 8))
    fund = hp.fundamental(sysj, 0.0, 0, hsys.dirichlet(1), (0, 5))

    def phi1(k):
        return fund.psi1(k)[0, 1]

    ys = scalar_free_recurrence(0.0, phi1(0), phi1(1), 4)
    for k in range(6):
        assert abs(phi1(k) - ys[k]) < 1e-12
    # independent seed values: phi1(0) = 0, phi1(1) = 1 for this normalization
    assert abs(phi1(0)) < 1e-14
    assert abs(phi1(1) - 1.0) < 1e-14


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


# ---------------------------------------------------------------------------
# the bilinear pairing
# ---------------------------------------------------------------------------

def test_lagrange_constant_for_real_z_same_solution():
    sysr = htk.random_system(2, (0, 20), seed=21, cls="jacobi")
    z = 0.83  # real
    traj = hp.hat_trajectory(sysr, z, 0, np.eye(4, dtype=complex)[:, :2], (0, 20))
    vals = [hp.lagrange_bilinear(sysr, k, traj.hat(k), traj.hat(k))
            for k in range(0, 21)]
    for v in vals[1:]:
        assert np.linalg.norm(v - vals[0]) < 1e-12 * (1 + np.linalg.norm(vals[0]))


def test_lagrange_telescoping_and_phi_sum():
    sysj = make_free_jacobi((0, 30))
    z = 0.5 + 0.6j
    fund = hp.fundamental(sysj, z, 0, hsys.dirichlet(1), (0, 20))
    # sum over the half-open interval equals the pairing difference
    g_ell = hp.lagrange_bilinear(sysj, 15, fund.hat(15)[:, 1:], fund.hat(15)[:, 1:])
    g_k0 = hp.lagrange_bilinear(sysj, 0, fund.hat(0)[:, 1:], fund.hat(0)[:, 1:])
    acc = np.zeros((1, 1), dtype=complex)
    for k in range(1, 16):
        phi = fund.plain(k)[:, 1:]
        acc += phi.conj().T @ sysj.A(k) @ phi
    assert np.linalg.norm((g_ell - g_k0) - (z - np.conj(z)) * acc) < 1e-10


def _coupled_m2_system(window=(0, 40)):
    # A = [[I, C], [C*, I]] with ||C|| < 1: A is positive definite and both
    # off-diagonal pencil blocks z C* + I and z C + I depend on z, so every
    # step solves one 2 x 2 pencil block per site and z
    C = np.array([[0.3, 0.2j], [-0.1, 0.25]])
    A = np.block([[np.eye(2), C], [C.conj().T, np.eye(2)]])
    B = lambda k: np.block([[np.diag([0.3 * np.cos(k), -0.2]), np.eye(2)],
                            [np.eye(2), np.diag([0.1, 0.4 * np.sin(k)])]])
    return hsys.HamiltonianSystem(2, window, A, B,
                                  lambda k: np.diag([1.0 + 0.1 * (k % 3), 1.2]))


def test_coupled_m2_trajectory_solves_both_recurrences():
    sysc = _coupled_m2_system()
    assert not any(sysc._offdiag_static[w][0] for w in ("(2,1)", "(1,2)"))
    rng = np.random.default_rng(9)
    init = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    for z in (0.4 + 0.7j, -1.1 + 0.3j):
        # forward from 20 to 40 and backward from 20 to 0
        hats = hp.hat_trajectory(sysc, z, 20, init, (0, 40)).data
        sites = range(1, 41)
        p11, p12, p21, p22 = sysc.pencil_blocks(z, sites)
        u1, u2 = hats[:, :2], hats[:, 2:]  # psi1(k) and psi2(k + 1)
        # rho(k) psi2(k+1) = P11 psi1(k) + P12 psi2(k),
        # rho(k-1) psi1(k-1) = P21 psi1(k) + P22 psi2(k)
        terms = [(sysc.rho(sites) @ u2[1:], p11 @ u1[1:], p12 @ u2[:-1]),
                 (sysc.rho(range(0, 40)) @ u1[:-1], p21 @ u1[1:], p22 @ u2[:-1])]
        for lhs, a, b in terms:
            scale = np.linalg.norm(lhs, axis=(1, 2)) + np.linalg.norm(a, axis=(1, 2)) \
                + np.linalg.norm(b, axis=(1, 2))
            assert np.max(np.linalg.norm(lhs - a - b, axis=(1, 2)) / scale) < 1e-14
    assert hp.lagrange_telescoping_check(sysc, 0.4 + 0.7j, -1.1 + 0.3j, 0, 40) < 1e-13


def test_lagrange_streamed_long_window():
    sysr = htk.random_system(2, (0, 1000), seed=42, cls="general_A12zero")
    worst = hp.lagrange_telescoping_check(sysr, 0.9 + 0.4j, -0.3 + 1.1j, 0, 1000)
    assert worst < 1e-10


def _telescoping_by_steps(sys, z1, z2, k0, steps, init1, init2):
    """The streamed check as a loop of one-step defects: both hat sets step
    together, zero-padded to a common width, rescaled after every step."""
    m = sys.m
    r1, r2 = init1.shape[1], init2.shape[1]
    hats = np.zeros((2, 2 * m, max(r1, r2)), dtype=complex)
    hats[0, :, :r1], hats[1, :, :r2] = init1, init2
    worst = 0.0
    for k in range(k0, k0 + steps):
        new = hp.propagate_hats(sys, [z1, z2], k, hats, k + 1)
        worst = max(worst, hp.lagrange_step_defect(
            sys, z1, z2, k + 1, hats[0, :, :r1], new[0, :, :r1],
            hats[1, :, :r2], new[1, :, :r2]))
        hats = new / max(np.max(np.abs(new)), 1.0)
    return worst


@pytest.mark.parametrize("cls,m", [("jacobi", 1), ("dirac", 2),
                                   ("general_A12zero", 2)])
def test_stacked_telescoping_equals_step_loop_bit_for_bit(cls, m):
    sysr = htk.random_system(m, (0, 120), seed=7, cls=cls)
    rng = np.random.default_rng(3)
    full = np.eye(2 * m, dtype=complex)
    narrow = rng.normal(size=(2 * m, 1)) + 1j * rng.normal(size=(2 * m, 1))
    for z1, z2 in ((0.3 + 0.7j, -0.2 + 0.4j), (1.5 + 0.05j, 1.5 - 0.05j)):
        for init1, init2 in ((full, full), (narrow, full), (full, narrow)):
            for steps in (0, 1, 100):
                got = hp.lagrange_telescoping_check(sysr, z1, z2, 3, steps,
                                                    init1, init2)
                want = _telescoping_by_steps(sysr, z1, z2, 3, steps, init1, init2)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert hp.lagrange_telescoping_check(sysr, 1j, 1j, 0, 0) == 0.0


# ---------------------------------------------------------------------------
# Weyl solutions and the Jacobi expression
# ---------------------------------------------------------------------------

def test_weyl_solution_accessors():
    sysj = make_free_jacobi((0, 10))
    fund = hp.fundamental(sysj, 1j, 0, hsys.dirichlet(1), (0, 10))
    u0 = hp.weyl_solution(fund, np.zeros((1, 1)))
    for k in range(0, 11):
        assert np.allclose(u0.hat(k), fund.hat(k)[:, :1])
    M = np.array([[0.3 - 0.8j]])
    u = hp.weyl_solution(fund, M)
    assert u.k0 == 0
    assert np.allclose(u.psi1(0), np.eye(1))
    assert np.allclose(u.psi2_next(0), -M)


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
    y2 = {k: fund.psi1(k)[:, :1] for k in range(0, 103)}
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


def test_pencil_error_reports_the_svd_rcond_of_the_failing_site():
    # verdicts come from norm bounds; the error still names the first failing
    # site and its 2-norm rcond, min over the z batch
    zs = np.array([0.3 + 0.2j, 0.5 + 1e-14j])
    init = np.eye(4, dtype=complex)
    # static (2,1) block: B21 = diag(1, 1e-14) at site 5 of an m = 2 chain
    sysj = hsys.jacobi_system(np.eye(2), np.zeros((2, 2)), (0, 12))
    B = sysj._B.copy()
    B[5, 2:, :2] = np.diag([1.0, 1e-14])
    static = hsys.HamiltonianSystem(2, sysj.window, sysj._A, B, sysj._rho)
    with pytest.raises(SteppingError) as err:
        hp.propagate_hats(static, zs, 0, init, 12)
    assert (err.value.site, err.value.which) == (5, "(2,1)")
    assert err.value.rcond == la.rcond(B[5, 2:, :2])
    # z-dependent blocks z A21 + B21 = diag(1, z - 0.5), singular near z = 0.5
    A = np.zeros((4, 4), dtype=complex)
    A[3, 1] = A[1, 3] = 1.0
    Bg = np.zeros((4, 4), dtype=complex)
    Bg[2:, :2] = Bg[:2, 2:] = np.diag([1.0, -0.5])
    sysg = hsys.HamiltonianSystem(2, (0, 12), A, Bg, np.eye(2))
    for k_end, which, site in ((12, "(2,1)", 1), (-3, "(1,2)", 0)):
        with pytest.raises(SteppingError) as err:
            hp.propagate_hats(sysg, zs, 0, init, k_end)
        assert (err.value.site, err.value.which) == (site, which)
        assert err.value.rcond == min(la.rcond(z * A[2:, :2] + Bg[2:, :2]) for z in zs)
