"""Tests that the benchmark's checks reject deliberately corrupted outputs.

    python3 -m pytest -q benchmarks/selftest.py
    python3 benchmarks/selftest.py

Each test also runs the same check on the uncorrupted output and requires
it to pass, so a check that rejects everything cannot pass the test.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wls  # noqa: E402
from wickwaves import gaussian, nlw, phi4  # noqa: E402


def _flow(members=4, n_steps=4):
    """The NLW workload cut down to a few members and steps."""
    wl = wls.NlwEnsemble(seed=5, seconds=30)
    wl.initial = wl.subset(wl.initial, slice(members))
    wl.n_steps = n_steps
    return wl


def test_sampler_identities_reject_free_field_draws():
    """Draws from the lambda=0 measure judged against the lambda=1 action
    fail E|grad S|^2 = E Laplacian S; judged against their own action they
    pass it and the virial identity.  The virial identity alone cannot
    tell them apart: the Wick quartic has mean ~0 under the free field."""
    grid = wls.grid()
    shape = (4, 64)
    draws = gaussian.sample_gff_coeffs(grid, wls.MASS,
                                       gaussian.RngStream(7, 0),
                                       size=shape[0] * shape[1])
    a = phi4.MeasureSpec(grid, wls.MASS, 1.0).a
    def z(x, target):
        return wls.identity_z(x, target, ref.pooled_ess(x.reshape(shape)))

    stein = {}
    for lam in (0.0, 1.0):
        grad2, lap = ref.stein_terms(draws, wls.L, wls.K, wls.MASS, lam / 4, a)
        stein[lam] = z(grad2 - lap, 0.0)
    vir = ref.virial(draws, wls.L, wls.MASS, 0.0, a)
    assert z(vir, wls.n_real_dofs(grid.nk)) <= wls.VIRIAL_SE
    assert stein[0.0] <= wls.VIRIAL_SE
    assert stein[1.0] > wls.VIRIAL_SE


def test_hamiltonian_check_rejects_one_perturbed_coefficient():
    """nlw.hamiltonian of a state with one coefficient moved by 1e-5 no
    longer matches the reference energy of the unperturbed state."""
    wl = _flow()
    st = wl.initial
    want = wl.energy(st)
    ok = wls.Checks()
    ok.close("hamiltonian", nlw.hamiltonian(st, wl.cfg), want)
    assert ok.ok
    u = st.u.copy()
    k = wls.grid().kmax
    u[0, k + 3, k + 1] *= 1.0 + 1e-5
    u[0, k - 3, k - 1] = np.conj(u[0, k + 3, k + 1])
    bad = wls.Checks()
    bad.close("hamiltonian", nlw.hamiltonian(nlw.WaveState(st.grid, u, st.ut),
                                             wl.cfg), want)
    assert not bad.ok


def _lie_step(wl):
    """Kick then rotate: first order and not palindromic."""
    def step(state, dt):
        ut = state.ut - dt * wl.cfg.lam * nlw.wick_cubic_coeffs(
            state.grid, state.u, wl.a)
        return nlw.linear_propagate(nlw.WaveState(state.grid, state.u, ut),
                                    wl.cfg.m, dt)
    return step


def test_flow_checks_reject_non_palindromic_splitting():
    """A Lie splitting fails both the reversal gate and the order check;
    the library's Strang step passes both."""
    wl = _flow()
    for corrupt in (False, True):
        if corrupt:
            wl.step = _lie_step(wl)
        before = wl.advance(wl.initial, wls.DT, wl.n_steps - 1)
        final = wl.step(before, wls.DT)
        rev = wl.reversed_error(final, before)
        ratio = wl.order_ratio(final)
        assert np.all(rev > wls.TOL) if corrupt else np.all(rev <= wls.TOL)
        assert (ratio < wls.ORDER_MIN) if corrupt else (ratio >= wls.ORDER_MIN)


def test_pooled_ess_on_ar1_chains():
    """The estimator recovers the known ESS of AR(1) chains to 10%."""
    gen = np.random.default_rng(3)
    rho, n, m = 0.6, 400, 64
    x = np.empty((n, m))
    x[0] = gen.standard_normal(m)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + np.sqrt(1 - rho * rho) * gen.standard_normal(m)
    want = n * m * (1 - rho) / (1 + rho)
    assert abs(ref.pooled_ess(x) / want - 1.0) < 0.1


def test_lp_blocks_sum_to_one_on_the_ball():
    """The written-out sigma_j telescope to 1 on every active mode."""
    nk = wls.grid().nk
    r = np.sqrt(ref.mode_nsq(nk, wls.L))
    blocks = range(-1, ref.lp_block_count(wls.K) + 1)
    total = sum(ref.sigma(j, r) for j in blocks)
    ball = r <= wls.K
    assert np.max(np.abs(total[ball] - 1.0)) < 1e-14


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for fn in tests:
        fn()
        print("ok", fn.__name__)
