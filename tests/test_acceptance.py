"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see per-criterion lines.
Every tolerance is fixed here; the runtime budgets are asserted.
"""

import time

import numpy as np
from click.testing import CliRunner

from relayosc import bounds as bm
from relayosc import limit_cycle as lc
from relayosc import poincare as pc
from relayosc import relay_dynamics as rd
from relayosc import sfs
from relayosc.cli import main as cli_main
from relayosc.plant import classify, parse_plant, realize
from relayosc.relay_dynamics import RelaySystem


def _report(k, name, detail=""):
    print(f"\nACCEPTANCE {k} ({name}): PASS {detail}")


def test_criterion_1_classification():
    t0 = time.monotonic()
    assert classify(parse_plant([1, -1], [6, 5])).is_brl_urf is True
    assert classify(parse_plant([1, -1, 0], [6, 5, 3])).is_brl_urf is False
    assert classify(parse_plant([1], [1])).is_brl_urf is False
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "classification", f"[{elapsed:.2f}s]")


def test_criterion_2_exit_time_oracle():
    t0 = time.monotonic()
    ss = realize(parse_plant([1], [1]))
    tau = rd.exit_time(ss, [1.0], +1)
    assert abs(tau - np.log(2)) < 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, "exit time ln 2", f"tau={tau!r} [{elapsed:.2f}s]")


def test_criterion_3_orbit_existence_and_global_convergence(
        second_order, second_order_bounds):
    t0 = time.monotonic()
    _, ss = second_order
    _, rep = second_order_bounds

    orbit = lc.find_symmetric_orbit(ss)
    x_img = rd.exit_map(ss, orbit.anchor, +1)
    assert np.linalg.norm(x_img + orbit.anchor) < 1e-8

    region = bm.anchor_region(ss, rep)
    starts = bm.sample_anchor_region(region, 20, seed=100)
    fixed_points = []
    for p in starts:
        res = pc.fixed_point_search(ss, rep, 1, p)
        assert res.converged
        fixed_points.append(res.x_hat)
    for i in range(len(fixed_points)):
        for j in range(i + 1, len(fixed_points)):
            assert np.linalg.norm(fixed_points[i] - fixed_points[j]) < 1e-8

    # long simulations: 500+ switches from 20 random states
    rng = np.random.default_rng(7)
    sys_ = RelaySystem(ss)
    t_end = 510 * orbit.half_period
    for _ in range(20):
        x0 = rng.standard_normal(2)
        x0 *= rng.uniform(0.1, rep.ball_radius) / np.linalg.norm(x0)
        traj, sliding = sys_.simulate(x0, t_end)
        assert not sliding.entered_sliding
        assert len(traj.events) >= 500
        final = traj.events[-1].x
        assert np.linalg.norm(np.abs(final) - np.abs(orbit.anchor)) < 1e-6

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, "orbit existence, fixed points, global convergence",
            f"tau*={orbit.half_period:.12f} [{elapsed:.1f}s]")


def test_criterion_4_jacobian_equivalence(second_order, second_order_bounds):
    t0 = time.monotonic()
    _, ss = second_order
    _, rep = second_order_bounds
    region = bm.anchor_region(ss, rep)
    pts = bm.sample_anchor_region(region, 10_000, seed=1)
    sys_ = RelaySystem(ss)

    for p in pts:
        pair = pc.jacobians(ss, p)
        rho_a = max(abs(np.linalg.eigvals(pair.astrom)))
        rho_e = max(abs(np.linalg.eigvals(pair.exact)))
        assert abs(rho_a - rho_e) <= 1e-8 * max(rho_e, 1e-300)
        assert np.linalg.norm(pair.astrom, 2) >= np.linalg.norm(pair.exact, 2) - 1e-12

    for p in pts[:100]:
        pair = pc.jacobians(ss, p)
        eps = 1e-6 * max(1.0, np.linalg.norm(p))
        cols = []
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            cols.append((sys_.exit_map(p + e, +1) - sys_.exit_map(p - e, +1))
                        / (2 * eps))
        J_fd = np.column_stack(cols)
        err = np.abs(J_fd - pair.exact).max() / np.abs(pair.exact).max()
        assert err < 1e-4

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, "jacobian equivalence on 1e4 samples", f"[{elapsed:.1f}s]")


def test_criterion_5_bounds_soundness(second_order, second_order_bounds,
                                      third_order, third_order_bounds):
    t0 = time.monotonic()
    violations = 0
    cases = [(second_order, second_order_bounds, 50),
             (third_order, third_order_bounds, 50)]
    rng = np.random.default_rng(55)
    for (plant, bnds, count) in cases:
        _, ss = plant
        env, rep = bnds
        m, s = env.m_initial, env.sigma_slowest
        nB = np.linalg.norm(ss.B)
        sys_ = RelaySystem(ss)
        t_end = rep.t_excursions_over + 12.0 / s
        for _ in range(count):
            x0 = rng.standard_normal(ss.n)
            x0 *= rng.uniform(0.0, rep.ball_radius) / np.linalg.norm(x0)
            traj, _ = sys_.simulate(x0, t_end, dense_dt=0.02)
            norms = np.linalg.norm(traj.states, axis=1)
            bound = (m * np.exp(-s * traj.times) * np.linalg.norm(x0)
                     + m * (1 - np.exp(-s * traj.times)) / s * nB)
            violations += int(np.sum(norms > bound * (1 + 1e-9)))
            after = traj.times >= rep.t_excursions_over
            violations += int(np.sum(norms[after] > rep.ball_radius * (1 + 1e-9)))
            if rep.t_min_inter_switch is not None and len(traj.events) >= 2:
                gaps = np.diff([ev.t for ev in traj.events])
                violations += int(np.sum(gaps < rep.t_min_inter_switch))
    assert violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, "state bounds sound on 100 trajectories",
            f"violations={violations} [{elapsed:.1f}s]")


def test_criterion_6_hopf_critical_points(second_order, third_order):
    t0 = time.monotonic()
    _, ss2 = second_order
    scan2 = sfs.root_locus(ss2, 1e3, 400)
    hopf2 = [c for c in scan2.crossings if c.kind == "hopf"][0]
    assert abs(hopf2.gamma0 - 5.0) <= 1e-6 * 5.0
    assert abs(hopf2.omega0 - np.sqrt(11.0)) <= 1e-6 * np.sqrt(11.0)

    _, ss3 = third_order
    scan3 = sfs.root_locus(ss3, 1e3, 400)
    hopf3 = [c for c in scan3.crossings if c.kind == "hopf"][0]
    assert abs(hopf3.gamma0 - 2.25) <= 1e-6 * 2.25
    assert abs(hopf3.omega0 - np.sqrt(2.75)) <= 1e-6 * np.sqrt(2.75)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, "Hopf critical gains/frequencies",
            f"g2={hopf2.gamma0:.9f} g3={hopf3.gamma0:.9f} [{elapsed:.1f}s]")


def test_criterion_7_monodromy_consistency(second_order):
    t0 = time.monotonic()
    _, ss = second_order
    orbit = lc.find_symmetric_orbit(ss)
    exact = lc.monodromy_exact(ss, orbit)

    # closed-form determinant limit: the matrix and the formula must agree
    # as an algebraic identity
    assert abs(exact.det - exact.det_limit_formula) <= 1e-8 * abs(exact.det_limit_formula)

    flo = lc.monodromy_floquet(ss, 1e4, orbit)
    assert abs(exact.det - flo.det) <= 0.02 * abs(flo.det)
    assert flo.trivial_multiplier_error < 1e-4

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(7, "monodromy determinant + trivial multiplier",
            f"det={exact.det:.6e} floquet={flo.det:.6e} [{elapsed:.1f}s]")


def test_criterion_8_sfs_rfs_agreement(third_order):
    t0 = time.monotonic()
    _, ss = third_order
    orbit = lc.find_symmetric_orbit(ss)
    T = orbit.period
    gamma = 1e5
    cfg = sfs.SfsConfig(gamma=gamma, rel_tol=1e-10, abs_tol=1e-12)
    sol = sfs.simulate_sfs(ss, cfg, orbit.anchor, 5 * T)

    # align at the last full-period upward output crossing of the smooth run
    ts = np.linspace(3.0 * T, 4.0 * T, 100_001)
    ys = ss.C @ sol.sol(ts)
    up = np.flatnonzero((ys[:-1] < 0) & (ys[1:] >= 0))
    lo, hi = ts[up[-1]], ts[up[-1] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(ss.C @ sol.sol(mid)) < 0:
            lo = mid
        else:
            hi = mid
    t_cross = 0.5 * (lo + hi)

    relay = RelaySystem(ss)
    grid = np.linspace(0.0, T, 4001)
    y_relay = np.where(
        grid <= orbit.half_period,
        relay.state(orbit.anchor, +1, np.minimum(grid, orbit.half_period)) @ ss.C,
        -relay.state(orbit.anchor, +1,
                          np.maximum(grid - orbit.half_period, 0.0)) @ ss.C)
    y_sfs = ss.C @ sol.sol(t_cross + grid)
    sup = float(np.max(np.abs(y_sfs - y_relay)))
    assert sup < 1e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(8, "smooth loop matches relay loop at gamma=1e5",
            f"sup_diff={sup:.3e} [{elapsed:.1f}s]")


def test_criterion_9_hyperbolicity_envelope(second_order):
    t0 = time.monotonic()
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda z: -z / np.cosh(z) ** 2,
                          bounds=(0.01, 5.0), method="bounded",
                          options={"xatol": 1e-12})
    peak = -res.fun
    assert abs(peak - 0.4478) <= 1e-4

    ss_min = realize(parse_plant([1], [1, 2]))  # stable, no crossing
    ok = sfs.hyperbolicity_check(ss_min, 1e3, 400)
    assert ok.hurwitz_everywhere

    _, ss = second_order
    bad = sfs.hyperbolicity_check(ss, 1e3, 400)
    assert not bad.hurwitz_everywhere
    assert abs(bad.witness_gain - 5.0) < 1e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(9, "hyperbolicity envelope + witness",
            f"peak={peak:.6f} witness={bad.witness_gain:.6f} [{elapsed:.1f}s]")


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    runner = CliRunner()
    plant = ["--num", "1,-1", "--den", "6,5,1"]
    commands = [
        ["classify"] + plant,
        ["bounds"] + plant,
        ["find-orbit"] + plant,
        ["fixed-point"] + plant + ["--seed", "5"],
        ["root-locus"] + plant + ["--gamma-max", "100"],
        ["monodromy"] + plant,
        ["sfs-sim"] + plant + ["--gamma", "50", "--x0", "0.1,0.1", "--t-end", "3"],
        ["sfs-sim"] + plant + ["--gamma", "1e5", "--x0", "0.1,0.1", "--t-end", "20"],
    ]
    for args in commands:
        a = runner.invoke(cli_main, args, catch_exceptions=False).output
        b = runner.invoke(cli_main, args, catch_exceptions=False).output
        assert a == b, f"non-deterministic output for {args[0]}"

    # commands that write files: each file of run a equals its twin of run b
    file_commands = [
        ["poincare-survey"] + plant + ["--count", "500", "--k", "1", "--seed", "7",
                                       "--out", "{}/survey.csv"],
        ["simulate"] + plant + ["--x0", "0.4,0.2", "--t-end", "8", "--out", "{}/traj.csv"],
        ["find-orbit"] + plant + ["--tau-min", "0.5", "--tau-max", "5",
                                  "--orbit-csv", "{}/orbit.csv"],
        ["root-locus"] + plant + ["--out", "{}/locus.csv",
                                  "--crossings-out", "{}/crossings.json"],
    ]
    for tag in ("a", "b"):
        (tmp_path / tag).mkdir()
        for args in file_commands:
            res = runner.invoke(cli_main, [a.format(tmp_path / tag) for a in args],
                                catch_exceptions=False)
            assert res.exit_code == 0, args[0]
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["crossings.json", "locus.csv", "orbit.csv", "survey.csv", "traj.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), \
            f"non-deterministic {name}"

    elapsed = time.monotonic() - t0
    _report(10, "seeded subcommands byte-identical", f"[{elapsed:.1f}s]")
