"""Command-line toolkit: every analysis as a reproducible subcommand.

All subcommands are pure functions of (plant, flags, seed): repeated runs
produce byte-identical artifacts.  Numeric CSV outputs start with a comment
line naming the toolkit version and units; JSON payloads carry
``schema_version`` 1.  Exit codes: 0 success, 2 invalid plant, 3 analysis
error (structured JSON on stderr).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import sys

import click
import numpy as np

from . import __version__, bounds as bounds_mod, limit_cycle, poincare, sfs
from . import relay_dynamics
from .errors import PlantError, RelayOscError
from .plant import classify, parse_plant, realize

def _parse_coeffs(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise PlantError(f"malformed coefficient list {text!r}") from exc


def _load_plant(num, den, plant_file, descending):
    """Build (tf, ss) from inline flags or a JSON plant file.

    External interfaces carry the full ascending denominator including the
    leading coefficient; --descending flips both lists first.
    """
    if plant_file is not None:
        with open(plant_file) as fh:
            payload = json.load(fh)
        num_c = [float(v) for v in payload["num"]]
        den_c = [float(v) for v in payload["den"]]
    else:
        if num is None or den is None:
            raise PlantError("provide --num and --den, or --plant-file")
        num_c = _parse_coeffs(num)
        den_c = _parse_coeffs(den)
    if descending:
        num_c = num_c[::-1]
        den_c = den_c[::-1]
    tf = parse_plant(num_c, den_c, leading_included=True)
    return tf, realize(tf)


def _emit(text: str, out_path):
    if out_path is None:
        click.echo(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def exit_codes(fn):
    """Exit 2 on an invalid plant and 3 on an analysis error (including a
    matrix exponential that overflows), with the message as JSON on stderr."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (RelayOscError, ValueError, OverflowError) as exc:
            sys.stderr.write(_json_dumps({"schema_version": 1, "error": str(exc)}) + "\n")
            sys.exit(2 if isinstance(exc, PlantError) else 3)

    return wrapper


def plant_options(fn):
    fn = click.option("--num", default=None,
                      help="Numerator coefficients, ascending powers, comma-separated.")(fn)
    fn = click.option("--den", default=None,
                      help="Denominator coefficients, ascending powers including the "
                           "leading term, comma-separated.")(fn)
    fn = click.option("--plant-file", default=None, type=click.Path(exists=True),
                      help='JSON file {"num": [...], "den": [...]} (ascending).')(fn)
    fn = click.option("--descending", is_flag=True, default=False,
                      help="Interpret --num/--den in descending powers instead.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Relay feedback oscillation analysis toolkit."""


@main.command("classify")
@plant_options
@click.option("--out", default=None, type=click.Path())
@exit_codes
def cmd_classify(num, den, plant_file, descending, out):
    """Classify a plant (stability, DC gain, relative degree, class flags)."""
    tf, _ = _load_plant(num, den, plant_file, descending)
    pc = classify(tf)
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "is_stable": pc.is_stable,
        "dc_gain": pc.dc_gain,
        "relative_degree": pc.relative_degree,
        "n_positive_real_zeros": pc.n_positive_real_zeros,
        "is_brl_urf": pc.is_brl_urf,
        "poles": [[z.real, z.imag] for z in pc.poles],
        "zeros": [[z.real, z.imag] for z in pc.zeros],
    }
    _emit(_json_dumps(payload), out)


@main.command("simulate")
@plant_options
@click.option("--x0", required=True, help="Initial state, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dense-dt", type=float, default=0.01, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
@click.option("--events-out", default=None, type=click.Path(),
              help="JSON switch-event log path.")
@exit_codes
def cmd_simulate(num, den, plant_file, descending, x0, t_end, dense_dt, out, events_out):
    """Exact event-driven simulation of the relay loop."""
    _, ss = _load_plant(num, den, plant_file, descending)
    x0v = np.array(_parse_coeffs(x0))
    if x0v.shape != (ss.n,):
        raise PlantError(f"x0 must have length {ss.n}")
    traj, sliding = relay_dynamics.simulate(ss, x0v, t_end, dense_dt=dense_dt)
    if out is not None:
        relay_dynamics.trajectory_to_csv(traj, out, version=__version__)
    text = relay_dynamics.events_to_json(traj, sliding, version=__version__)
    _emit(text, events_out)


@main.command("bounds")
@plant_options
@click.option("--epsilon", type=float, default=None,
              help="Envelope margin; default 1e-3 * min |Re pole|.")
@click.option("--out", default=None, type=click.Path())
@exit_codes
def cmd_bounds(num, den, plant_file, descending, epsilon, out):
    """Decay envelope and all closed-form bound constants."""
    _, ss = _load_plant(num, den, plant_file, descending)
    env = bounds_mod.decay_envelope(ss.A, epsilon)
    rep = bounds_mod.bounds_report(ss, env)
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "m_initial": env.m_initial,
        "sigma_slowest": env.sigma_slowest,
        "epsilon_margin": env.epsilon_margin,
        "m_loose": rep.m_loose,
        "ball_radius": rep.ball_radius,
        "t_excursions_over": rep.t_excursions_over,
        "m_excursion": rep.m_excursion,
        "t_min_inter_switch": rep.t_min_inter_switch,
        "k_iterations": rep.k_iterations,
        "norm_A": rep.norm_A,
        "norm_B": rep.norm_B,
        "note": rep.note,
    }
    _emit(_json_dumps(payload), out)


@main.command("poincare-survey")
@plant_options
@click.option("--count", type=int, default=10_000, show_default=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
@exit_codes
def cmd_poincare_survey(num, den, plant_file, descending, count, k, seed, out):
    """Spectral statistics of return-map jacobians over the anchor region."""
    _, ss = _load_plant(num, den, plant_file, descending)
    env = bounds_mod.decay_envelope(ss.A)
    rep = bounds_mod.bounds_report(ss, env)
    samples, counters = poincare.spectral_survey(ss, rep, count, k, seed)
    if out is not None:
        poincare.survey_to_csv(samples, out, version=__version__)
        click.echo(_json_dumps({"schema_version": 1, "written": out,
                                "n_samples": len(samples), **counters}))
    else:
        poincare.survey_to_csv(samples, sys.stdout, version=__version__)


@main.command("fixed-point")
@plant_options
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--max-iter", type=int, default=200, show_default=True)
@click.option("--out", default=None, type=click.Path())
@exit_codes
def cmd_fixed_point(num, den, plant_file, descending, k, seed, tol, max_iter, out):
    """Fixed point of the k-switch return map from a seeded start in the
    anchor region."""
    _, ss = _load_plant(num, den, plant_file, descending)
    env = bounds_mod.decay_envelope(ss.A)
    rep = bounds_mod.bounds_report(ss, env)
    region = bounds_mod.anchor_region(ss, rep)
    x0 = bounds_mod.sample_anchor_region(region, 1, seed)[0]
    res = poincare.fixed_point_search(ss, rep, k, x0, max_iter, tol)
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "x_hat": [float(v) for v in res.x_hat],
        "k": res.k,
        "residual": res.residual,
        "iterations_used": res.iterations_used,
        "converged": res.converged,
        "start": [float(v) for v in x0],
    }
    _emit(_json_dumps(payload), out)


@main.command("find-orbit")
@plant_options
@click.option("--tau-min", type=float, default=None)
@click.option("--tau-max", type=float, default=None)
@click.option("--out", default=None, type=click.Path())
@click.option("--orbit-csv", default=None, type=click.Path(),
              help="Optional dense orbit CSV (t, x, u, y).")
@exit_codes
def cmd_find_orbit(num, den, plant_file, descending, tau_min, tau_max, out, orbit_csv):
    """Symmetric unimodal orbit: half-period, anchor, monodromy, multipliers."""
    _, ss = _load_plant(num, den, plant_file, descending)
    rng = (tau_min, tau_max) if tau_min is not None and tau_max is not None else None
    orbit = limit_cycle.find_symmetric_orbit(ss, rng)
    report = limit_cycle.monodromy_exact(ss, orbit)
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "half_period": orbit.half_period,
        "period": orbit.period,
        "anchor": [float(v) for v in orbit.anchor],
        "is_symmetric_unimodal": orbit.is_symmetric_unimodal,
        "peak_output": orbit.peak_output,
        "output_speeds": [[a, b] for a, b in orbit.output_speeds],
        "monodromy": [[float(v) for v in row] for row in report.matrix],
        "floquet_multipliers": [[m.real, m.imag] for m in report.floquet_multipliers],
        "det": report.det,
        "det_limit_formula": report.det_limit_formula,
        "trivial_multiplier_error": report.trivial_multiplier_error,
    }
    _emit(_json_dumps(payload), out)
    if orbit_csv is not None:
        ts = np.linspace(0.0, orbit.period, 2001)
        # the second half repeats the first with the sign flipped
        half = relay_dynamics.system_for(ss).flow.grid(orbit.anchor, +1, ts[1], 1001)
        with open(orbit_csv, "w", newline="") as fh:
            fh.write(f"# relayosc {__version__}; units: t in seconds\n")
            w = csv.writer(fh)
            w.writerow(["t"] + [f"x_{i+1}" for i in range(ss.n)] + ["u", "y"])
            for j, t in enumerate(ts):
                if t <= orbit.half_period:
                    x, u = half[j], 1.0
                else:
                    x, u = -half[j - 1000], -1.0
                w.writerow([repr(float(t))] + [repr(float(v)) for v in x]
                           + [repr(u), repr(float(ss.C @ x))])


@main.command("monodromy")
@plant_options
@click.option("--gamma", type=float, default=None,
              help="Also integrate the smooth-loop monodromy at this gain.")
@click.option("--out", default=None, type=click.Path())
@exit_codes
def cmd_monodromy(num, den, plant_file, descending, gamma, out):
    """Monodromy of the symmetric orbit (closed form, plus optional smooth
    integration at a finite gain)."""
    _, ss = _load_plant(num, den, plant_file, descending)
    orbit = limit_cycle.find_symmetric_orbit(ss)
    exact = limit_cycle.monodromy_exact(ss, orbit)
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "half_period": orbit.half_period,
        "exact": {
            "det": exact.det,
            "det_limit_formula": exact.det_limit_formula,
            "floquet_multipliers": [[m.real, m.imag] for m in exact.floquet_multipliers],
            "trivial_multiplier_error": exact.trivial_multiplier_error,
        },
    }
    if gamma is not None:
        flo = limit_cycle.monodromy_floquet(ss, gamma, orbit)
        payload["floquet"] = {
            "gamma": gamma,
            "det": flo.det,
            "liouville_det": flo.det_limit_formula,
            "floquet_multipliers": [[m.real, m.imag] for m in flo.floquet_multipliers],
            "trivial_multiplier_error": flo.trivial_multiplier_error,
            "period": flo.period,
        }
    _emit(_json_dumps(payload), out)


@main.command("root-locus")
@plant_options
@click.option("--gamma-max", type=float, default=1e3, show_default=True)
@click.option("--points", type=int, default=400, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV of eigen tracks.")
@click.option("--crossings-out", default=None, type=click.Path(),
              help="JSON crossing list.")
@exit_codes
def cmd_root_locus(num, den, plant_file, descending, gamma_max, points, out, crossings_out):
    """Closed-loop eigenvalue tracks over the gain and their axis crossings."""
    _, ss = _load_plant(num, den, plant_file, descending)
    scan = sfs.root_locus(ss, gamma_max, points)
    if out is not None:
        with open(out, "w", newline="") as fh:
            fh.write(f"# relayosc {__version__}; gamma dimensionless, "
                     "eigenvalues in 1/seconds\n")
            w = csv.writer(fh)
            n = ss.n
            w.writerow(["gamma"] + [f"re_{i+1}" for i in range(n)]
                       + [f"im_{i+1}" for i in range(n)])
            for g, lam in zip(scan.gamma_grid, scan.eigen_tracks):
                w.writerow([repr(float(g))] + [repr(float(v)) for v in lam.real]
                           + [repr(float(v)) for v in lam.imag])
    payload = {
        "schema_version": 1,
        "toolkit_version": __version__,
        "crossings": [
            {"gamma0": c.gamma0, "omega0": c.omega0, "direction": c.direction,
             "multiplicity_parity": c.multiplicity_parity, "kind": c.kind}
            for c in scan.crossings
        ],
    }
    _emit(_json_dumps(payload), crossings_out)


@main.command("sfs-sim")
@plant_options
@click.option("--gamma", type=float, required=True)
@click.option("--x0", required=True, help="Initial state, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dense-dt", type=float, default=0.01, show_default=True)
@click.option("--rel-tol", type=float, default=1e-9, show_default=True)
@click.option("--abs-tol", type=float, default=1e-12, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
@exit_codes
def cmd_sfs_sim(num, den, plant_file, descending, gamma, x0, t_end, dense_dt,
                rel_tol, abs_tol, out):
    """Simulate the smooth tanh approximation of the relay loop."""
    _, ss = _load_plant(num, den, plant_file, descending)
    x0v = np.array(_parse_coeffs(x0))
    if x0v.shape != (ss.n,):
        raise PlantError(f"x0 must have length {ss.n}")
    cfg = sfs.SfsConfig(gamma=gamma, rel_tol=rel_tol, abs_tol=abs_tol)
    sol = sfs.simulate_sfs(ss, cfg, x0v, t_end)
    ts = np.arange(0.0, t_end + dense_dt / 2, dense_dt)
    ts[-1] = min(ts[-1], t_end)
    xs = sol.sol(ts)
    stream = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    with stream as fh:
        fh.write(f"# relayosc {__version__}; units: t in seconds\n")
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x_{i+1}" for i in range(ss.n)] + ["u", "y"])
        for j, t in enumerate(ts):
            y = float(ss.C @ xs[:, j])
            u = float(np.tanh(gamma * y))  # relay output; the loop feeds back -u
            w.writerow([repr(float(t))] + [repr(float(v)) for v in xs[:, j]]
                       + [repr(u), repr(y)])


if __name__ == "__main__":
    main()
