"""Command-line toolkit: every analysis as a reproducible subcommand.

All subcommands are pure functions of (plant, flags, seed): repeated runs
produce byte-identical artifacts.  Numeric CSV outputs start with a comment
line naming the toolkit version and units; JSON payloads carry
``schema_version`` 1.  Exit codes: 0 success, 2 invalid plant, 3 analysis
error (structured JSON on stderr).
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import __version__, bounds as bounds_mod, limit_cycle, poincare, sfs
from . import relay_dynamics
from .artifacts import dumps, json_artifact, write_csv
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
        try:
            with open(plant_file) as fh:
                payload = json.load(fh)
            num_c, den_c = payload["num"], payload["den"]
            if not all(isinstance(c, list) and all(isinstance(v, (int, float)) for v in c)
                       for c in (num_c, den_c)):
                raise TypeError("num and den must be lists of numbers")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise PlantError(f'plant file needs a JSON object {{"num": [...], "den": [...]}} '
                             f"of numbers ({type(exc).__name__}: {exc})") from exc
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


def _parse_x0(text: str, n: int) -> np.ndarray:
    x0 = np.array(_parse_coeffs(text))
    if x0.shape != (n,):
        raise PlantError(f"x0 must have length {n}")
    return x0


@click.group()
@click.version_option(__version__)
def main():
    """Relay feedback oscillation analysis toolkit."""


_PLANT_OPTIONS = (
    click.option("--num", default=None,
                 help="Numerator coefficients, ascending powers, comma-separated."),
    click.option("--den", default=None,
                 help="Denominator coefficients, ascending powers including the "
                      "leading term, comma-separated."),
    click.option("--plant-file", default=None, type=click.Path(exists=True),
                 help='JSON file {"num": [...], "den": [...]} (ascending).'),
    click.option("--descending", is_flag=True, default=False,
                 help="Interpret --num/--den in descending powers instead."),
)


def plant_command(name: str):
    """Register the subcommand ``name`` with the plant options.  Its body
    gets the loaded plant as (tf, ss) and its own options; an invalid plant
    exits 2 and an analysis error (including a matrix exponential that
    overflows) 3, with the message as JSON on stderr."""

    def register(body):
        @functools.wraps(body)
        def callback(num, den, plant_file, descending, **opts):
            try:
                return body(*_load_plant(num, den, plant_file, descending), **opts)
            except (RelayOscError, ValueError, OverflowError) as exc:
                sys.stderr.write(dumps({"schema_version": 1, "error": str(exc)}) + "\n")
                sys.exit(2 if isinstance(exc, PlantError) else 3)

        for option in _PLANT_OPTIONS:
            callback = option(callback)
        return main.command(name)(callback)

    return register


@plant_command("classify")
@click.option("--out", default=None, type=click.Path())
def cmd_classify(tf, ss, out):
    """Classify a plant (stability, DC gain, relative degree, class flags)."""
    _emit(json_artifact(vars(classify(tf)), __version__), out)


@plant_command("simulate")
@click.option("--x0", required=True, help="Initial state, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dense-dt", type=float, default=0.01, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
@click.option("--events-out", default=None, type=click.Path(),
              help="JSON switch-event log path.")
def cmd_simulate(tf, ss, x0, t_end, dense_dt, out, events_out):
    """Exact event-driven simulation of the relay loop."""
    traj, sliding = relay_dynamics.simulate(ss, _parse_x0(x0, ss.n), t_end,
                                            dense_dt=dense_dt)
    if out is not None:
        relay_dynamics.trajectory_to_csv(traj, out, version=__version__)
    text = relay_dynamics.events_to_json(traj, sliding, version=__version__)
    _emit(text, events_out)


@plant_command("bounds")
@click.option("--epsilon", type=float, default=None,
              help="Envelope margin; default 1e-3 * min |Re pole|.")
@click.option("--out", default=None, type=click.Path())
def cmd_bounds(tf, ss, epsilon, out):
    """Decay envelope and all closed-form bound constants."""
    env = bounds_mod.decay_envelope(ss.A, epsilon)
    rep = bounds_mod.bounds_report(ss, env)
    _emit(json_artifact({**vars(env), **vars(rep)}, __version__), out)


@plant_command("poincare-survey")
@click.option("--count", type=int, default=10_000, show_default=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
def cmd_poincare_survey(tf, ss, count, k, seed, out):
    """Spectral statistics of return-map jacobians over the anchor region."""
    env = bounds_mod.decay_envelope(ss.A)
    rep = bounds_mod.bounds_report(ss, env)
    samples, counters = poincare.spectral_survey(ss, rep, count, k, seed)
    if out is not None:
        poincare.survey_to_csv(samples, out, version=__version__)
        click.echo(dumps({"schema_version": 1, "written": out,
                          "n_samples": len(samples), **counters}))
    else:
        poincare.survey_to_csv(samples, sys.stdout, version=__version__)


@plant_command("fixed-point")
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--max-iter", type=int, default=200, show_default=True)
@click.option("--out", default=None, type=click.Path())
def cmd_fixed_point(tf, ss, k, seed, tol, max_iter, out):
    """Fixed point of the k-switch return map from a seeded start in the
    anchor region."""
    env = bounds_mod.decay_envelope(ss.A)
    rep = bounds_mod.bounds_report(ss, env)
    region = bounds_mod.anchor_region(ss, rep)
    x0 = bounds_mod.sample_anchor_region(region, 1, seed)[0]
    res = poincare.fixed_point_search(ss, rep, k, x0, max_iter, tol)
    payload = {
        "x_hat": res.x_hat,
        "k": res.k,
        "residual": res.residual,
        "iterations_used": res.iterations_used,
        "converged": res.converged,
        "start": x0,
    }
    _emit(json_artifact(payload, __version__), out)


@plant_command("find-orbit")
@click.option("--tau-min", type=float, default=None)
@click.option("--tau-max", type=float, default=None)
@click.option("--out", default=None, type=click.Path())
@click.option("--orbit-csv", default=None, type=click.Path(),
              help="Optional dense orbit CSV (t, x, u, y).")
def cmd_find_orbit(tf, ss, tau_min, tau_max, out, orbit_csv):
    """Symmetric unimodal orbit: half-period, anchor, monodromy, multipliers."""
    if (tau_min is None) != (tau_max is None):
        raise ValueError("--tau-min and --tau-max must be given together")
    rng = (tau_min, tau_max) if tau_min is not None else None
    orbit = limit_cycle.find_symmetric_orbit(ss, rng)
    report = limit_cycle.monodromy_exact(ss, orbit)
    payload = {
        **vars(orbit),
        "monodromy": report.matrix,
        "floquet_multipliers": report.floquet_multipliers,
        "det": report.det,
        "det_limit_formula": report.det_limit_formula,
        "trivial_multiplier_error": report.trivial_multiplier_error,
    }
    _emit(json_artifact(payload, __version__), out)
    if orbit_csv is not None:
        ts = np.linspace(0.0, orbit.period, 2001)
        # the second half repeats the first with the sign flipped
        half = relay_dynamics.system_for(ss).grid(orbit.anchor, +1, ts[1], 1001)
        first = ts <= orbit.half_period
        j = np.arange(2001)
        xs = np.where(first[:, None], half[np.minimum(j, 1000)], -half[j - 1000])
        write_csv(orbit_csv, __version__, "units: t in seconds",
                  ["t"] + [f"x_{i+1}" for i in range(ss.n)] + ["u", "y"],
                  [ts, *xs.T, np.where(first, 1.0, -1.0), xs @ ss.C])


@plant_command("monodromy")
@click.option("--gamma", type=float, default=None,
              help="Also integrate the smooth-loop monodromy at this gain.")
@click.option("--out", default=None, type=click.Path())
def cmd_monodromy(tf, ss, gamma, out):
    """Monodromy of the symmetric orbit (closed form, plus optional smooth
    integration at a finite gain)."""
    orbit = limit_cycle.find_symmetric_orbit(ss)
    exact = limit_cycle.monodromy_exact(ss, orbit)
    payload = {
        "half_period": orbit.half_period,
        "exact": {
            "det": exact.det,
            "det_limit_formula": exact.det_limit_formula,
            "floquet_multipliers": exact.floquet_multipliers,
            "trivial_multiplier_error": exact.trivial_multiplier_error,
        },
    }
    if gamma is not None:
        flo = limit_cycle.monodromy_floquet(ss, gamma, orbit)
        payload["floquet"] = {
            "gamma": gamma,
            "det": flo.det,
            "liouville_det": flo.det_limit_formula,
            "floquet_multipliers": flo.floquet_multipliers,
            "trivial_multiplier_error": flo.trivial_multiplier_error,
            "period": flo.period,
        }
    _emit(json_artifact(payload, __version__), out)


@plant_command("root-locus")
@click.option("--gamma-max", type=float, default=1e3, show_default=True)
@click.option("--points", type=int, default=400, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV of eigen tracks.")
@click.option("--crossings-out", default=None, type=click.Path(),
              help="JSON crossing list.")
def cmd_root_locus(tf, ss, gamma_max, points, out, crossings_out):
    """Closed-loop eigenvalue tracks over the gain and their axis crossings."""
    scan = sfs.root_locus(ss, gamma_max, points)
    if out is not None:
        write_csv(out, __version__, "gamma dimensionless, eigenvalues in 1/seconds",
                  ["gamma"] + [f"re_{i+1}" for i in range(ss.n)]
                  + [f"im_{i+1}" for i in range(ss.n)],
                  [scan.gamma_grid, *scan.eigen_tracks.real.T, *scan.eigen_tracks.imag.T])
    _emit(json_artifact({"crossings": [vars(c) for c in scan.crossings]}, __version__),
          crossings_out)


@plant_command("sfs-sim")
@click.option("--gamma", type=float, required=True)
@click.option("--x0", required=True, help="Initial state, comma-separated.")
@click.option("--t-end", type=float, required=True)
@click.option("--dense-dt", type=float, default=0.01, show_default=True)
@click.option("--rel-tol", type=float, default=1e-9, show_default=True)
@click.option("--abs-tol", type=float, default=1e-12, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="CSV output path.")
def cmd_sfs_sim(tf, ss, gamma, x0, t_end, dense_dt, rel_tol, abs_tol, out):
    """Simulate the smooth tanh approximation of the relay loop."""
    if not 0.0 < dense_dt < math.inf:
        raise ValueError(f"dense_dt must be finite and positive, got {dense_dt!r}")
    cfg = sfs.SfsConfig(gamma=gamma, rel_tol=rel_tol, abs_tol=abs_tol)
    sol = sfs.simulate_sfs(ss, cfg, _parse_x0(x0, ss.n), t_end)
    ts = np.arange(0.0, t_end + dense_dt / 2, dense_dt)
    # the grid ends at t_end: its last point, if not the start, moves there from
    # past it or from within 1e-6 dense_dt short of it (roundoff), else t_end is added
    if len(ts) == 1 or ts[-1] < t_end - 1e-6 * dense_dt:
        ts = np.append(ts, t_end)
    ts[-1] = t_end
    xs = sol.sol(ts)
    ys = ss.C @ xs
    # u is the relay output; the loop feeds back -u
    write_csv(sys.stdout if out is None else out, __version__, "units: t in seconds",
              ["t"] + [f"x_{i+1}" for i in range(ss.n)] + ["u", "y"],
              [ts, *xs, np.tanh(gamma * ys), ys])


if __name__ == "__main__":
    main()
