"""Span tracer that wraps relayosc's public functions from outside the package.

``install`` replaces, at call time, every public function of the traced
modules (and every name in the package bound to one, so ``from .x import f``
references are covered), the public methods of ``RelaySystem`` and the
callbacks of the CLI subcommands with wrappers that record a span
(name, start, end, parent) in memory.  The wrappers return the wrapped
function's result unchanged; the one for ``find_first_root`` also counts the
points at which the function handed to it is evaluated.  ``uninstall`` puts
the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

MODULES = ("plant", "numerics", "relay_dynamics", "bounds", "poincare", "limit_cycle", "sfs")
RELAY_SYSTEM_METHODS = ("exit_time", "exit_event", "exit_map", "kth_exit_map", "simulate")
CLI_COMMANDS = ("bounds", "poincare-survey", "fixed-point", "find-orbit", "monodromy")

SELF_TIMES = (
    "numerics.expm", "numerics.find_first_root", "numerics.integrate_adaptive",
    "relay_dynamics.exit_event", "relay_dynamics.simulate", "relay_dynamics.trajectory_to_csv",
    "bounds.decay_envelope", "bounds.sample_anchor_region",
    "poincare.jacobians", "poincare.fixed_point_search",
    "limit_cycle.find_symmetric_orbit", "limit_cycle.monodromy_exact",
    "limit_cycle.monodromy_floquet",
    "sfs.root_locus", "sfs.hopf_classify", "sfs.hyperbolicity_check", "sfs.simulate_sfs",
    "sfs.describing_locus",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)
CALLS = ("numerics.expm", "numerics.find_first_root", "numerics.eigendecompose",
         "numerics.integrate_adaptive", "relay_dynamics.exit_event", "bounds.decay_envelope",
         "poincare.jacobians")

#: Every per-layer metric of a traced run, with its unit, in report order.
PER_LAYER = (
    [("relayosc.import_s", "s")]
    + [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.self_s", "s") for n in SELF_TIMES]
    + [("numerics.find_first_root.evals_per_call", "count"),
       ("numerics.integrate_adaptive.nfev", "count"),
       ("relay_dynamics.exit_event.us_p50", "us"),
       ("relay_dynamics.exit_event.us_p99", "us"),
       ("poincare.spectral_survey.ms_per_point", "ms"),
       ("poincare.exits_per_point", "count"),
       ("poincare.fixed_point_search.iterations", "count"),
       ("poincare.fixed_point_search.exits_per_iteration", "count"),
       ("trace.overhead_s", "s"),
       ("round.cpu_s", "s"),
       ("round.wall_s", "s"),
       ("calibration.sample_s", "s")]
)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {"evals": 0, "nfev": 0, "iterations": 0, "points": 0}
        self._open: list[int] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args, kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(f"relayosc.{modname}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{modname}.{attr}", obj))
        package = [m for n, m in list(sys.modules.items())
                   if n == "relayosc" or n.startswith("relayosc.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        relay_system = importlib.import_module("relayosc.relay_dynamics").RelaySystem
        for meth in RELAY_SYSTEM_METHODS:
            fn = relay_system.__dict__[meth]
            self._patch(relay_system, meth, self._wrap(f"relay_dynamics.{meth}", fn))
        cli = importlib.import_module("relayosc.cli")
        for name, command in cli.main.commands.items():
            self._patch(command, "callback", self._wrap(f"cli.{name}", command.callback))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-round summary --------------------------------------------------
    def summary(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1

        exit_us = []
        under = {"poincare.spectral_survey": 0, "poincare.fixed_point_search": 0}
        survey_s = 0.0
        for name, start, end, parent in spans:
            if name == "poincare.spectral_survey":
                survey_s += end - start
            if name != "relay_dynamics.exit_event":
                continue
            exit_us.append((end - start) * 1e6)
            seen = set()
            while parent >= 0:
                pname = spans[parent][0]
                if pname in under and pname not in seen:
                    under[pname] += 1
                    seen.add(pname)
                parent = spans[parent][3]

        c = self.counts
        m = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
        m.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES})
        ffr_calls = calls.get("numerics.find_first_root", 0)
        m["numerics.find_first_root.evals_per_call"] = c["evals"] / ffr_calls if ffr_calls else 0.0
        m["numerics.integrate_adaptive.nfev"] = c["nfev"]
        m["relay_dynamics.exit_event.us_p50"] = _percentile(exit_us, 50)
        m["relay_dynamics.exit_event.us_p99"] = _percentile(exit_us, 99)
        m["poincare.spectral_survey.ms_per_point"] = (survey_s * 1e3 / c["points"]
                                                      if c["points"] else 0.0)
        m["poincare.exits_per_point"] = (under["poincare.spectral_survey"] / c["points"]
                                         if c["points"] else 0.0)
        m["poincare.fixed_point_search.iterations"] = c["iterations"]
        m["poincare.fixed_point_search.exits_per_iteration"] = (
            under["poincare.fixed_point_search"] / c["iterations"] if c["iterations"] else 0.0)
        return m


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _count_evals(tracer, args, kwargs):
    """Hands find_first_root a function that counts the points it is
    evaluated at (each point of a vectorized batch counted)."""
    f = args[0]

    def counted(t):
        tracer.counts["evals"] += int(np.size(t))
        return f(t)

    return (counted,) + tuple(args[1:])


def _count_points(tracer, args, kwargs):
    tracer.counts["points"] += int(args[2] if len(args) > 2 else kwargs["count"])
    return args


def _count_nfev(tracer, result):
    tracer.counts["nfev"] += int(result.nfev)


def _count_iterations(tracer, result):
    tracer.counts["iterations"] += int(result.iterations_used)


#: (before, after) hooks: ``before`` may replace the positional arguments,
#: ``after`` sees the result.  Neither changes what the caller receives.
_HOOKS = {
    "numerics.find_first_root": (_count_evals, None),
    "poincare.spectral_survey": (_count_points, None),
    "numerics.integrate_adaptive": (None, _count_nfev),
    "poincare.fixed_point_search": (None, _count_iterations),
}


def median_of_rounds(summaries: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
