"""The span tracer of bench/tracing.py patches the package by name: the public
functions of its modules, the methods of ``RelaySystem`` it lists and the
callbacks of the CLI subcommands.  These tests run it against the package, so
that a rename breaks here and not only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from relayosc import cli, poincare
from relayosc.plant import parse_plant, realize
from relayosc.relay_dynamics import RelaySystem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    yield module
    sys.modules.pop("tracing", None)


def _bindings():
    """Every name bound in the package's modules, on ``RelaySystem`` and as
    a CLI callback, with the object it is bound to."""
    names = {(mod, attr): obj for mod, m in list(sys.modules.items())
             if mod == "relayosc" or mod.startswith("relayosc.")
             for attr, obj in vars(m).items()}
    names.update((("RelaySystem", attr), obj) for attr, obj in vars(RelaySystem).items())
    names.update((("cli", name), c.callback) for name, c in cli.main.commands.items())
    return names


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def test_tracer_records_spans_and_restores_the_package(tracing):
    assert set(tracing.RELAY_SYSTEM_METHODS) <= set(vars(RelaySystem))
    assert set(tracing.CLI_COMMANDS) <= set(cli.main.commands)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert poincare.jacobians is not before[("relayosc.poincare", "jacobians")]
        ss = realize(parse_plant([1, -1], [6, 5]))
        pair = poincare.jacobians(ss, np.array([2.5, 0.0]))
        assert pair.exact.shape == (2, 2)
        res = CliRunner().invoke(cli.main, ["fixed-point", "--num", "1,-1", "--den", "6,5,1",
                                            "--max-iter", "3"], catch_exceptions=False)
        assert res.exit_code == 0
        summary = tracer.summary()
    finally:
        tracer.uninstall()

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "poincare.jacobians"
    assert "cli.fixed-point" in names and "poincare.fixed_point_search" in names
    assert all(end is not None and end >= start for _, start, end, _ in spans)
    exits = [i for i, name in enumerate(names) if name == "relay_dynamics.exit_event"]
    assert exits and all({"poincare.fixed_point_search", "cli.fixed-point"}
                         <= set(_ancestors(spans, i)) for i in exits)
    assert summary["poincare.jacobians.calls"] == 1
    assert summary["poincare.fixed_point_search.iterations"] == 3
    assert summary["poincare.fixed_point_search.exits_per_iteration"] > 0

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
