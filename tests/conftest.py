import numpy as np
import pytest

from relayosc import bounds as bounds_mod
from relayosc.plant import parse_plant, realize


@pytest.fixture(scope="session")
def second_order():
    """(-s+1)/(s^2+5s+6): the bounded-restless second-order example."""
    tf = parse_plant([1, -1], [6, 5])
    return tf, realize(tf)


@pytest.fixture(scope="session")
def third_order():
    """(-s+1)/(s^3+3s^2+5s+6): relative degree two, oscillates."""
    tf = parse_plant([1, -1, 0], [6, 5, 3])
    return tf, realize(tf)


@pytest.fixture(scope="session")
def third_order_brl():
    """-(s-1)(s+2)/((s+1)(s+2)(s+3)): third-order, relative degree one."""
    tf = parse_plant([2, -1, -1], [6, 11, 6])
    return tf, realize(tf)


@pytest.fixture(scope="session")
def first_order():
    """1/(s+1)."""
    tf = parse_plant([1], [1])
    return tf, realize(tf)


@pytest.fixture(scope="session")
def second_order_bounds(second_order):
    _, ss = second_order
    env = bounds_mod.decay_envelope(ss.A)
    return env, bounds_mod.bounds_report(ss, env)


@pytest.fixture(scope="session")
def third_order_bounds(third_order):
    _, ss = third_order
    env = bounds_mod.decay_envelope(ss.A)
    return env, bounds_mod.bounds_report(ss, env)


def make_stable_plant(rng, n=None):
    """Random strictly proper plant with all poles in the open left plane."""
    if n is None:
        n = int(rng.integers(1, 6))
    poles = []
    while len(poles) < n:
        if n - len(poles) >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.2, 4.0)
            im = rng.uniform(0.2, 4.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(0.2, 4.0), 0.0))
    den_full = np.real(np.poly(poles))          # descending, monic
    deg_num = int(rng.integers(0, n))
    num_desc = rng.uniform(-2.0, 2.0, size=deg_num + 1)
    if abs(num_desc[0]) < 0.1:
        num_desc[0] = 0.5
    num = num_desc[::-1].tolist()
    den = den_full[::-1][:-1].tolist()          # ascending, drop leading 1
    return parse_plant(num, den)


def make_brl_plant(rng, n=None):
    """Random bounded-restless plant: relative degree one, stable, positive
    DC gain, exactly one positive real zero."""
    if n is None:
        n = int(rng.integers(2, 5))
    poles = [complex(-rng.uniform(0.3, 3.0), 0.0) for _ in range(n)]
    zeros = [rng.uniform(0.2, 2.0)] + [-rng.uniform(0.3, 3.0) for _ in range(n - 2)]
    den = np.real(np.poly(poles))[::-1][:-1].tolist()
    c = -rng.uniform(0.2, 2.0)  # negative leading numerator coefficient
    num = (c * np.real(np.poly(zeros)))[::-1].tolist()
    return parse_plant(num, den)


def named_plant(name, request):
    """A fixture plant by fixture name, ``brl<n>`` for the seeded
    make_brl_plant draw of order n, or ``origin`` for 1/(s (s+1)^2)."""
    if name.startswith("brl"):
        n = int(name[3:])
        return realize(make_brl_plant(np.random.default_rng(100 + n), n))
    if name == "origin":
        return realize(parse_plant([1], [0, 1, 2]))
    return request.getfixturevalue(name)[1]
