"""Exception hierarchy for the relayosc toolkit.

Every error raised by the library derives from :class:`RelayOscError`, so
callers (including the CLI) can distinguish toolkit failures from plain
programming errors.
"""


class RelayOscError(Exception):
    """Base class for all toolkit errors."""


class PlantError(RelayOscError, ValueError):
    """Invalid plant description (improper, empty, malformed coefficients)."""


class MarginalPoleError(PlantError):
    """A pole sits exactly at the origin (a0 = 0), where the DC gain that
    the classification reports is undefined."""


class NoCrossingError(RelayOscError):
    """The output never crosses zero before the search horizon (quiescent)."""


class InvalidStartError(RelayOscError):
    """Starting state violates the sign precondition of an exit computation."""


class NonTransversalError(RelayOscError):
    """The trajectory meets the switching plane with (numerically) zero
    output speed, so plane-crossing linearizations are undefined."""


class StiffnessError(RelayOscError):
    """Adaptive integration exceeded its stiffness budget (step underflow)."""


class NoOrbitError(RelayOscError):
    """No symmetric unimodal orbit candidate was found."""


class DivergenceError(RelayOscError):
    """Fixed-point iteration diverged; carries the escaping iterate."""

    def __init__(self, message, iterate=None, iteration=None):
        super().__init__(message)
        self.iterate = iterate
        self.iteration = iteration


class DegenerateOrbitError(RelayOscError):
    """Orbit data is degenerate (e.g. output speed ~ 0 at a switch)."""


class ShootingError(RelayOscError):
    """Newton shooting for a smooth-system orbit failed to converge."""
