"""Thermal Casimir effect for a cavity comoving on an equatorial Kerr orbit.

A small Dirichlet cavity rides a circular equatorial orbit around a
rotating source.  This package evaluates the renormalized Casimir free
energy, entropy and internal energy of a massless scalar field in that
cavity at finite temperature, together with the underlying equatorial
Kerr geometry, the cavity mode spectrum, low/high-temperature
asymptotics, and brute-force oracles that re-derive every closed form.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all and its ``__all__`` is their concatenation.

Natural units throughout: hbar = c = G = k_B = 1.
"""

from . import asymptotic, errors, geometry, modes, oracles, sweep, thermal
from .asymptotic import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .modes import *  # noqa: F403
from .oracles import *  # noqa: F403
from .sweep import *  # noqa: F403
from .thermal import *  # noqa: F403

__all__ = [
    name
    for module in (asymptotic, errors, geometry, modes, oracles, sweep, thermal)
    for name in module.__all__
]

__version__ = "0.1.0"
