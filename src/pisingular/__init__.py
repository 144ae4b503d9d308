"""Exact pi-adic arithmetic, Galois eigentheory, and congruence verification
in prime cyclotomic rings Z[z]/(Phi_p), both exactly and modulo p^K."""

from . import context, eigen, padic, ring, units, verifier
from .context import *  # noqa: F401,F403
from .eigen import *  # noqa: F401,F403
from .padic import *  # noqa: F401,F403
from .ring import *  # noqa: F401,F403
from .units import *  # noqa: F401,F403
from .verifier import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *context.__all__,
    *ring.__all__,
    *padic.__all__,
    *eigen.__all__,
    *units.__all__,
    *verifier.__all__,
    "__version__",
]
