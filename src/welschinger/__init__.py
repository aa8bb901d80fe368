"""Exact Welschinger invariants of the plane and the ellipsoid quadrics.

The invariant chi^d_r is a signed count of real rational curves of degree d
through r real points and the complementary number of conjugate point pairs.
This package computes it by enumerating the decorated trees that encode
two-stage limits of such curves under neck stretching along a real
Lagrangian (RP^2, S^2 or S^3), and combining curated relative curve counts
on ruled surfaces with open invariants of cotangent bundles.  Everything is
arbitrary-precision integer arithmetic; there is no floating point anywhere.

Each module's ``__all__`` lists its public names, and the package re-exports
every one of them: ``welschinger.__all__`` is those lists in module order.
"""

from . import assembly, contact, cotangent, errors, relative, trees, verification
from .assembly import *  # noqa: F403
from .contact import *  # noqa: F403
from .cotangent import *  # noqa: F403
from .errors import *  # noqa: F403
from .relative import *  # noqa: F403
from .trees import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for m in (assembly, contact, cotangent, errors, relative, trees, verification) for name in m.__all__]
