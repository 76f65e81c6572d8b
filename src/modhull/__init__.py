"""modhull: exact geometry of modular hyperbolas.

Builds the point sets H_a(m) = {(x, y) : xy = a (mod m), 1 <= x, y <= m-1},
their convex closures and vertex counts, a certificate-checked hull search
over the points near the corners that avoids full enumeration for large
moduli, conic detection by integer linear algebra, exact quadratic-curve
point counting, and batch sweep tooling with a reproducible CSV contract.

The package republishes every public name of its library modules: each
module's __all__ is the one list of its API.  The command line, modhull.cli,
is not imported with the package.
"""

from ._version import __version__
from .conics import *
from .experiments import *
from .geometry import *
from .hullfast import *
from .hyperbola import *
from .ntheory import *
