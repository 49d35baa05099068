"""Treatment-effect heterogeneity from fused trial and observational data.

The package estimates a parametric treatment-effect curve together with
a parametric confounding curve for the observational source by solving
weighted estimating equations over the combined sample, with sandwich
standard errors, an averaged-effect summary, a precision comparison
against the trial-only fit, and a score-type specification test.  A
Monte Carlo harness reproduces the built-in synthetic study.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .errors import *
from .model import *
from .nuisance import *
from .estimators import *
from .inference import *
from .simulation import *
from .io import *

# Importing the submodules binds their names here too; star imports leave
# them out so that ``io`` and the like never shadow standard modules.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)] + ["__version__"]
