"""Pseudo-Lindley distribution toolkit.

Evaluation, sampling, method-of-moments fitting, tail-index estimation
(Hill and weighted-spacing variants), record-value asymptotics, and a
deterministic Monte Carlo harness checking each limit theorem.

The package exports the ``__all__`` of each library module below;
``plevt.gof`` and ``plevt.cli`` are imported from their modules.
"""

from .distribution import *
from .errors import *
from .harness import *
from .quantile import *
from .records import *
from .sampling import *
from .tail import *

__version__ = "0.1.0"

# ``+=`` of a module's ``__all__`` is the form static checkers read as a re-export
__all__ = ["__version__"]
__all__ += distribution.__all__
__all__ += errors.__all__
__all__ += harness.__all__
__all__ += quantile.__all__
__all__ += records.__all__
__all__ += sampling.__all__
__all__ += tail.__all__
