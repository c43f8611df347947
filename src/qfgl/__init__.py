"""qfgl: exact computer algebra for a q-deformed formal group law.

Modules cover exact scalar arithmetic over Q(s) with q = s**2, truncated
power series, Moebius actions, the group law itself, q-series
combinatorics, lambda-ring operations and Hodge/representation-ring
checks on products of projective spaces.  Everything is exact; no
floating point is used anywhere.
"""

from .scalar import *
from .series import *
from .mobius import *
from .fgl import *
from .qcomb import *
from .lambda_ring import *
from .varieties import *
from .report import *
from .expr import *

__version__ = "0.1.0"
