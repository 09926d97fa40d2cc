"""Metric-spinor convention: epsilon components and displacement sides.

The convention is fixed once for the whole package:

* ``eps_low[0,1] = eps_up[0,1] = +1`` (antisymmetric),
* raising contracts on the right slot of ``eps_up``:   xi^A = eps^{AB} xi_B,
* lowering contracts on the left slot of ``eps_low``:  xi_B = xi^A eps_{AB}.

With these choices raise-then-lower is the identity and
``eps^{AB} eps_{CB} = delta^A_C`` holds exactly.  Primed slots use the
numerically identical matrices.  ``EPS_LOW`` and ``EPS_UP`` are read-only
complex arrays of the integer table :data:`~spinorwave.core.indices.EPS`.
"""

from __future__ import annotations

import numpy as np

from .indices import EPS

EPS_LOW = np.array(EPS, dtype=complex)
EPS_UP = np.array(EPS, dtype=complex)
EPS_LOW.setflags(write=False)
EPS_UP.setflags(write=False)
