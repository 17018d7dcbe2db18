"""Hot-loop kernel selection: compiled extension when available, numpy otherwise.

Set KACZLAB_PURE_PYTHON=1 to force the fallback (used by the kernel benchmark
and the cross-backend parity tests).
"""

import os

from . import _trial_py

if os.environ.get("KACZLAB_PURE_PYTHON"):
    _impl = _trial_py
    BACKEND = "python"
else:
    try:
        from . import _trial as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _trial_py
        BACKEND = "python"

run_trial_errors = _impl.run_trial_errors
run_trial_errors_python = _trial_py.run_trial_errors
