"""Environment fingerprint: make every recorded artifact attributable.

Run manifests, bench records, and incident bundles are only useful
post-mortems when you know *what build* produced them — the same seeded
run can legitimately differ across BLAS implementations, and the
``REPRO_*`` feature flags change which kernels execute (never the
numbers, but very much the timings). :func:`environment_fingerprint`
collects the identifying facts in one JSON-able dict:

* interpreter: python version and implementation;
* numeric stack: numpy and scipy versions, the BLAS backing numpy;
* host shape: platform triple and visible CPU count;
* feature flags: every ``REPRO_*`` environment variable that is set.

The fingerprint is stamped into every manifest's ``manifest_start``
record (:mod:`repro.telemetry.manifest` and the streaming writer) and
into every incident bundle's ``incident_start`` record
(:mod:`repro.telemetry.flight`); ``repro-edge doctor`` surfaces it at
the top of the post-mortem. Collecting it reads interpreter metadata
only — it never changes computed results.
"""

from __future__ import annotations

import os
import platform
import sys
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1)
def _blas_name() -> str:
    """Best-effort name of the BLAS/LAPACK backing numpy.

    numpy has changed this API repeatedly; every probe is wrapped so an
    unknown layout degrades to ``"unknown"`` instead of an error.
    """
    try:  # numpy >= 1.26: structured config dict
        config = np.show_config(mode="dicts")  # type: ignore[call-arg]
        blas = (config.get("Build Dependencies") or {}).get("blas") or {}
        name = blas.get("name")
        if name:
            return str(name)
    except Exception:
        pass
    try:  # older numpy: np.__config__ info dicts
        info = np.__config__.get_info("blas_opt_info")  # type: ignore[attr-defined]
        libraries = info.get("libraries")
        if libraries:
            return str(libraries[0])
    except Exception:
        pass
    return "unknown"


def _scipy_version() -> str | None:
    try:
        import scipy

        return str(scipy.__version__)
    except Exception:  # scipy is optional everywhere in this project
        return None


def environment_fingerprint() -> dict:
    """The identifying facts of this process's build, as a JSON-able dict.

    The ``repro_flags`` entry holds every ``REPRO_*`` environment
    variable currently set (e.g. ``REPRO_BENCH_USERS``), so recorded
    artifacts distinguish runs made under different settings.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": str(np.__version__),
        "scipy": _scipy_version(),
        "blas": _blas_name(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
        "repro_flags": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }
