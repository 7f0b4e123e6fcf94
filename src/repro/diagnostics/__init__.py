"""Algorithm-quality observability: optimality certificates, competitive-
ratio tracking, and solver convergence summaries.

Where :mod:`repro.telemetry` observes *how the code ran* (wall time,
counters, traces), this package observes *how good the answers were*:

* :mod:`repro.diagnostics.certificates` — per-slot KKT residuals and a
  rigorous duality-gap bound for every P2 solve, from the backends' own
  multipliers;
* :mod:`repro.diagnostics.ratio` — the running empirical competitive
  ratio against Theorem 2's certified ``1 + gamma |I|`` bound, flagging
  any prefix that violates it;
* :mod:`repro.diagnostics.convergence` — summaries of the interior-point
  solver's per-iteration residual series (recorded into manifests as
  ``solver.ipm.trace`` events).

Everything observes; nothing feeds back. Runs are bit-identical with
diagnostics on or off, pinned by ``tests/diagnostics/``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".certificates": (
            "DEFAULT_GAP_TOL",
            "SlotCertificate",
            "certify_solution",
            "duality_gap_bound",
            "lp_multipliers",
            "record_certificate",
            "recover_multipliers",
            "worst_certificate",
        ),
        ".convergence": ("ConvergenceSummary", "summarize_convergence", "trace_events"),
        ".ratio": (
            "RatioPoint",
            "RatioTrace",
            "competitive_ratio_trace",
            "record_ratio_trace",
        ),
    },
)
