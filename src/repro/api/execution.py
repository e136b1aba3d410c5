"""How a campaign is executed, separated from what it measures.

:class:`ExecutionConfig` collects every knob that affects *how* a
campaign runs -- full vs analytic simulation, retry budget, the shadow
flow-simulator backend, tracing -- and none that affect *what* is
measured (that is :class:`repro.api.scenario.Scenario`).

This replaces the loose kwarg tail ``measure_network(...,
full_simulation=, max_rounds=, analytic_error_std=)`` with one
validated, frozen object that threads cleanly down to
:class:`repro.core.engine.MeasurementEngine` and :mod:`repro.kernel`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExecutionConfig:
    """Execution policy for one campaign run.

    ``full_simulation`` switches between the per-second traffic walk and
    the engine's analytic accept/retry model (used by
    scheduling-efficiency studies where only slot accounting matters);
    ``shadow_backend`` and ``trace`` never change results.
    """

    #: Shadow flow-simulator backend (:mod:`repro.shadow.flows`) for
    #: workloads that run the flow-level simulator (the §7 comparison
    #: pipeline; see ``repro.shadow.experiment.compare_systems``).
    #: Bit-identical by construction; measurement-only campaigns carry
    #: but never consult it. ``None`` defers to the
    #: ``FLASHFLOW_SHADOW_BACKEND`` environment variable, then ``auto``.
    shadow_backend: str | None = None
    #: Per-second traffic simulation (True) vs the analytic fast path.
    full_simulation: bool = True
    #: Maximum measurement attempts per relay before "did not converge".
    #: A still-inconclusive relay is measured exactly ``max_rounds``
    #: times (attempts, not retries) before being declared failed.
    max_rounds: int = 8
    #: Std-dev of the analytic path's pre-drawn measurement-error factor.
    analytic_error_std: float = 0.02
    #: Path for a ``flashflow-trace/1`` JSONL trace of the run
    #: (:mod:`repro.obs`): manifest line, hierarchical campaign/round/
    #: kernel spans with wall+CPU time, and a metrics snapshot, written
    #: incrementally. ``None`` (the default) keeps the ambient tracer
    #: (normally the no-op null tracer -- the zero-overhead path).
    #: Tracing is semantics-preserving: spans read clocks, never RNGs,
    #: so a traced run's events and estimates are bit-identical to an
    #: untraced one.
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.shadow_backend is not None:
            if not isinstance(self.shadow_backend, str) or not self.shadow_backend:
                raise ConfigurationError(
                    "shadow_backend must be a shadow backend name or None"
                )
            from repro.shadow.flows import shadow_backend_names

            known = {"auto"} | set(shadow_backend_names())
            if self.shadow_backend not in known:
                raise ConfigurationError(
                    f"unknown shadow backend {self.shadow_backend!r}; "
                    f"known: {sorted(known)}"
                )
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.analytic_error_std < 0:
            raise ConfigurationError("analytic_error_std must be >= 0")
        if self.trace is not None and not isinstance(
            self.trace, (str, os.PathLike)
        ):
            raise ConfigurationError(
                "trace must be a path for the JSONL trace file or None"
            )

    @classmethod
    def from_dict(cls, record: dict) -> "ExecutionConfig":
        """Rebuild a config from its ``asdict`` form (journal snapshots).

        Unknown keys -- e.g. the retired ``backend``/``max_workers``/
        ``pipeline``/``shards`` knobs an older journal may carry -- raise
        a :class:`ConfigurationError` naming them instead of a raw
        ``TypeError`` from the constructor.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(record) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown execution config key(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**record)

    def with_shadow_backend(self, shadow_backend: str | None) -> "ExecutionConfig":
        """A copy of this config on a different shadow flow backend."""
        return replace(self, shadow_backend=shadow_backend)
