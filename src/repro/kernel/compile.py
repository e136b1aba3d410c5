"""Lowering measurements into compiled form.

:func:`compile_measurement` turns a :class:`MeasurementSpec` plus the
engine's prepared inputs (:meth:`MeasurementEngine.prepare_inputs`) into
a :class:`CompiledMeasurement`: a self-contained description
of one honest-relay measurement whose per-second walk needs no Python
object state at all. Compilation performs **every RNG draw** the
stateful engine path would perform, in the same order on the same forked
streams:

1. the environment factor and per-assignment path qualities (inside
   ``prepare_inputs``),
2. the target relay's per-second jitter draws
   (:meth:`repro.tornet.relay.Relay.draw_noise_series` -- the relay's
   stream is shared across its measurements, so it must advance here).

The engine's per-second *supply-noise* draws are the one exception: the
measurement stream is forked per spec and nothing else ever reads it, so
its post-prepare state ships inside the compiled measurement and the
draws happen inside the batched walk -- same stream, same positions,
bit-identical values.

What remains -- TCP ramp profiles, the capacity/ratio walk, and echo-cell
verification replay -- is pure computation over the compiled arrays. The relay's stateful side effects (token bucket level,
observed-bandwidth history) are settled back onto the live relay by the
caller from the walk's results.

Relay behaviours compile through the
:meth:`repro.tornet.relay.RelayBehavior.kernel_program` protocol: any
behaviour describing its walk as a :class:`repro.tornet.relay.\
BehaviorProgram` -- the honest default and the four common §5 attacks
(traffic liar, ratio cheater, forger, selective capacity) -- lowers into
the array walk; behaviours returning ``None`` (genuinely stateful custom
subclasses, e.g. cross-relay colluders), and specs carrying a transcript
session, are *not* compilable: they return ``None`` here and the caller
falls back to the stateful :meth:`MeasurementEngine.run` path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    MeasurementEngine,
    MeasurementOutcome,
    MeasurementSpec,
    assignment_caps,
)
from repro.netsim.latency import Path
from repro.netsim.socketbuf import KernelConfig
from repro.rng import seed_from
from repro.tornet.relay import HONEST_PROGRAM, BehaviorProgram


@dataclass(frozen=True)
class CompiledAssignment:
    """Pure inputs for one assignment's supply-cap series."""

    path: Path
    sender_kernel: KernelConfig
    allocated: float
    link_capacity: float
    quality: float

    def caps(
        self,
        target_kernel: KernelConfig,
        duration: int,
        socket_share: int,
        efficiency: float,
    ) -> list[float]:
        """The effective per-second cap series (deferred heavy half)."""
        return assignment_caps(
            self.path,
            self.sender_kernel,
            target_kernel,
            duration,
            self.allocated,
            self.link_capacity,
            socket_share,
            self.quality,
            efficiency,
        )


@dataclass
class CompiledMeasurement:
    """One measurement, lowered to arrays plus pure inputs.

    The measurement RNG state (for the supply-noise draws), ``noise_env``
    (relay jitter x environment factor), ``background`` and the
    token-bucket snapshot fully determine the behaviour-program walk; the
    assignment cap series is recomputed from :class:`CompiledAssignment`
    when the batch executes (cheap and pure).
    """

    index: int
    fingerprint: str
    duration: int
    #: Normal-traffic ratio r for this measurement's params.
    ratio: float
    socket_share: int
    efficiency: float
    target_kernel: KernelConfig
    assignments: list[CompiledAssignment]
    #: ``random.Random`` state of the measurement stream right after
    #: prepare -- exactly where the stateful path starts its per-second
    #: supply-noise draws.
    rng_state: tuple
    #: Std-dev of the per-second supply noise.
    supply_noise_std: float
    #: Pre-bucket forwarding capacity: min(CPU, schedulers, link), bit/s.
    base_capacity: float
    #: Relay jitter draw x environment factor, shape [duration].
    noise_env: np.ndarray
    #: (tokens, rate, burst) snapshot in bytes, or None when unlimited.
    bucket: tuple[float, float, float] | None
    #: Background (client) demand per second, bit/s, shape [duration].
    background: np.ndarray
    total_allocated: float
    #: Echo-cell check probability; None disables verification replay.
    p_check: float | None
    #: Seed of the measurement's ``verify-*`` RNG stream.
    verify_seed: int
    #: Early result (admission refusal); skips execution entirely.
    outcome: MeasurementOutcome | None = None
    #: The behaviour's closed-form walk (honest defaults for honest
    #: relays; lane scalars for compiled attacks).
    program: BehaviorProgram = HONEST_PROGRAM
    #: ``random.Random`` state of the behaviour's own stream at slot
    #: start (forgers only, verify on): the verification replay advances
    #: a copy and the caller settles it back via
    #: :meth:`RelayBehavior.settle_verify_replay`.
    behavior_rng_state: tuple | None = None

    def caps_arrays(self) -> list[np.ndarray]:
        """Per-assignment effective cap series as float64 arrays."""
        return [
            np.asarray(
                a.caps(
                    self.target_kernel,
                    self.duration,
                    self.socket_share,
                    self.efficiency,
                ),
                dtype=np.float64,
            )
            for a in self.assignments
        ]

    def supply_noise(self) -> np.ndarray:
        """Per-second supply noise draws, shape [n_assignments, duration].

        Resumes the measurement stream from its compiled state and draws
        in the stateful loop's order (second-major, assignment-minor):
        same stream, same positions, bit-identical values.
        """
        rng = random.Random()
        rng.setstate(self.rng_state)
        gauss = rng.gauss
        noise_std = self.supply_noise_std
        n = len(self.assignments)
        count = self.duration * n
        return (
            np.fromiter(
                (max(0.3, gauss(1.0, noise_std)) for _ in range(count)),
                dtype=np.float64,
                count=count,
            )
            .reshape(self.duration, n)
            .T
        )

    def supply_series(self) -> np.ndarray:
        """Total measurement supply per second (bit/s), shape [duration].

        Accumulates assignment contributions in assignment order --
        exactly the stateful loop's left-to-right summation -- so each
        element is bit-identical to the engine's ``supply_total``.
        """
        supply = np.zeros(self.duration, dtype=np.float64)
        for row, caps in zip(self.supply_noise(), self.caps_arrays()):
            supply += caps * row
        return supply


def is_compilable(engine: MeasurementEngine, spec: MeasurementSpec) -> bool:
    """Whether the kernel can reproduce this spec's walk in closed form.

    A spec compiles when its behaviour publishes a
    :class:`BehaviorProgram` (honest and the four common attacks);
    behaviours whose :meth:`RelayBehavior.kernel_program` returns
    ``None`` -- any custom subclass that does not opt in -- stay on the
    stateful fallback, as do transcript sessions.
    """
    if spec.session is not None:
        return False
    if spec.target.behavior.kernel_program() is None:
        return False
    if spec.verify and not engine.reuse_circuit_keys:
        # A per-measurement DH handshake is part of the stateful path's
        # simulated work; don't silently skip it.
        return False
    return True


def compile_measurement(
    engine: MeasurementEngine,
    spec: MeasurementSpec,
    index: int = 0,
    predrawn_noise: np.ndarray | None = None,
) -> CompiledMeasurement | None:
    """Lower ``spec`` to a :class:`CompiledMeasurement`, or ``None``.

    Must be called in the same relative order as the stateful path would
    have run the spec's prepare phase: it consumes the measurement RNG
    stream, the relay's jitter stream, and the relay's admission state.

    ``predrawn_noise`` is a column-wise jitter row from
    :func:`repro.tornet.columnar.noise_row` (see ``run_specs``'s bulk
    predraw): when given, the relay's stateful ``draw_noise_series``
    call is skipped and the consumed draws are recorded on the relay as
    a pending skip, keeping its RNG stream position identical.
    """
    if not is_compilable(engine, spec):
        return None

    inputs = engine.prepare_inputs(spec)
    params, duration, target = inputs.params, inputs.duration, spec.target

    if inputs.outcome is not None:
        return CompiledMeasurement(
            index=index,
            fingerprint=target.fingerprint,
            duration=duration,
            ratio=params.ratio,
            socket_share=inputs.socket_share,
            efficiency=inputs.efficiency,
            target_kernel=inputs.target_kernel,
            assignments=[],
            rng_state=(),
            supply_noise_std=0.0,
            base_capacity=0.0,
            noise_env=np.zeros(duration),
            bucket=None,
            background=np.zeros(duration),
            total_allocated=inputs.total_allocated,
            p_check=None,
            verify_seed=0,
            outcome=inputs.outcome,
        )

    assignments = [
        CompiledAssignment(
            path=path,
            sender_kernel=a.measurer.host.kernel,
            allocated=a.allocated,
            link_capacity=a.measurer.host.link_capacity,
            quality=quality,
        )
        for a, path, quality in inputs.entries
    ]

    # Engine supply-noise draws happen wherever the walk executes: the
    # measurement stream is private to this spec, so shipping its
    # post-prepare state preserves the draw positions exactly.
    rng_state = inputs.rng.getstate()

    # Relay-side jitter: pre-drawn from the relay's own stream, folded
    # with the environment factor exactly as measured_second does
    # (noise * external_factor, then capacity *= that product).
    env = inputs.env
    if predrawn_noise is not None:
        assert predrawn_noise.shape[0] == duration
        target._noise_skip += duration
        noise_env = predrawn_noise * env
    else:
        noise_env = np.fromiter(
            (draw * env for draw in target.draw_noise_series(duration)),
            dtype=np.float64,
            count=duration,
        )

    base_capacity = target.forwarding_capacity(
        n_measurement_sockets=params.n_sockets,
        n_background_sockets=20,
        being_measured=True,
    )
    bucket = target.bucket.state() if target.bucket is not None else None

    bg = spec.background_demand
    if callable(bg):
        background = np.array(
            [float(bg(second)) for second in range(duration)], dtype=np.float64
        )
    else:
        background = np.full(duration, float(bg), dtype=np.float64)

    p_check = params.p_check if spec.verify else None

    # The behaviour's closed-form walk; fetched after prepare_inputs so
    # slot-constant decisions (begin_measurement's selective roll) have
    # already landed in base_capacity. Forgers also ship their RNG state:
    # the verification replay consumes forge decisions from a copy.
    program = target.behavior.kernel_program()
    behavior_rng_state = (
        target.behavior._rng.getstate()
        if program.forge_fraction is not None and spec.verify
        else None
    )

    return CompiledMeasurement(
        index=index,
        fingerprint=target.fingerprint,
        duration=duration,
        ratio=params.ratio,
        socket_share=inputs.socket_share,
        efficiency=inputs.efficiency,
        target_kernel=inputs.target_kernel,
        assignments=assignments,
        rng_state=rng_state,
        supply_noise_std=inputs.noise.supply_noise_std,
        base_capacity=base_capacity,
        noise_env=noise_env,
        bucket=bucket,
        background=background,
        total_allocated=inputs.total_allocated,
        p_check=p_check,
        verify_seed=seed_from(spec.seed, f"verify-{target.fingerprint}"),
        program=program,
        behavior_rng_state=behavior_rng_state,
    )
