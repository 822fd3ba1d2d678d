"""Shared retry/backoff schedule (resilient delivery + routing service).

Two consumers need the same exponential-backoff arithmetic and must
stay in agreement about it:

* :func:`repro.sim.runner.run_resilient` — source-level retransmission
  of dropped multicasts inside the simulator (``retry_timeout`` x
  ``retry_backoff``^attempt, no jitter: simulated time is private to
  one run, so synchronized retries are harmless and determinism is
  paramount);
* :mod:`repro.service` — the routing daemon's retry path, which adds
  *deterministic* jitter (many clients share one wall clock, so
  synchronized retries would stampede) and caps every delay to the
  request's remaining deadline budget.

Keeping both on one module makes the schedule testable as a unit: the
property suite (``tests/test_retry_backoff.py``) asserts determinism
under a fixed seed and that a capped schedule can never overshoot the
deadline, for the exact function objects both consumers call.

Jitter is derived from a splitmix64 finalizer over ``(seed,
request_id, attempt)`` so a retry schedule is a pure function of its
inputs: replaying a request id against the same service seed
reproduces the identical delays, which is what makes chaos-harness
runs repeatable.

The finalizer lives here once, and the project's seed derivations are
built on it: :func:`derive_seed` (re-exported as
:func:`repro.parallel.derive_seed`) seeds sweep replications, and
:func:`repro.sim.faults.derive_fault_seed` is its mix at index
``0xFA16``.  This module imports nothing, so both can use it.
"""

from __future__ import annotations

__all__ = ["backoff_delay", "derive_seed", "jitter_unit", "retry_delay"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The splitmix64 finalizer over the low 64 bits of ``z``."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64(z: int) -> int:
    return _mix64(z + _GOLDEN)


def derive_seed(base_seed: int, run_index: int) -> int:
    """A deterministic, well-mixed seed for replication ``run_index``.

    Splitmix64 finalizer over ``(base_seed, run_index)``; adjacent run
    indices map to unrelated 63-bit seeds, so replications don't share
    low-bit structure the way ``base_seed + i`` would.
    """
    return _mix64(base_seed * _GOLDEN + run_index + 1) & 0x7FFFFFFFFFFFFFFF


def backoff_delay(attempt: int, *, base: float, factor: float) -> float:
    """The undithered exponential schedule: ``base * factor**attempt``.

    This is :func:`run_resilient`'s retransmission timer, bit-identical
    to the pre-refactor inline expression (the fault parity suite
    depends on that).
    """
    if attempt < 0:
        raise ValueError(f"attempt cannot be negative, got {attempt}")
    return base * factor**attempt


def jitter_unit(seed: int, request_id: int, attempt: int) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed by ``(seed,
    request_id, attempt)`` — splitmix64-mixed, so adjacent request ids
    and attempts decorrelate fully."""
    z = _splitmix64((seed & _MASK) ^ _splitmix64(request_id & _MASK))
    z = _splitmix64(z ^ _splitmix64(attempt & _MASK))
    return z / 2**64


def retry_delay(
    attempt: int,
    *,
    base: float,
    factor: float,
    jitter: float = 0.0,
    seed: int = 0,
    request_id: int = 0,
    remaining: float | None = None,
) -> float:
    """One delay of the service retry schedule.

    Exponential backoff dithered *downward* by up to ``jitter`` (a
    fraction in ``[0, 1]``) of itself, then capped to ``remaining``
    (the request's unspent deadline budget).  Invariants the property
    suite pins down:

    * ``0 <= delay <= backoff_delay(attempt, ...)`` — jitter never
      lengthens a wait beyond the undithered schedule;
    * ``delay <= remaining`` whenever a budget is given — a retry can
      never be scheduled past the request deadline;
    * deterministic in ``(seed, request_id, attempt)``.
    """
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must lie in [0, 1], got {jitter}")
    delay = backoff_delay(attempt, base=base, factor=factor)
    if jitter:
        delay *= 1.0 - jitter * jitter_unit(seed, request_id, attempt)
    if remaining is not None:
        delay = min(delay, max(0.0, remaining))
    return delay
