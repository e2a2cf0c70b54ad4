"""Checkpoint/restart reference: the oracle ``young_daly_interval_s`` is
pinned against.

:func:`expected_completion_seconds` is the exact expected wall time of
a checkpointed job under memoryless failures, and
:func:`simulate_checkpointed_run` its discrete-event twin, replayed
against explicit failure gaps.  The tests average the twin against the
closed form, and check that ``repro.training.young_daly_interval_s``
sits at the closed form's minimum over checkpoint intervals.

Nothing under ``src/`` imports this module.
"""

import math
from collections.abc import Sequence


def _expected_segment_seconds(u_s: float, mtbf_s: float,
                              restart_s: float) -> float:
    """Expected wall time to finish ``u_s`` of uninterruptible work.

    Memoryless failures at rate ``1 / mtbf_s``; each failure loses the
    whole segment and pays ``restart_s`` of downtime before retrying.
    The renewal argument gives the exact closed form
    ``(mtbf + restart) * (e^(u / mtbf) - 1)``.
    """
    return (mtbf_s + restart_s) * math.expm1(u_s / mtbf_s)


def expected_completion_seconds(
    work_s: float,
    *,
    mtbf_s: float,
    interval_s: float,
    write_s: float = 0.0,
    restart_s: float = 0.0,
) -> float:
    """Expected wall time to finish ``work_s`` of checkpointed work.

    The job writes a checkpoint after every ``interval_s`` of
    progress (costing ``write_s``, during which a failure also loses
    the segment), failures arrive memorylessly with mean ``mtbf_s``,
    and each failure rolls back to the last checkpoint and pays
    ``restart_s`` of restart/repair downtime.  Exact for this model —
    :func:`simulate_checkpointed_run` is the discrete-event twin the
    property tests average against.
    """
    if work_s < 0:
        raise ValueError(f"work_s must be >= 0, got {work_s}")
    if mtbf_s <= 0 or interval_s <= 0:
        raise ValueError(
            f"mtbf_s and interval_s must be positive, got {mtbf_s}, "
            f"{interval_s}")
    if write_s < 0 or restart_s < 0:
        raise ValueError(
            f"write_s and restart_s must be >= 0, got {write_s}, "
            f"{restart_s}")
    n_full = int(work_s // interval_s)
    remainder_s = work_s - n_full * interval_s
    total = n_full * _expected_segment_seconds(
        interval_s + write_s, mtbf_s, restart_s)
    if remainder_s > 0:
        # The tail segment never checkpoints: the job is done.
        total += _expected_segment_seconds(remainder_s, mtbf_s, restart_s)
    return total


def simulate_checkpointed_run(
    work_s: float,
    failure_gaps_s: Sequence[float],
    *,
    interval_s: float,
    write_s: float = 0.0,
    restart_s: float = 0.0,
) -> float:
    """Discrete-event twin of :func:`expected_completion_seconds`.

    Replays one job against an explicit sequence of inter-failure
    times (so the caller owns the randomness — e.g. seeded draws from
    :class:`repro.serve.faults.FaultModel`): each segment of
    ``interval_s`` work plus its ``write_s`` checkpoint must run
    uninterrupted; a failure inside it wastes the elapsed fraction,
    pays ``restart_s``, and retries the segment from the checkpoint.
    Raises if the gap sequence is exhausted before the job finishes.
    """
    if work_s < 0:
        raise ValueError(f"work_s must be >= 0, got {work_s}")
    if interval_s <= 0:
        raise ValueError(
            f"interval_s must be positive, got {interval_s}")
    gaps = iter(failure_gaps_s)
    clock_s = 0.0
    until_failure_s = next(gaps)
    done_s = 0.0
    while done_s < work_s:
        segment_s = min(interval_s, work_s - done_s)
        need_s = segment_s + (write_s if segment_s == interval_s else 0.0)
        while until_failure_s < need_s:
            # Lost the segment: pay the elapsed fraction + restart.
            clock_s += until_failure_s + restart_s
            until_failure_s = next(gaps)
        clock_s += need_s
        until_failure_s -= need_s
        done_s += segment_s
    return clock_s
