"""Correctness checks on each op's outputs, run outside the timed window.

Every check returns a list of problems (empty means correct), so a run can
count failed ops and the tests can plant a bad result and see it caught.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable


def check_placement(schedule, uids: Iterable[str]) -> list[str]:
    """Every input job is placed exactly once, and nothing else is."""
    placed = Counter(schedule.all_uids())
    wanted = Counter(uids)
    problems = []
    missing = sorted(wanted - placed)
    extra = sorted(placed - wanted)
    twice = sorted(uid for uid, n in placed.items() if n > 1)
    if missing:
        problems.append(f"{len(missing)} job(s) not placed, e.g. {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} unknown job(s) placed, e.g. {extra[0]}")
    if twice:
        problems.append(f"{len(twice)} job(s) placed twice, e.g. {twice[0]}")
    return problems


def check_execution(result, uids: Iterable[str]) -> list[str]:
    """An engine run completed every job once and its timeline is sound."""
    from repro.analysis.invariants import verify_execution

    finished = Counter(c.job for c in result.completions)
    wanted = set(uids)
    problems = []
    missing = sorted(wanted - set(finished))
    if missing:
        problems.append(f"{len(missing)} job(s) never completed, e.g. {missing[0]}")
    twice = sorted(uid for uid, n in finished.items() if n > 1)
    if twice:
        problems.append(f"{len(twice)} job(s) completed twice, e.g. {twice[0]}")
    problems.extend(f"execution: {v}" for v in verify_execution(result))
    return problems


def check_schedule_referee(ctx, schedule) -> list[str]:
    """The full Definition 2.1 referee (partition, timeline, cap, bound)."""
    from repro.analysis.invariants import verify_schedule

    return [f"schedule: {v}" for v in verify_schedule(ctx, schedule)]


def check_service(submitted: list[str], acks: list, completions: list, store) -> list[str]:
    """Every submit was acked, every job completed once, the store agrees.

    ``acks`` are the replies to the submits, ``completions`` every
    ``CompletionInfo`` the advance and drain replies carried, and ``store``
    the shard's live :class:`~repro.store.JobStore`.
    """
    from repro.analysis.storecheck import verify_store
    from repro.service import protocol
    from repro.store.store import DONE

    problems = []
    refused = [
        a for a in acks
        if not isinstance(a, protocol.SubmitResponse) or a.deduplicated
    ]
    if len(acks) != len(submitted) or refused:
        problems.append(
            f"{len(submitted)} submits got {len(acks)} replies, "
            f"{len(refused)} not acked"
        )
    done = Counter(c.job_id for c in completions)
    missing = sorted(set(submitted) - set(done))
    if missing:
        problems.append(f"{len(missing)} job(s) never completed, e.g. {missing[0]}")
    twice = sorted(uid for uid, n in done.items() if n > 1)
    if twice:
        problems.append(f"{len(twice)} job(s) completed twice, e.g. {twice[0]}")
    unknown = sorted(set(done) - set(submitted))
    if unknown:
        problems.append(f"{len(unknown)} unknown job(s) completed, e.g. {unknown[0]}")
    not_done = sorted(
        uid for uid in submitted
        if store.job(uid) is None or store.job(uid).state != DONE
    )
    if not_done:
        problems.append(
            f"store holds {len(not_done)} job(s) not done, e.g. {not_done[0]}"
        )
    problems.extend(f"store: {v}" for v in verify_store(store))
    return problems


def check_sim_trace(result, uids: Iterable[str], preempts: int, migrations: int) -> list[str]:
    """The trace completed, and preemptions and migrations both happened."""
    problems = check_execution(result, uids)
    if preempts == 0 or not result.preemptions:
        problems.append("no preemption occurred")
    if migrations == 0 or not any(rec.migrated for rec in result.preemptions):
        problems.append("no migration occurred")
    return problems
