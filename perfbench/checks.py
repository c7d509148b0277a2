"""Correctness checks of a pass, and the paper's quality metrics.

Every check runs outside the timed region.  A failure is a string naming
the session (or the run-level check) and the reason; each one counts into
the result's ``failed`` and is printed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import inputs

#: The close-report fields that must equal the offline reference.
REPORT_FIELDS = (
    "platform",
    "title",
    "stage_timeline",
    "stage_fractions",
    "pattern",
    "objective_metrics",
    "objective_qoe",
    "effective_qoe",
    "qoe_approximate",
)


def session_failures(expected: Dict[int, object], got: Dict[int, List]) -> List[str]:
    """One failure per offered session whose close report is missing,
    duplicated or differs from the reference, plus one per unexpected flow."""
    failures = []
    for index, reference in expected.items():
        reports = got.get(index, [])
        if not reports:
            failures.append(f"session {index}: no close report")
        elif len(reports) > 1:
            failures.append(f"session {index}: {len(reports)} close reports")
        else:
            differing = [
                name
                for name in REPORT_FIELDS
                if getattr(reports[0], name) != getattr(reference, name)
            ]
            if differing:
                failures.append(f"session {index}: report differs in {', '.join(differing)}")
    for index in sorted(set(got) - set(expected)):
        failures.append(f"flow of client port {index + inputs.CLIENT_PORT_BASE}: not offered")
    return failures


def title_accuracy(reports: Dict[int, List], sessions: Sequence) -> float:
    """Share of sessions whose (first) reported title is the simulated one;
    a session without a report counts as wrong."""
    hits = [
        bool(reports.get(index)) and reports[index][0].title.title == session.title_name
        for index, session in enumerate(sessions)
    ]
    return sum(hits) / len(hits)


def stage_accuracy(reports: Dict[int, List], sessions: Sequence, slot_s: float = 1.0) -> float:
    """Share of non-launch slots, pooled over all sessions, whose stage is right.

    Launch slots are left out as in the scenario matrix: the title gate,
    not the stage classifier, owns the launch window.
    """
    from repro.simulation.catalog import PlayerStage

    right = total = 0
    for index, session in enumerate(sessions):
        truth = session.slot_ground_truth(slot_s)
        timeline = reports[index][0].stage_timeline if reports.get(index) else []
        for expected, got in zip(truth, timeline):
            if expected is not PlayerStage.LAUNCH:
                total += 1
                right += expected is got
    return right / total if total else 1.0
