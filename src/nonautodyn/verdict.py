"""Outcomes of finite-horizon property checks.

Every check in this package is a semi-decision: it either finds a witness,
finds a counterexample, or runs out of horizon. Verdicts carry the evidence
so they can be replayed and serialized. A fourth outcome, error, marks a
checker that crashed, so that no reader takes it for a finite-horizon result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Outcome(str, Enum):
    HOLDS = "holds"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"
    ERROR = "error"  # the checker crashed; the witness names the exception


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semi-decidable check with a reproducible witness.

    ``witness`` is a JSON-serializable dict (points, indices, regions).
    Holds/Refuted verdicts always carry one; Inconclusive carries the
    exhausted horizon.
    """

    outcome: Outcome
    witness: dict = field(default_factory=dict)
    narrative: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    @property
    def refuted(self) -> bool:
        return self.outcome is Outcome.REFUTED

    @property
    def inconclusive(self) -> bool:
        return self.outcome is Outcome.INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": self.witness,
            "narrative": self.narrative,
        }


def holds(witness: dict, narrative: str = "") -> Verdict:
    return Verdict(Outcome.HOLDS, witness, narrative)


def refuted(witness: dict, narrative: str = "") -> Verdict:
    return Verdict(Outcome.REFUTED, witness, narrative)


def inconclusive(witness: dict, narrative: str = "") -> Verdict:
    return Verdict(Outcome.INCONCLUSIVE, witness, narrative)
