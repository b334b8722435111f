"""Betti tables and structured pass/fail verdicts."""
from __future__ import annotations

from dataclasses import dataclass, field

from .resolution import FreeResolution


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} of a minimal resolution."""

    entries: dict[tuple[int, int], int]

    @classmethod
    def from_resolution(cls, res: FreeResolution) -> "BettiTable":
        return cls(res.betti())

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def pdim(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def regularity(self) -> int:
        return max((j - i for i, j in self.entries), default=0)

    def rows(self) -> list[list[int]]:
        """Sorted [i, j, beta] triples for machine emission."""
        return [[i, j, self.entries[(i, j)]] for i, j in sorted(self.entries)]

    def as_dict(self) -> dict:
        return {
            "entries": self.rows(),
            "pdim": self.pdim(),
            "regularity": self.regularity(),
        }

    def render(self) -> str:
        """Conventional grid: columns are homological degree i, rows are j - i."""
        if not self.entries:
            return "(zero module)"
        cols = range(self.pdim() + 1)
        strands = range(self.regularity() + 1)
        width = max(
            len(str(b)) for b in list(self.entries.values()) + [self.pdim()]
        ) + 2
        lines = ["".join(["      "] + [str(i).rjust(width) for i in cols])]
        for s in strands:
            cells = []
            for i in cols:
                b = self.beta(i, s + i)
                cells.append((str(b) if b else ".").rjust(width))
            lines.append("".join([f"{s}:".ljust(6)] + cells))
        totals = [
            str(sum(b for (i, _), b in self.entries.items() if i == c)).rjust(width)
            for c in cols
        ]
        lines.append("".join(["total:"] + totals))
        return "\n".join(lines)


def betti_table(res: FreeResolution) -> BettiTable:
    return BettiTable.from_resolution(res)


@dataclass
class VerdictReport:
    """Pass/fail record tying one checked statement to its numbers.

    computed holds what was actually calculated; expected holds the values
    the statement predicts for a subset of those keys.  The verdict is the
    keywise comparison, so a report can carry extra computed context
    without it affecting the outcome.  notes record skipped sub-checks and
    other caveats in prose.
    """

    statement: str
    ok: bool
    prime: int
    computed: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    notes: tuple = ()
    seed: int | None = None

    @classmethod
    def from_comparison(
        cls, statement, prime, computed, expected, notes=(), seed=None
    ) -> "VerdictReport":
        ok = all(computed.get(k) == v for k, v in expected.items())
        return cls(statement, ok, prime, dict(computed), dict(expected),
                   tuple(notes), seed)

    def as_dict(self) -> dict:
        return {
            "computed": self.computed,
            "expected": self.expected,
            "notes": list(self.notes),
            "pass": self.ok,
            "prime": self.prime,
            "seed": self.seed,
            "statement_id": self.statement,
        }

    def summary_line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return f"{mark} {self.statement} (p={self.prime})"
