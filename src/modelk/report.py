"""Verification reports returned by the check_* and validate operations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    `checks` holds (name, ok, detail) triples in the order they ran;
    `passed` is the conjunction.
    """

    subject: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def add_report(self, name: str, sub: "VerificationReport") -> None:
        """One check for a whole sub-report; its failures are the detail."""
        self.add(name, sub.passed, "; ".join(sub.failures))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" if detail else name
                for name, ok, detail in self.checks if not ok]

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        lines = [f"[{status}] {self.subject}"]
        for name, ok, detail in self.checks:
            mark = "+" if ok else "-"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"  {mark} {name}{suffix}")
        return "\n".join(lines)
