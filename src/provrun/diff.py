"""Compare two metadata dictionaries key by key."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class DiffReport:
    """Keys only on one side, plus keys present on both with different
    values; the three sets are pairwise disjoint and all empty exactly
    when the dictionaries are equal."""

    only_left: list[str] = field(default_factory=list)
    only_right: list[str] = field(default_factory=list)
    changed: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.only_left or self.only_right or self.changed)


def diff_dictionaries(left: Mapping[str, str], right: Mapping[str, str]) -> DiffReport:
    left_map = dict(left.items())
    right_map = dict(right.items())
    report = DiffReport()
    for key in sorted(set(left_map) | set(right_map)):
        in_left = key in left_map
        in_right = key in right_map
        if in_left and not in_right:
            report.only_left.append(key)
        elif in_right and not in_left:
            report.only_right.append(key)
        elif left_map[key] != right_map[key]:
            report.changed.append((key, left_map[key], right_map[key]))
    return report
