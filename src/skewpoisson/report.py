"""Structured run reports with deterministic text and machine renderings.

A report is an ordered list of named stages, each carrying a status and a
JSON-compatible payload, plus a one-line verdict.  The machine rendering is
canonical JSON (sorted keys, fixed separators), so identical inputs produce
byte-identical output across runs and processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ._version import __version__

STATUS_OK = "ok"
STATUS_FINDING = "finding"
STATUS_ERROR = "error"


@dataclass
class Stage:
    name: str
    status: str
    payload: dict


@dataclass
class Report:
    command: str
    stages: list = field(default_factory=list)
    verdict: str = ""

    def add(self, name: str, status: str, payload: dict) -> None:
        self.stages.append(Stage(name, status, payload))

    def has_errors(self) -> bool:
        return any(s.status == STATUS_ERROR for s in self.stages)

    def error_kind(self) -> Optional[str]:
        for s in self.stages:
            if s.status == STATUS_ERROR:
                return s.payload.get("kind", "config")
        return None

    def to_machine(self) -> str:
        doc = {
            "command": self.command,
            "version": __version__,
            "verdict": self.verdict,
            "stages": [
                {"name": s.name, "status": s.status, "payload": s.payload}
                for s in self.stages
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"== {self.command} (skewpoisson {__version__}) =="]
        for stage in self.stages:
            lines.append("")
            lines.append(f"[{stage.status}] {stage.name}")
            lines.extend(_render_payload(stage.payload, indent="  "))
        lines.append("")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _render_payload(value, indent: str) -> list:
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_payload(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {sub}")
    elif isinstance(value, list):
        if value and all(isinstance(item, dict) for item in value):
            lines.extend(_render_table(value, indent))
        else:
            for item in value:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _render_table(rows: list, indent: str) -> list:
    """Aligned fixed-width table for a list of flat dicts."""
    columns: list = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    flat = [
        {c: _cell(row.get(c, "")) for c in columns}
        for row in rows
    ]
    widths = {c: max(len(c), *(len(r[c]) for r in flat)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [indent + header, indent + "-" * len(header)]
    for r in flat:
        lines.append(indent + "  ".join(r[c].ljust(widths[c]) for c in columns))
    return lines


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)
