"""Stable file formats: result rows as CSV/JSON, written atomically.

Every CSV starts with a schema-version comment line.  Floats are serialized
with 12 significant digits, so identical configurations reproduce identical
files on a given machine (wall_time is the one informational exception and
is excluded from that contract).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields

RESULT_SCHEMA = "result-row v1"


def format_float(value) -> str:
    """12-significant-digit serialization used in all output files."""
    if value is None:
        return ""
    return f"{float(value):.12g}"


@dataclass
class ResultRow:
    """Flat, serializable view of one experiment result."""

    r: float
    n0: float
    n1: float
    n: float
    eta1: float
    eta: float
    eta2: float
    concurrence: float
    success_prob: float
    engine: str
    disagreement: float | None = None
    wall_time: float = 0.0

    @classmethod
    def from_result(cls, result) -> "ResultRow":
        cfg = result.config
        return cls(
            r=result.config.resolved_r(),
            n0=result.n0,
            n1=result.n1,
            n=result.n,
            eta1=cfg.eta1,
            eta=cfg.eta,
            eta2=cfg.eta2,
            concurrence=result.concurrence.value,
            success_prob=result.success_prob,
            engine=result.engine,
            disagreement=result.diagnostics.disagreement,
            wall_time=result.wall_time,
        )

    def _cells(self) -> list[str]:
        """Each column as written: engine verbatim, numbers by format_float."""
        return [
            self.engine if col == "engine" else format_float(getattr(self, col))
            for col in RESULT_COLUMNS
        ]

    def to_dict(self) -> dict:
        # numbers go through their written text, so JSON and CSV agree
        return {
            col: text if col == "engine" else (float(text) if text else None)
            for col, text in zip(RESULT_COLUMNS, self._cells())
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def result_rows_csv_text(rows) -> str:
    return table_csv_text(RESULT_SCHEMA, RESULT_COLUMNS, (row._cells() for row in rows))


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_result_rows(path, rows) -> None:
    atomic_write_text(path, result_rows_csv_text(rows))


def table_csv_text(schema: str, columns, rows) -> str:
    """Generic numeric table with the standard schema header."""
    lines = [f"# schema: {schema}", ",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(v if isinstance(v, str) else format_float(v) for v in row)
        )
    return "\n".join(lines) + "\n"
