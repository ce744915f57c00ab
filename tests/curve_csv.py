"""Test helper: read a curve CSV written by ``fockseries.sweep.write_curve_csv``."""
from __future__ import annotations

from pathlib import Path


def read_curve_csv(path: Path | str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Parse a curve CSV back into (metadata, rows-of-strings)."""
    metadata: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    columns: list[str] | None = None
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                metadata[key.strip()] = val.strip()
            elif body.startswith("fockseries v"):
                metadata["version"] = body.removeprefix("fockseries v")
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
            continue
        rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ValueError(f"{path}: no column header found")
    return metadata, rows
