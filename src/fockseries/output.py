"""Deterministic CSV and JSON emission shared by the CLI sweeps and the
oracle fixture generator.

Format: a `# fockseries v<version>` header line, `# key=value` metadata
lines, a column-name line, then comma-separated rows.  Floats are written
with repr() (the shortest decimal that parses back to the identical
float64), booleans as lowercase true/false, missing values as empty fields;
all locale-proof, so identical inputs yield byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ._version import __version__

SCALAR_COLUMNS = ("alpha", "value", "n_max_used", "tail_bound_rel", "converged")
DISTRIBUTION_COLUMNS = ("alpha", "photon_number", "probability",
                        "n_max_used", "tail_bound_rel", "converged")


def format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_curve_csv(path: Path | str,
                    metadata: Mapping[str, Any],
                    rows: Iterable[Sequence[Any]],
                    columns: Sequence[str] = SCALAR_COLUMNS) -> Path:
    path = Path(path)
    lines = [f"# fockseries v{__version__}"]
    lines.extend(f"# {key}={format_cell(val)}" for key, val in metadata.items())
    lines.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells, expected {len(columns)}")
        lines.append(",".join(format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


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


def write_manifest(path: Path | str, manifest: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="ascii", newline="\n")
    return path

