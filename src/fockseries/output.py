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
                    rows: Iterable[Sequence[Any]]) -> Path:
    """One row per grid point in the SCALAR_COLUMNS shape."""
    path = Path(path)
    lines = [f"# fockseries v{__version__}"]
    lines.extend(f"# {key}={format_cell(val)}" for key, val in metadata.items())
    lines.append(",".join(SCALAR_COLUMNS))
    for row in rows:
        if len(row) != len(SCALAR_COLUMNS):
            raise ValueError(f"row has {len(row)} cells, expected {len(SCALAR_COLUMNS)}")
        lines.append(",".join(format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def write_manifest(path: Path | str, manifest: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="ascii", newline="\n")
    return path

