"""Test helper: write a degree sequence in the format ``read_degree_file``
reads."""

from pathlib import Path

from pairlab.degree_model import DegreeSequence


def write_degree_file(seq: DegreeSequence, path: str | Path) -> None:
    """Plain text: first line n, second line the n degrees space-separated."""
    Path(path).write_text(f"{seq.n}\n{' '.join(str(d) for d in seq.degrees)}\n")
