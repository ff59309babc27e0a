"""Landmark file ingestion and emission.

Format: first line ``N K S`` (landmarks per specimen, dimension, specimen
count); then S blocks, each an optional ``# id`` comment line followed by N
lines of K whitespace-separated finite decimals (``nan`` and ``inf`` are
parse errors). Emission writes 17 significant digits so an emit/ingest round
trip is bit exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .geometry import LandmarkSet


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file. A file that cannot be opened or
    decoded (a directory, a UTF-16 file) is a ParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path!r}: not UTF-8 text "
                         f"(byte {exc.start}: {exc.reason})") from None


def ingest_landmarks(path: str) -> list[LandmarkSet]:
    lines = read_lines(path)
    pos = 0

    def next_content_line():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            if lines[pos - 1].strip():
                return lines[pos - 1], pos
        return None, pos

    header, header_no = next_content_line()
    if header is None:
        raise ParseError("empty landmark file", line=1)
    fields = header.split()
    if len(fields) != 3:
        raise ParseError(f"header must be 'N K S', got {header!r}", line=header_no)
    try:
        N, K, S = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"non-integer header field in {header!r}", line=header_no)
    if N < 3 or K < 2 or S < 1:
        raise ParseError(f"need N >= 3, K >= 2, S >= 1; got N={N}, K={K}, S={S}",
                         line=header_no)
    specimens: list[LandmarkSet] = []
    for s in range(S):
        line, line_no = next_content_line()
        if line is None:
            raise ParseError(f"expected specimen {s + 1} of {S}, found end of file",
                             line=len(lines))
        if line.lstrip().startswith("#"):
            spec_id = line.lstrip()[1:].strip() or f"specimen-{s + 1}"
            line, line_no = next_content_line()
        else:
            spec_id = f"specimen-{s + 1}"
        rows = []
        for r in range(N):
            if line is None:
                raise ParseError(
                    f"specimen {spec_id!r}: expected {N} rows, got {r}",
                    line=len(lines))
            if line.lstrip().startswith("#"):
                raise ParseError(
                    f"specimen {spec_id!r}: comment inside coordinate block",
                    line=line_no)
            tokens = line.split()
            if len(tokens) != K:
                raise ParseError(
                    f"specimen {spec_id!r}: expected {K} coordinates, got "
                    f"{len(tokens)}", line=line_no)
            try:
                row = [float(t) for t in tokens]
            except ValueError:
                raise ParseError(
                    f"specimen {spec_id!r}: non-numeric token in {line!r}",
                    line=line_no)
            if not np.all(np.isfinite(row)):
                raise ParseError(
                    f"specimen {spec_id!r}: non-finite coordinate in {line!r}",
                    line=line_no)
            rows.append(row)
            if r < N - 1:
                line, line_no = next_content_line()
        specimens.append(LandmarkSet(id=spec_id, coords=np.array(rows)))
    extra, extra_no = next_content_line()
    if extra is not None:
        raise ParseError(f"trailing content after {S} specimens: {extra!r}",
                         line=extra_no)
    return specimens


def emit_landmarks(specimens: list[LandmarkSet], path: str) -> None:
    if not specimens:
        raise ParseError("cannot emit an empty specimen list")
    N, K = specimens[0].N, specimens[0].K
    for sp in specimens:
        if (sp.N, sp.K) != (N, K):
            raise ParseError(f"specimen {sp.id!r} has dimensions "
                             f"({sp.N}, {sp.K}), expected ({N}, {K})")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{N} {K} {len(specimens)}\n")
        for sp in specimens:
            fh.write(f"# {sp.id}\n")
            for row in sp.coords:
                fh.write(" ".join(format(x, ".17g") for x in row) + "\n")


def read_matrix(path: str) -> np.ndarray:
    """A plain whitespace-separated matrix file (used for Theta)."""
    rows = []
    for i, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            rows.append([float(t) for t in line.split()])
        except ValueError:
            raise ParseError(f"non-numeric token in matrix row {line!r}", line=i)
        if not np.all(np.isfinite(rows[-1])):
            raise ParseError(f"non-finite entry in matrix row {line!r}", line=i)
        if len(rows[-1]) != len(rows[0]):
            raise ParseError("ragged matrix rows", line=i)
    if not rows:
        raise ParseError("empty matrix file", line=1)
    return np.array(rows)
