"""Output digests and the per-operation correctness check.

An operation is one trace (sweep cell x repeat) or one verify check.  The
reference digests in ``references.json`` pin every output byte for byte,
except the ``wall_ms`` column of trace files, which is a timing.
"""

import hashlib
import json
from pathlib import Path

DIGEST_HEX = 24
TIMING_COLUMN = "wall_ms"


def strip_column(text: str, column: str = TIMING_COLUMN) -> str:
    """Drop one named column from CSV text (header names the columns)."""
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    if column not in header:
        return text
    idx = header.index(column)
    kept = []
    for line in lines:
        fields = line.split(",")
        kept.append(",".join(fields[:idx] + fields[idx + 1:]))
    return "\n".join(kept) + "\n"


def is_trace(relpath: str) -> bool:
    name = relpath.rsplit("/", 1)[-1]
    return name.startswith("trace_r") and name.endswith(".csv")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def file_digest(path: Path, relpath: str) -> str:
    text = path.read_text()
    return digest_text(strip_column(text) if is_trace(relpath) else text)


def collect(out_dir: Path) -> dict[str, str]:
    """Digest of every file under ``out_dir``, keyed by POSIX relative path."""
    digests = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            rel = p.relative_to(out_dir).as_posix()
            digests[rel] = file_digest(p, rel)
    return digests


def _cell(relpath: str) -> str:
    return relpath.rsplit("/", 1)[0] if "/" in relpath else ""


def sweep_failures(reference: dict[str, str], actual: dict[str, str],
                   rc: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one sweep call.

    Each reference trace file is one operation.  It fails when the call
    exited nonzero, when its own digest differs, when its cell's
    aggregate or summary differs, or when a top-level file differs.
    """
    ops = [p for p in reference if is_trace(p)]
    bad = [p for p in reference if actual.get(p) != reference[p]]
    problems = [f"{'missing' if p not in actual else 'digest mismatch'}: {p}" for p in bad]
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
        return len(ops), len(ops), problems
    bad_cells = {_cell(p) for p in bad if not is_trace(p)}
    failed = sum(1 for op in ops
                 if op in bad or _cell(op) in bad_cells or "" in bad_cells)
    return len(ops), failed, problems


def verify_failures(reference: dict, report_path: Path,
                    rc: int) -> tuple[int, int, list[str], int]:
    """(attempted, failed, problems, trials) for one verify call.

    Each check is one operation.  A failed check fails its operation; a
    nonzero exit or a report digest mismatch fails all of them.
    """
    n = reference["checks"]
    if not report_path.is_file():
        return n, n, [f"exit code {rc}", "missing: report"], 0
    text = report_path.read_text()
    try:
        checks = json.loads(text)["checks"]
        trials = sum(c["trials"] for c in checks)
    except (ValueError, KeyError, TypeError):
        return n, n, [f"exit code {rc}", "unreadable report"], 0
    problems = [f"check failed: {c['name']}" for c in checks if not c["passed"]]
    failed = len(problems)
    if digest_text(text) != reference["report"]:
        problems.append("digest mismatch: report")
        failed = n
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
        failed = n
    return n, min(failed, n), problems, trials


def final_queries(out_dir: Path, reference: dict[str, str]) -> int:
    """Sum over trace files of the last row's ``queries_cum``."""
    total = 0
    for p in reference:
        if is_trace(p) and (out_dir / p).is_file():
            last = (out_dir / p).read_text().splitlines()[-1]
            total += int(last.split(",")[1])
    return total


def completed_iterations(out_dir: Path, reference: dict[str, str]) -> int:
    """Iterations completed, summed over every trace (rows minus the t=0 row)."""
    return sum(len((out_dir / p).read_text().splitlines()) - 2
               for p in reference if is_trace(p) and (out_dir / p).is_file())
