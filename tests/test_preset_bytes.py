"""The preset outputs keep their bytes.

``preset_md5.txt`` lists the md5 of every output that ``tools/preset_md5.py``
writes: the reduced-scale runs of each preset under one worker and one BLAS
thread and under two workers and two BLAS threads, the two simulation audits
(one at two workers, one at one), ``list-experiments`` and ``print-defaults``.  A change that moves output bytes
on purpose regenerates the listing in the same diff (``python
tools/preset_md5.py OUTDIR``, then keep the header) and says which files moved
and why.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TOOL = HERE.parent / "tools" / "preset_md5.py"
LISTING = HERE / "preset_md5.txt"


def _parse(text: str) -> dict:
    """file -> md5 of a listing; lines starting with # are its header."""
    pairs = (line.split(None, 1) for line in text.splitlines() if line and not line.startswith("#"))
    return {name: md5 for md5, name in pairs}


def test_preset_outputs_keep_their_bytes(tmp_path):
    text = LISTING.read_text(encoding="utf-8")
    expected = _parse(text)
    assert len(expected) == 59
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = _parse(proc.stdout)
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    header = " ".join(line.lstrip("# ") for line in text.splitlines() if line.startswith("#"))
    assert not differ, (
        f"{len(differ)} preset outputs differ from {LISTING.name}: {', '.join(differ)} "
        f"(listing: {header}; this run: NumPy {np.__version__})"
    )
