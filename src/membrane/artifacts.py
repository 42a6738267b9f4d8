"""Output files: CSV tables, raw float64 arrays with sidecar metadata, manifests."""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_array(outdir: Path, name: str, arr: np.ndarray, meta: Optional[dict] = None) -> list:
    """Raw little-endian float64 (C order) plus a JSON sidecar describing layout."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(arr, dtype="<f8")
    raw = outdir / f"{name}.f64"
    data.tofile(raw)
    side = {
        "dtype": "float64",
        "byte_order": "little",
        "order": "C",
        "shape": list(data.shape),
    }
    if meta:
        side.update(meta)
    sidecar = outdir / f"{name}.json"
    sidecar.write_text(json.dumps(side, indent=2, sort_keys=True) + "\n")
    return [raw, sidecar]


def write_csv(outdir: Path, name: str, header: list, rows: list) -> list:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in r])
    return [path]


@dataclass
class RunManifest:
    """Record of one experiment run: config echo, timings, assertions, files."""

    config: dict
    versions: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)       # stage -> seconds
    stage_facts: dict = field(default_factory=dict)  # stage -> solver facts of that stage
    assertions: list = field(default_factory=list)   # {name, passed, detail}
    files: dict = field(default_factory=dict)        # name of a file this run wrote -> sha256

    def __post_init__(self):
        import scipy

        from . import __version__

        self.versions = {
            "membrane": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }
        self._stage_start = time.perf_counter()

    def stage(self, name: str, **facts) -> None:
        """Close a stage: book its wall time and any facts about how it ran."""
        now = time.perf_counter()
        self.stages[name] = round(now - self._stage_start, 6)
        self._stage_start = now
        if facts:
            self.stage_facts[name] = facts

    def wrote(self, paths: list) -> None:
        """Book files this run wrote; the manifest lists these and no others."""
        for p in paths:
            self.files[Path(p).name] = _sha256(Path(p))

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.assertions.append({"name": name, "passed": bool(passed), "detail": detail})
        return bool(passed)

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def finalize(self, outdir: Path) -> Path:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": self.config,
            "versions": self.versions,
            "wall_clock_s": self.stages,
            "stage_facts": self.stage_facts,
            "assertions": self.assertions,
            "passed": self.all_passed,
            "files": self.files,
        }
        path = outdir / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
