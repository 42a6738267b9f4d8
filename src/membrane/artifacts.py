"""Output files: CSV tables, raw float64 arrays with sidecar metadata, manifests."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import resource
import time
from contextlib import contextmanager
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


@dataclass
class RunManifest:
    """Record of one experiment run: config echo, timings, assertions, and the
    files it wrote into `outdir`.  Every file goes through `file`, so the
    manifest lists exactly the files of this run; the directory is made on
    the first write."""

    outdir: Path
    config: dict
    versions: dict = field(default_factory=dict)
    threads: dict = field(default_factory=dict)      # thread settings the run saw
    stages: dict = field(default_factory=dict)       # stage -> seconds
    peak_rss_mb: dict = field(default_factory=dict)  # stage -> peak RSS of the process so far
    stage_facts: dict = field(default_factory=dict)  # stage -> solver facts of that stage
    assertions: list = field(default_factory=list)   # {name, passed, detail}
    files: dict = field(default_factory=dict)        # name of a file this run wrote -> sha256

    def __post_init__(self):
        import scipy

        from . import __version__
        from .lattice import WORKERS

        self.versions = {
            "membrane": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }
        env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        self.threads = {v: os.environ.get(v) for v in env} | {"fft_workers": WORKERS}  # torus FFTs and walks
        self._stage_start = time.perf_counter()

    def stage(self, name: str, **facts) -> None:
        """Close a stage: book its wall time, the process's peak RSS so far
        in MB (`ru_maxrss`) and any facts about how it ran."""
        now = time.perf_counter()
        self.stages[name] = round(now - self._stage_start, 6)
        self.peak_rss_mb[name] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        self._stage_start = now
        if facts:
            self.stage_facts[name] = facts

    @contextmanager
    def file(self, name: str):
        """Yield the path of `name` in the output directory; the file written
        there is booked with its SHA-256 when the block ends."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        yield path
        self.files[name] = _sha256(path)

    def csv(self, name: str, header: list, rows: list) -> None:
        with self.file(f"{name}.csv") as path, open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in rows:
                w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in r])

    def array(self, name: str, arr: np.ndarray, meta: Optional[dict] = None) -> None:
        """Raw little-endian float64 (C order) plus a JSON sidecar describing layout."""
        data = np.ascontiguousarray(arr, dtype="<f8")
        with self.file(f"{name}.f64") as path:
            data.tofile(path)
        side = {"dtype": "float64", "byte_order": "little", "order": "C", "shape": list(data.shape)}
        with self.file(f"{name}.json") as path:
            path.write_text(json.dumps(side | (meta or {}), indent=2, sort_keys=True) + "\n")

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def finalize(self) -> None:
        payload = {
            "config": self.config,
            "versions": self.versions,
            "threads": self.threads,
            "wall_clock_s": self.stages,
            "peak_rss_mb": self.peak_rss_mb,
            "stage_facts": self.stage_facts,
            "assertions": self.assertions,
            "passed": self.all_passed,
            "files": self.files,
        }
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
