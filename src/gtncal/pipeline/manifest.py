"""Run manifest: content-addressed artifact registry for pipeline stages.

Each artifact is named by its path relative to the run root, and its entry
holds its sha256 and the stage that wrote it."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ArtifactError
from ..formats import read_json, write_json

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    root: Path
    config_hash: str
    artifacts: dict[str, dict] = field(default_factory=dict)
    seeds: dict[str, int] = field(default_factory=dict)

    @classmethod
    def create(cls, root: str | Path, config_hash: str) -> "RunManifest":
        return cls(root=Path(root), config_hash=config_hash)

    @classmethod
    def load(cls, root: str | Path) -> "RunManifest":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.exists():
            raise ArtifactError(f"no manifest at {path}")
        raw = read_json(path)
        return cls(
            root=root,
            config_hash=raw["config_hash"],
            artifacts=raw["artifacts"],
            seeds=raw["seeds"],
        )

    def save(self) -> None:
        payload = {
            "config_hash": self.config_hash,
            "artifacts": self.artifacts,
            "seeds": self.seeds,
        }
        write_json(self.root / MANIFEST_NAME, payload)

    def add(self, name: str, stage: str) -> None:
        """Register the file at ``name``, a path relative to the run root."""
        self.artifacts[name] = {"sha256": sha256_file(self.root / name), "stage": stage}

    def add_tree(self, name: str, stage: str) -> None:
        """Register every file under the directory ``name``."""
        directory = self.root / name
        for f in sorted(directory.rglob("*")):
            if f.is_file():
                self.add(f.relative_to(self.root).as_posix(), stage)

    def verify(self, names: list[str] | None = None) -> None:
        """Check existence and content hash of the named artifacts (all by
        default); raises ArtifactError on the first mismatch."""
        for name in names if names is not None else sorted(self.artifacts):
            if name not in self.artifacts:
                raise ArtifactError(f"artifact {name!r} not in manifest")
            path = self.root / name
            if not path.exists():
                raise ArtifactError(f"artifact {name!r} missing at {path}")
            actual = sha256_file(path)
            expected = self.artifacts[name]["sha256"]
            if actual != expected:
                raise ArtifactError(f"artifact {name!r} hash mismatch: {actual} != {expected}")

    def verify_prefix(self, prefix: str) -> None:
        names = [n for n in self.artifacts if n == prefix or n.startswith(prefix + "/")]
        if not names:
            raise ArtifactError(f"no artifacts under {prefix!r}")
        self.verify(names)
