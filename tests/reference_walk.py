"""The pathlib walk of a checkout, kept as the tests' reference.

These are the functions the extractor used before it walked a tree once with
``os.scandir``: ``rglob`` over the whole tree, then a filter on every path,
and one ``rglob`` per build descriptor.  The pruned walk must find the same
files and services, in the same order, as these do under the ``pathlib`` of
Python 3.10 and 3.11; ``rglob`` changed after that.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from archdelta.errors import ExtractionError
from archdelta.extractor import BUILD_DESCRIPTORS
from archdelta.profiles import MarkerProfile

_SKIP_DIR_PARTS = {"target", "build", "out", "node_modules"}


def _skippable(rel_parts: tuple[str, ...]) -> bool:
    for i, part in enumerate(rel_parts[:-1]):
        if part.startswith("."):
            return True
        if part in _SKIP_DIR_PARTS:
            return True
        if part == "src" and i + 1 < len(rel_parts) and rel_parts[i + 1] == "test":
            return True
    return False


def _source_files(root: Path, profile: MarkerProfile) -> list[tuple[str, Path]]:
    files = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        if path.suffix not in profile.file_extensions:
            continue
        rel = path.relative_to(root)
        if _skippable(rel.parts):
            continue
        files.append((rel.as_posix(), path))
    return files


def discover_services(
    root_path: str | Path, name_overrides: Mapping[str, str] | None = None
) -> list[tuple[str, Path]]:
    """Find microservice roots under a checkout.

    Every innermost build-descriptor directory is one candidate; a tree with
    no descriptors is a single service named after its directory.  Names can
    be overridden by relative path or directory name.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise ExtractionError(f"not a readable directory: {root}")
    overrides = dict(name_overrides or {})
    candidates: set[Path] = set()
    for descriptor in BUILD_DESCRIPTORS:
        for hit in root.rglob(descriptor):
            rel = hit.relative_to(root)
            if _skippable(rel.parts):
                continue
            candidates.add(hit.parent)
    leaves = [
        c
        for c in candidates
        if not any(o != c and o.is_relative_to(c) for o in candidates)
    ]
    if not leaves:
        leaves = [root]
    services: list[tuple[str, Path]] = []
    seen: dict[str, Path] = {}
    for path in sorted(leaves):
        rel = path.relative_to(root).as_posix() if path != root else "."
        name = overrides.get(rel) or overrides.get(path.name) or path.name
        if name in seen:
            raise ExtractionError(
                f"service name {name!r} maps to both {seen[name]} and {path}"
            )
        seen[name] = path
        services.append((name, path))
    services.sort(key=lambda item: item[0])
    return services
