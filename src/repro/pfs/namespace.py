"""File-system namespace state (owned by the metadata server).

Pure in-memory data structure: directories, inodes, and the layout chosen
at file creation.  All costs (service time, queueing) live in
:mod:`repro.pfs.mds`; this module is deliberately free of simulation
concerns so it can be unit-tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.pfs.layout import StripeLayout


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


def _parent(path: str) -> str:
    norm = _normalize(path)
    if norm == "/":
        return "/"
    return norm.rsplit("/", 1)[0] or "/"


@dataclass
class Inode:
    """Metadata of one file."""

    path: str
    layout: StripeLayout
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    atime: float = 0.0
    opens: int = 0


class Namespace:
    """Directories and files of one file system instance."""

    def __init__(self):
        self._dirs: Dict[str, List[str]] = {"/": []}
        self._files: Dict[str, Inode] = {}

    # -- queries ------------------------------------------------------------
    def exists(self, path: str) -> bool:
        p = _normalize(path)
        return p in self._files or p in self._dirs

    def is_dir(self, path: str) -> bool:
        return _normalize(path) in self._dirs

    def is_file(self, path: str) -> bool:
        return _normalize(path) in self._files

    def lookup(self, path: str) -> Inode:
        p = _normalize(path)
        inode = self._files.get(p)
        if inode is None:
            raise FileNotFoundError(p)
        return inode

    def listdir(self, path: str) -> List[str]:
        p = _normalize(path)
        entries = self._dirs.get(p)
        if entries is None:
            raise NotADirectoryError(p)
        return list(entries)

    @property
    def n_files(self) -> int:
        return len(self._files)

    @property
    def n_dirs(self) -> int:
        return len(self._dirs)

    def total_bytes(self) -> int:
        return sum(i.size for i in self._files.values())

    # -- mutations ----------------------------------------------------------
    def mkdir(self, path: str) -> None:
        p = _normalize(path)
        if p in self._dirs:
            raise FileExistsError(p)
        if p in self._files:
            raise FileExistsError(f"{p} exists as a file")
        parent = _parent(p)
        if parent not in self._dirs:
            raise FileNotFoundError(f"parent directory {parent} does not exist")
        self._dirs[p] = []
        self._dirs[parent].append(p.rsplit("/", 1)[1])

    def rmdir(self, path: str) -> None:
        p = _normalize(path)
        if p == "/":
            raise PermissionError("cannot remove the root directory")
        if p not in self._dirs:
            raise NotADirectoryError(p)
        if self._dirs[p]:
            raise OSError(f"directory not empty: {p}")
        del self._dirs[p]
        parent = _parent(p)
        self._dirs[parent].remove(p.rsplit("/", 1)[1])

    def create(self, path: str, layout: StripeLayout, now: float = 0.0) -> Inode:
        p = _normalize(path)
        if p in self._files or p in self._dirs:
            raise FileExistsError(p)
        parent = _parent(p)
        if parent not in self._dirs:
            raise FileNotFoundError(f"parent directory {parent} does not exist")
        inode = Inode(path=p, layout=layout, ctime=now, mtime=now, atime=now)
        self._files[p] = inode
        self._dirs[parent].append(p.rsplit("/", 1)[1])
        return inode

    def unlink(self, path: str) -> Inode:
        p = _normalize(path)
        inode = self._files.pop(p, None)
        if inode is None:
            raise FileNotFoundError(p)
        parent = _parent(p)
        self._dirs[parent].remove(p.rsplit("/", 1)[1])
        return inode

    def update_size(self, path: str, new_end: int, now: float = 0.0) -> None:
        """Grow the file to cover a write ending at ``new_end``."""
        inode = self.lookup(path)
        inode.size = max(inode.size, new_end)
        inode.mtime = now
