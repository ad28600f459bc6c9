"""One content-addressed store under the result cache and the trace store.

Layout: an entry is one or more files ``<root>/<key[:2]>/<key><suffix>``
— the two-character fan-out keeps directories small under big sweeps.
A subclass names its suffixes in commit order: the first is the entry's
data file (its mtime is the entry's age), the last is the commit marker.

Commit rule: each file is written to a same-directory ``.tmp-*`` file
and moved into place with ``os.replace``, marker last, so an entry is
visible only once every file is whole.  An entry without its marker is
an uncommitted torn write and reads as a miss; removal drops the marker
first, so a half-removed entry reads as a miss too.  Concurrent writers
(pool workers, parallel suites) race harmlessly: entries are
content-addressed, so the loser just overwrites identical bytes.
A ``.tmp-*`` file a killed writer left behind is never listed as an
entry: :meth:`ContentStore.stats` counts and sizes such temps apart,
:meth:`ContentStore.clear` removes them, and an age-based eviction
removes those older than its cutoff (a live writer's temp is seconds
old).
"""

from __future__ import annotations

import os
import tempfile
from typing import BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def _listing(path: str) -> List[str]:
    """Sorted directory entries; a missing path or a plain file has none."""
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


class ContentStore:
    """Entries addressed by key under ``root``; see the module docstring."""

    #: An entry's file suffixes in commit order (data first, marker last).
    SUFFIXES: Tuple[str, ...] = ()
    #: Name of the entry count in :meth:`stats`.
    COUNT_NAME = "entries"

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _file(self, key: str, suffix: str) -> str:
        return os.path.join(self.root, key[:2], key + suffix)

    def path(self, key: str) -> str:
        """The entry's data file."""
        return self._file(key, self.SUFFIXES[0])

    def _commit(self, key: str, *writers: Callable[[BinaryIO], object]) -> str:
        """Write one entry under the commit rule, one writer per suffix
        (each fills an open binary file); returns the data path."""
        directory = os.path.join(self.root, key[:2])
        os.makedirs(directory, exist_ok=True)
        for suffix, write in zip(self.SUFFIXES, writers):
            fd, tmp = tempfile.mkstemp(
                dir=directory, prefix=".tmp-", suffix=suffix
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    write(fh)
                os.replace(tmp, self._file(key, suffix))
            except BaseException:
                _unlink(tmp)
                raise
        return self.path(key)

    def __contains__(self, key: str) -> bool:
        return all(os.path.exists(self._file(key, s)) for s in self.SUFFIXES)

    def keys(self) -> Iterator[str]:
        """Committed keys in sorted bucket/entry order."""
        data = self.SUFFIXES[0]
        for bucket in _listing(self.root):
            for entry in _listing(os.path.join(self.root, bucket)):
                if entry.endswith(data) and not entry.startswith(".tmp-"):
                    key = entry[: -len(data)]
                    if key in self:
                        yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _entry_bytes(self, key: str) -> int:
        total = 0
        for suffix in self.SUFFIXES:
            try:
                total += os.path.getsize(self._file(key, suffix))
            except OSError:
                pass
        return total

    def _temps(self) -> List[str]:
        """Paths of the ``.tmp-*`` files in every bucket."""
        temps = []
        for bucket in _listing(self.root):
            directory = os.path.join(self.root, bucket)
            temps.extend(
                os.path.join(directory, entry)
                for entry in _listing(directory)
                if entry.startswith(".tmp-")
            )
        return temps

    def _remove_temps(self, cutoff: Optional[float] = None) -> None:
        """Unlink leftover temps; with ``cutoff``, only those whose mtime
        is before it.  A temp that vanishes mid-walk (its writer
        committed) is skipped."""
        for path in self._temps():
            if cutoff is not None:
                try:
                    if os.path.getmtime(path) >= cutoff:
                        continue
                except OSError:
                    continue
            _unlink(path)

    def stats(self) -> Dict[str, int]:
        """``{COUNT_NAME: count, "bytes": total_size, "tmp_files": n,
        "tmp_bytes": size}`` — committed entries, then leftover temps."""
        count = size = 0
        for key in self.keys():
            count += 1
            size += self._entry_bytes(key)
        temps = temp_bytes = 0
        for path in self._temps():
            try:
                temp_bytes += os.path.getsize(path)
                temps += 1
            except OSError:
                pass
        return {
            self.COUNT_NAME: count, "bytes": size,
            "tmp_files": temps, "tmp_bytes": temp_bytes,
        }

    def _remove(self, key: str) -> bool:
        """Unlink an entry, marker first; True when the marker was there.

        Processes that already mapped a data file keep their bytes:
        POSIX unlink frees them only when the last map closes.
        """
        removed = [_unlink(self._file(key, s)) for s in reversed(self.SUFFIXES)]
        return removed[0]

    def clear(self) -> int:
        """Delete every entry and leftover temp; returns how many
        entries were removed."""
        removed = sum(self._remove(key) for key in list(self.keys()))
        self._remove_temps()
        return removed

    def _oldest_first(self) -> List[Tuple[float, str]]:
        """``(mtime, key)`` of every committed entry, oldest first.

        A file that vanishes mid-walk (a concurrent eviction) is skipped.
        """
        entries = []
        for key in self.keys():
            try:
                entries.append((os.path.getmtime(self.path(key)), key))
            except OSError:
                pass
        entries.sort()
        return entries
