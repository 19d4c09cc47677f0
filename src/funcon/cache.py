"""Content-addressed result cache for the CLI's close and galois listings.

A key is the sha256 of the operation name, framed by its length, and its
inputs, which the CLI gives as the document text and each argument, each framed
by its length; a hit requires an exact tool-version match.  An entry is one
``<key>.json`` file, read with one open: a missing entry is a silent miss, and
an entry that cannot be read or decoded is ignored with a warning and the
result recomputed.  A store writes a temp file created exclusively in the cache
directory, which it makes on the first store, and renames it onto the entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__

CACHE_DIR_ENV = "FUNCON_CACHE_DIR"

_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL
_temp_serials = itertools.count()  # with the pid, a temp name no other store uses


def cache_key(operation: str, inputs: str) -> str:
    framed = f"{len(operation)}:{operation}\n{inputs}"
    return hashlib.sha256(framed.encode("utf-8", "surrogatepass")).hexdigest()


def resolve_cache_dir(flag_value: str | None) -> Path | None:
    """Cache directory from the flag, else the environment, else disabled."""
    directory = flag_value or os.environ.get(CACHE_DIR_ENV)
    return Path(directory) if directory else None


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = directory
        self._prefix = os.path.join(directory, "")

    def load(self, key: str) -> str | None:
        path = f"{self._prefix}{key}.json"
        try:
            with open(path, "rb") as fh:
                raw = json.loads(fh.read())
            stored, value, version = raw["key"], raw["value"], raw["tool_version"]
            if not all(isinstance(field, str) for field in (stored, value, version)):
                raise TypeError("cache entry fields must be strings")
        except (FileNotFoundError, NotADirectoryError):  # no entry, or no directory to hold one
            return None
        except (ValueError, KeyError, TypeError, OSError):
            print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
            return None
        return value if (stored, version) == (key, __version__) else None

    def store(self, key: str, value: str) -> None:
        """Write an entry; the cache is best-effort, so a directory that cannot
        hold it is reported with a warning and the entry skipped."""
        data = json.dumps({"key": key, "value": value, "tool_version": __version__}).encode()
        tmp = f"{self._prefix}{key}.{os.getpid()}.{next(_temp_serials)}.tmp"
        created = False
        try:
            try:
                fd = os.open(tmp, _NEW_FILE, 0o600)
            except FileNotFoundError:  # the first store into this directory
                os.makedirs(self.directory, exist_ok=True)
                fd = os.open(tmp, _NEW_FILE, 0o600)
            created = True
            try:
                while data:  # a short write leaves the rest to write, never a truncated entry
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, f"{self._prefix}{key}.json")
            created = False
        except OSError as exc:
            print(f"warning: result not cached in {self.directory}: {exc}", file=sys.stderr)
        finally:
            if created:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
