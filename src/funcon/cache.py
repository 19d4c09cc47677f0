"""Content-addressed result cache for the CLI's close and galois listings.

A key is the sha256 of the operation name and its inputs, which the CLI
gives as the document text plus the argument list; a hit requires an exact
tool-version match.  Entries are JSON files written via atomic rename; a
corrupt entry is ignored with a warning and the result recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__

CACHE_DIR_ENV = "FUNCON_CACHE_DIR"


def cache_key(operation: str, inputs: str) -> str:
    payload = json.dumps({"operation": operation, "inputs": inputs}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def resolve_cache_dir(flag_value: str | None) -> Path | None:
    """Cache directory from the flag, else the environment, else disabled."""
    directory = flag_value or os.environ.get(CACHE_DIR_ENV)
    return Path(directory) if directory else None


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = directory

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> str | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
            stored, value, version = raw["key"], raw["value"], raw["tool_version"]
            if not all(isinstance(field, str) for field in (stored, value, version)):
                raise TypeError("cache entry fields must be strings")
        except (ValueError, KeyError, TypeError, OSError):
            print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
            return None
        return value if (stored, version) == (key, __version__) else None

    def store(self, key: str, value: str) -> None:
        """Write an entry; the cache is best-effort, so a directory that cannot
        hold it is reported with a warning and the entry skipped."""
        payload = json.dumps({"key": key, "value": value, "tool_version": __version__})
        tmp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except OSError as exc:
            print(f"warning: result not cached in {self.directory}: {exc}", file=sys.stderr)
        finally:
            if tmp and os.path.exists(tmp):
                os.unlink(tmp)
