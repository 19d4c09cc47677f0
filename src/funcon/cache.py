"""Content-addressed result cache for the CLI's close and galois listings.

A key is the sha256 of the operation name, framed by its length, and its
inputs, which the CLI gives as the document text and each argument, each framed
by its length; a hit requires an exact tool-version match.  An entry is one
``<key>.entry`` file, read with one open: a header line, the JSON object of the
key and the tool version (``json.dumps`` never writes a raw newline), then the
value's own UTF-8 bytes, so no store escapes a listing and no hit unescapes
one.  A missing entry is a silent miss, as is one under another key or tool
version, or one in the older ``<key>.json`` layout, which is never opened; an
entry that cannot be read, whose header does not decode or whose body is not
UTF-8 is ignored with a warning and the result recomputed.  A store writes a
temp file created exclusively in the cache directory, which it makes on the
first store, and renames it onto the entry.
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
        path = f"{self._prefix}{key}.entry"
        try:
            with open(path, "rb") as fh:
                header, newline, body = fh.read().partition(b"\n")
            if not newline:
                raise ValueError("cache entry has no header line")
            raw = json.loads(header)
            stored, version = raw["key"], raw["tool_version"]
            if not all(isinstance(field, str) for field in (stored, version)):
                raise TypeError("cache entry fields must be strings")
            value = body.decode("utf-8", "surrogatepass")
        except (FileNotFoundError, NotADirectoryError):  # no entry, or no directory to hold one
            return None
        except (ValueError, KeyError, TypeError, OSError):
            print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
            return None
        return value if (stored, version) == (key, __version__) else None

    def store(self, key: str, value: str) -> None:
        """Write an entry; the cache is best-effort, so a directory that cannot
        hold it is reported with a warning and the entry skipped."""
        header = json.dumps({"key": key, "tool_version": __version__})
        data = f"{header}\n{value}".encode("utf-8", "surrogatepass")
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
            os.replace(tmp, f"{self._prefix}{key}.entry")
            created = False
        except OSError as exc:
            print(f"warning: result not cached in {self.directory}: {exc}", file=sys.stderr)
        finally:
            if created:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
