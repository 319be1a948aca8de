"""Lattice cache files: lines of text keyed by spec string and engine version.

Line 1, the head, is the canonical JSON (sorted keys, no spaces) of the
spec, the engine version and the element count.  Then comes one line per
conjugacy class, in lattice order: its representative's witness, the
decimal element ids that generate it, separated by single spaces (the
trivial subgroup's line is empty).  The last line is
``sha256 <digest>``, the HMAC-SHA256 of every byte before it under the
directory's key, so a truncated, bit-flipped or hand-edited file is
recomputed instead of trusted, even one re-sealed without the key (a
class line dropped, say, which every other rule passes).  The key is 32
random bytes in the file `cache.key` of the directory, made with mode
0600 at the first write; a load with no key fails the seal.
`file_lines` gives every line of a file, and a write streams them into
place; a load reads the file in one go and checks the seal over its
bytes before it parses a class line.  Writes are deterministic, so
rebuilding a cache in one directory yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from . import __version__
from .groups import FiniteGroup, Subgroup, closure
from .lattice import LatticeBuilder, SubgroupLattice

ENV_CACHE_DIR = "MOEBIUS_CACHE_DIR"
KEY_FILE = "cache.key"
KEY_BYTES = 32


def class_line(sub: Subgroup) -> str:
    """A class line: the witness of a representative."""
    return " ".join(map(str, sub.gens))


def _seal_line(mac) -> bytes:
    """The seal line of a file whose bytes before it give the HMAC `mac`."""
    return f"sha256 {mac.hexdigest()}\n".encode()


def file_lines(head: dict, classes: Iterable[str], key: bytes) -> Iterator[bytes]:
    """The lines of a cache file: the head's canonical JSON, the class
    lines, and the seal line over all the bytes before it under `key`."""
    mac = hmac.new(key, digestmod=hashlib.sha256)
    for text in chain([json.dumps(head, sort_keys=True, separators=(",", ":"))], classes):
        line = f"{text}\n".encode()
        mac.update(line)
        yield line
    yield _seal_line(mac)


def read_key(cache_dir: str | Path) -> bytes | None:
    """The directory's sealing key, or None when there is no whole one."""
    try:
        key = (Path(cache_dir) / KEY_FILE).read_bytes()
    except FileNotFoundError:
        return None
    return key if len(key) == KEY_BYTES else None


def _writer_key(cache_dir: Path) -> bytes:
    """The directory's sealing key, made if there is none: the random
    bytes go to a temporary file of mode 0600 that is then linked into
    place, so no reader sees part of a key and, of two writers making one
    at once, both seal with the first one linked.  A damaged key is
    replaced whole."""
    key = read_key(cache_dir)
    if key is None:
        path = cache_dir / KEY_FILE
        tmp = path.with_name(f"{KEY_FILE}.{os.getpid()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            with os.fdopen(fd, "wb") as fh:
                fh.write(os.urandom(KEY_BYTES))
            try:
                os.link(tmp, path)
            except FileExistsError:
                if read_key(cache_dir) is None:
                    os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        key = read_key(cache_dir)
    return key


def cache_path(cache_dir: str | Path, spec: str) -> Path:
    slug = "".join(ch if ch.isalnum() else "_" for ch in spec)[:60]
    digest = hashlib.sha256(spec.encode()).hexdigest()[:12]
    return Path(cache_dir) / f"lattice_{slug}_{digest}.json"


def save_lattice(lattice: SubgroupLattice, cache_dir: str | Path) -> Path:
    G = lattice.group
    if G.spec is None:
        raise ValueError("only groups built from a spec string can be cached")
    path = cache_path(cache_dir, G.spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    key = _writer_key(path.parent)
    # a reader sees the old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    head = {"spec": G.spec, "engine_version": __version__, "element_count": G.order}
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(file_lines(head, (class_line(lattice.subgroups[r])
                                            for r in lattice.class_representatives()),
                                     key))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_lattice(G: FiniteGroup, cache_dir: str | Path) -> SubgroupLattice | None:
    """Load a cached lattice in one read.  The head must name G's spec and
    this engine's version, the last line must seal every byte before it
    under the directory's key, and the element count must be |G|; then,
    line by line, each class line must parse as a witness inside G, and
    its class is walked with `LatticeBuilder` from the witness's closure;
    no two lines may give one class.  The trivial and full subgroups must
    be there.  Any mismatch or corruption (a wrong seal, a seal made
    without the key, no key, an earlier format's hex bitset, which does
    not parse or reads as an id past G) warns and returns None."""
    if G.spec is None:
        return None
    path = cache_path(cache_dir, G.spec)
    if not path.exists():
        return None
    try:
        data = path.read_bytes()
        # the head line with its newline, or the whole file if it has none
        head = json.loads(data[:data.find(b"\n") + 1] or data)
        if head["spec"] != G.spec:
            raise ValueError("spec mismatch")
        if head["engine_version"] != __version__:
            warnings.warn(f"cache {path} was written by engine "
                          f"{head['engine_version']}; recomputing", stacklevel=2)
            return None
        seal = data.rfind(b"\n", 0, -1) + 1     # where the last line starts
        key = read_key(cache_dir)
        if key is None or not hmac.compare_digest(
                data[seal:], _seal_line(hmac.new(key, data[:seal], hashlib.sha256))):
            raise ValueError("missing or wrong sha256 seal")
        if head["element_count"] != G.order:
            raise ValueError("element count mismatch")
        build = LatticeBuilder(G)
        for line in data[:seal].split(b"\n")[1:-1]:
            witness = tuple(map(int, line.split()))
            if any(not 0 <= x < G.order for x in witness):
                raise ValueError("witness outside the group")
            build.add(closure(G, witness)[0], witness)
        if (1 << G.identity) not in build.witnesses or G.full_mask() not in build.witnesses:
            raise ValueError("missing trivial or full subgroup")
        return build.lattice()
    except Exception as exc:  # noqa: BLE001 - any corruption falls back
        warnings.warn(f"ignoring unusable cache {path}: {exc}", stacklevel=2)
        return None


def clear_cache(cache_dir: str | Path) -> int:
    """Remove the directory's cache files and the temporary files of
    writes killed before their rename, and return how many cache files
    went.  The key goes too, uncounted; the next write makes a new one."""
    removed = 0
    for pattern in ("lattice_*.json", "lattice_*.json.*.tmp"):
        for f in Path(cache_dir).glob(pattern):
            f.unlink()
            removed += 1
    for pattern in (KEY_FILE, f"{KEY_FILE}.*.tmp"):
        for f in Path(cache_dir).glob(pattern):
            f.unlink()
    return removed


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
