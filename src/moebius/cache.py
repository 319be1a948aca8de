"""Lattice cache files: lines of text keyed by spec string and engine version.

Line 1, the head, is the canonical JSON (sorted keys, no spaces) of the
spec, the engine version and the element count.  Then comes one line per
conjugacy class, in lattice order: the lowercase hex of its
representative's bitset's little-endian bytes (padded to 8-byte words),
then the representative's witness as decimal element ids, space-separated.
The last line is ``sha256 <digest>``, the SHA-256 of every byte before
it, so a truncated, bit-flipped or hand-edited file is recomputed instead
of trusted; the prefix tells it from a mask, which is also 64 hex digits
for orders 193-256.  `file_lines` gives every line of a file, and a write
streams them into place; a load reads the file in one go and checks the
seal over its bytes before it parses a class line.  Writes are
deterministic, so rebuilding a cache yields byte-identical files.
"""

from __future__ import annotations

import hashlib
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


def mask_to_hex(mask: int, order: int) -> str:
    nbytes = ((order + 63) // 64) * 8
    return mask.to_bytes(nbytes, "little").hex()


def hex_to_mask(text: str) -> int:
    return int.from_bytes(bytes.fromhex(text), "little")


def class_line(sub: Subgroup, order: int) -> str:
    """A class line: the hex bitset of a representative, then its witness."""
    return " ".join([mask_to_hex(sub.mask, order), *map(str, sub.gens)])


def _seal_line(digest) -> bytes:
    """The seal line of a file whose bytes before it hash to `digest`."""
    return f"sha256 {digest.hexdigest()}\n".encode()


def file_lines(head: dict, classes: Iterable[str]) -> Iterator[bytes]:
    """The lines of a cache file: the head's canonical JSON, the class
    lines, and the seal line over all the bytes before it."""
    digest = hashlib.sha256()
    for text in chain([json.dumps(head, sort_keys=True, separators=(",", ":"))], classes):
        line = f"{text}\n".encode()
        digest.update(line)
        yield line
    yield _seal_line(digest)


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
    # a reader sees the old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    head = {"spec": G.spec, "engine_version": __version__, "element_count": G.order}
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(file_lines(head, (class_line(lattice.subgroups[r], G.order)
                                            for r in lattice.class_representatives())))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_lattice(G: FiniteGroup, cache_dir: str | Path) -> SubgroupLattice | None:
    """Load a cached lattice in one read.  The head must name G's spec and
    this engine's version, the last line must seal every byte before it,
    and the element count must be |G|; then every class line must parse,
    and each class is walked with `LatticeBuilder`: its bitset and witness
    must lie in G, the witness must generate the bitset, and no two lines
    may give one class.  The trivial and full subgroups must be there.
    Any mismatch or corruption (a wrong seal, an earlier format's bare
    bitset) warns and returns None."""
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
        if data[seal:] != _seal_line(hashlib.sha256(data[:seal])):
            raise ValueError("missing or wrong sha256 seal")
        if head["element_count"] != G.order:
            raise ValueError("element count mismatch")
        classes = [(hex_to_mask(text.decode()), tuple(map(int, ids)))
                   for text, *ids in map(bytes.split, data[:seal].split(b"\n")[1:-1])]
        del data        # not held while the class walks below reach their peak
        full = G.full_mask()
        build = LatticeBuilder(G)
        for mask, witness in classes:
            if mask & ~full:
                raise ValueError("invalid subgroup bitset")
            if any(not 0 <= x < G.order for x in witness):
                raise ValueError("witness outside the group")
            if closure(G, witness)[0] != mask:
                raise ValueError("witness does not generate its subgroup")
            build.add(mask, witness)
        if (1 << G.identity) not in build.witnesses or full not in build.witnesses:
            raise ValueError("missing trivial or full subgroup")
        return build.lattice()
    except Exception as exc:  # noqa: BLE001 - any corruption falls back
        warnings.warn(f"ignoring unusable cache {path}: {exc}", stacklevel=2)
        return None


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
