"""Lattice cache files: JSON keyed by spec string and engine version.

Subgroup bitsets are stored as lowercase hex of their little-endian byte
form (padded to 8-byte words).  Each file is sealed by a SHA-256 of its
canonical payload, so a truncated, bit-flipped or hand-edited file is
recomputed instead of trusted.  Writes are deterministic, so rebuilding
a cache yields byte-identical files, and streamed: a file is hashed and
written piece by piece, never held whole in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from . import __version__
from .groups import FiniteGroup, Subgroup
from .lattice import SubgroupLattice

ENV_CACHE_DIR = "MOEBIUS_CACHE_DIR"


def mask_to_hex(mask: int, order: int) -> str:
    nbytes = ((order + 63) // 64) * 8
    return mask.to_bytes(nbytes, "little").hex()


def hex_to_mask(text: str) -> int:
    return int.from_bytes(bytes.fromhex(text), "little")


def lattice_payload(lattice: SubgroupLattice) -> dict:
    return {**_head(lattice.group), "subgroups": list(_hexes(lattice))}


def _head(G: FiniteGroup) -> dict:
    return {"spec": G.spec, "engine_version": __version__, "element_count": G.order}


def _hexes(lattice: SubgroupLattice):
    order = lattice.group.order
    return (mask_to_hex(s.mask, order) for s in lattice.subgroups)


def payload_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _payload_pieces(head: dict, hexes):
    """payload_bytes of head plus a "subgroups" list of the hex strings,
    in pieces: every key of head sorts before "subgroups", so the list
    comes last, and hex digits need no JSON escaping."""
    text = payload_bytes({**head, "subgroups": []})
    yield text[:-len(b"]}\n")]
    for i, h in enumerate(hexes):
        yield f'{"," if i else ""}"{h}"'.encode()
    yield b"]}\n"


def seal(payload: dict) -> dict:
    """The payload with its "sha256" field set to the digest of the
    canonical bytes of the payload without that field."""
    body = {k: v for k, v in payload.items() if k != "sha256"}
    return {**body, "sha256": hashlib.sha256(payload_bytes(body)).hexdigest()}


def cache_path(cache_dir: str | Path, spec: str) -> Path:
    slug = "".join(ch if ch.isalnum() else "_" for ch in spec)[:60]
    digest = hashlib.sha256(spec.encode()).hexdigest()[:12]
    return Path(cache_dir) / f"lattice_{slug}_{digest}.json"


def save_lattice(lattice: SubgroupLattice, cache_dir: str | Path) -> Path:
    if lattice.group.spec is None:
        raise ValueError("only groups built from a spec string can be cached")
    path = cache_path(cache_dir, lattice.group.spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a reader sees the old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # the bytes of payload_bytes(seal(lattice_payload(lattice))), hashed and
    # written piece by piece, so the file is never held whole in memory
    head = _head(lattice.group)
    digest = hashlib.sha256()
    for piece in _payload_pieces(head, _hexes(lattice)):
        digest.update(piece)
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(_payload_pieces({**head, "sha256": digest.hexdigest()},
                                          _hexes(lattice)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_lattice(G: FiniteGroup, cache_dir: str | Path) -> SubgroupLattice | None:
    """Load a cached lattice; any mismatch or corruption, a missing or wrong
    seal included, warns and returns None."""
    if G.spec is None:
        return None
    path = cache_path(cache_dir, G.spec)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload["spec"] != G.spec:
            raise ValueError("spec mismatch")
        if payload["engine_version"] != __version__:
            warnings.warn(f"cache {path} was written by engine "
                          f"{payload['engine_version']}; recomputing", stacklevel=2)
            return None
        if seal(payload)["sha256"] != payload.get("sha256"):
            raise ValueError("missing or wrong sha256 seal")
        if payload["element_count"] != G.order:
            raise ValueError("element count mismatch")
        masks = [hex_to_mask(h) for h in payload["subgroups"]]
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate subgroups")
        full = G.full_mask()
        if (1 << G.identity) not in masks or full not in masks:
            raise ValueError("missing trivial or full subgroup")
        for m in masks:
            if m & ~full or G.order % m.bit_count():
                raise ValueError("invalid subgroup bitset")
        subs = [Subgroup(m) for m in masks]
        subs.sort(key=lambda s: (s.order, s.mask))
        return SubgroupLattice(G, subs)
    except Exception as exc:  # noqa: BLE001 - any corruption falls back
        warnings.warn(f"ignoring unusable cache {path}: {exc}", stacklevel=2)
        return None


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
