"""Model checkpointing to ``.npz`` archives.

``save_module`` stores every named parameter of a module (plus optional
metadata) in a single compressed numpy archive; ``load_module`` restores
them into a freshly constructed module of the same architecture.  This is
the reproduction's checkpoint format — no pickle, so checkpoints are
portable and safe to share.

Parameter dtype round-trips: ``.npz`` stores each array at its dtype and
``load_state_dict`` preserves the stored floating dtype, so a ``float32``
checkpoint rehydrates as ``float32`` parameters (it used to be silently
widened to ``float64``).  Memory layout does not: every array is stored
C-ordered, and ``load_state_dict`` copies it into the layout its parameter
was built with (an F-ordered ``Linear.weight`` stays F), so a checkpoint's
bytes never depend on layout.  Note that a layer's *execution* precision
is fixed at construction — to run a float32 checkpoint at complex64,
build the target module with ``dtype="float32"`` before loading.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .modules import Module

__all__ = [
    "save_module",
    "load_module",
    "module_fingerprint",
    "resolve_checkpoint_path",
    "read_checkpoint_metadata",
]

_META_KEY = "__repro_meta__"


def resolve_checkpoint_path(path: str | Path) -> Path:
    """Resolve a checkpoint argument to an existing ``.npz`` file.

    A bare name falls back to the ``.npz``-suffixed form (mirroring
    ``save_module``'s suffix handling); a missing file raises
    ``FileNotFoundError`` naming the path that was actually probed.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return path


def read_checkpoint_metadata(path: str | Path) -> dict:
    """The metadata dict stored by :func:`save_module` (empty if none).

    Reads only the metadata entry — the parameter arrays stay on disk, so
    a registry can decide how to rebuild the architecture before paying
    for deserialization.
    """
    path = resolve_checkpoint_path(path)
    with np.load(path) as archive:
        if _META_KEY not in archive.files:
            return {}
        return json.loads(bytes(archive[_META_KEY]).decode("utf-8"))


def save_module(module: Module, path: str | Path, metadata: dict | None = None
                ) -> Path:
    """Write all parameters (and JSON-serializable metadata) to ``path``.

    Every array is stored C-ordered, so an F-ordered ``Linear.weight``
    writes the same bytes as a C copy of it would.  The ``.npz`` suffix is
    appended if missing.  Returns the final path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    # C order keeps every member ``fortran_order: False`` whatever the
    # parameter's layout, so a checkpoint's bytes do not depend on it.
    arrays = {name: np.ascontiguousarray(param.data)
              for name, param in module.named_parameters()}
    if _META_KEY in arrays:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    meta = dict(metadata or {})
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_module(module: Module, path: str | Path) -> dict:
    """Restore parameters saved by :func:`save_module`; returns the metadata.

    The module must already have the same architecture (same parameter
    names and shapes) — construct it first, then load.
    """
    path = resolve_checkpoint_path(path)
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files
                 if name != _META_KEY}
        if _META_KEY in archive.files:
            metadata = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        else:
            metadata = {}
    _warn_dtype_mismatch(module, state, path)
    module.load_state_dict(state)
    return metadata


def _warn_dtype_mismatch(module: Module, state: dict, path: Path) -> None:
    """Warn when stored floating widths differ from the module's.

    ``load_state_dict`` preserves the stored dtype, but a layer's
    *execution* precision is fixed at construction — loading float32
    weights into a float64-built module (or vice versa) silently runs the
    checkpoint at the wrong width.  The warning names both dtypes so the
    caller can rebuild with the matching ``dtype=``.
    """
    floats = (np.dtype(np.float32), np.dtype(np.float64))
    for name, param in module.named_parameters():
        stored = state.get(name)
        if stored is None:
            continue
        stored_dtype = np.asarray(stored).dtype
        if (stored_dtype in floats and param.data.dtype in floats
                and stored_dtype != param.data.dtype):
            warnings.warn(
                f"checkpoint {path} stores {stored_dtype} parameters but "
                f"the module was built {param.data.dtype}; rebuild the "
                f"module with dtype={stored_dtype.name!r} to run the "
                "checkpoint at its recorded precision",
                stacklevel=3,
            )
            return


def module_fingerprint(module: Module) -> str:
    """Short content hash of all parameters (change detection in tests)."""
    import hashlib

    digest = hashlib.sha256()
    for name, param in sorted(module.named_parameters()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()[:16]
