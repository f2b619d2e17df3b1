"""``hdf5mini``: a from-scratch HDF5-like container with filter support.

Substitutes for HDF5 in this reproduction (see DESIGN.md): a single-file
container holding named, typed, dimensioned datasets with per-dataset
attributes and an optional *filter* — a compressor plugin applied
transparently on write and undone on read.  This is the integration
surface the paper's "HDF5 filter" productivity row exercises: with the
uniform interface, one filter implementation serves every compressor.

File layout (little-endian)::

    magic "H5M1" | u64 toc_offset | payloads... | TOC
    TOC: varint ndatasets, then per dataset:
         varint len + name | u8 dtype | u8 ndims | u64 dims...
         varint len + filter id | varint len + filter options JSON
         varint len + attrs JSON | u64 payload_offset | u64 payload_len
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import DType, dtype_from_numpy, dtype_to_numpy
from ..core.io import PressioIO
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_registry, io_plugin
from ..core.status import CorruptStreamError, IOError_
from ..encoders.varint import varint_decode, varint_encode
from .posix import _PathIO

__all__ = ["Hdf5MiniFile", "Hdf5MiniIO", "DatasetInfo"]

_MAGIC = b"H5M1"


@dataclasses.dataclass
class DatasetInfo:
    """TOC entry for one dataset."""

    name: str
    dtype: DType
    dims: tuple[int, ...]
    filter_id: str
    filter_options: dict
    attrs: dict
    payload_offset: int
    payload_len: int


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return varint_encode(len(raw)) + raw


def _unpack_str(buf: bytes, pos: int) -> tuple[str, int]:
    n, pos = varint_decode(buf, pos)
    return buf[pos:pos + n].decode("utf-8"), pos + n


class Hdf5MiniFile:
    """Read/write access to an hdf5mini container.

    Modes: ``"r"`` (read), ``"w"`` (truncate + write), ``"a"`` (load then
    extend; the file is rewritten on close).  Use as a context manager
    when writing.
    """

    def __init__(self, path: str | os.PathLike, mode: str = "r"):
        if mode not in ("r", "w", "a"):
            raise ValueError(f"mode must be r, w, or a; got {mode!r}")
        self.path = str(path)
        self.mode = mode
        self._datasets: dict[str, DatasetInfo] = {}
        self._payloads: dict[str, bytes] = {}
        self.attrs: dict = {}
        if mode in ("r", "a") and os.path.exists(self.path):
            self._load()
        elif mode == "r":
            raise IOError_(f"no such file: {self.path}")

    # -- container-level -------------------------------------------------
    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise CorruptStreamError(f"{self.path} is not an hdf5mini file")
        (toc_offset,) = struct.unpack_from("<Q", blob, 4)
        pos = toc_offset
        n, pos = varint_decode(blob, pos)
        attrs_json, pos = _unpack_str(blob, pos)
        self.attrs = json.loads(attrs_json) if attrs_json else {}
        for _ in range(n):
            name, pos = _unpack_str(blob, pos)
            dtype = DType(blob[pos])
            ndims = blob[pos + 1]
            pos += 2
            dims = struct.unpack_from(f"<{ndims}Q", blob, pos)
            pos += 8 * ndims
            filter_id, pos = _unpack_str(blob, pos)
            filter_opts_json, pos = _unpack_str(blob, pos)
            attrs_json, pos = _unpack_str(blob, pos)
            payload_offset, payload_len = struct.unpack_from("<QQ", blob, pos)
            pos += 16
            info = DatasetInfo(
                name, dtype, tuple(int(d) for d in dims), filter_id,
                json.loads(filter_opts_json) if filter_opts_json else {},
                json.loads(attrs_json) if attrs_json else {},
                payload_offset, payload_len,
            )
            self._datasets[name] = info
            self._payloads[name] = blob[payload_offset:payload_offset + payload_len]

    def flush(self) -> None:
        """Rewrite the container with the current datasets."""
        body = bytearray()
        entries: list[bytes] = []
        base = 12  # magic + toc_offset
        for name, info in self._datasets.items():
            payload = self._payloads[name]
            offset = base + len(body)
            body += payload
            entry = bytearray()
            entry += _pack_str(name)
            entry.append(int(info.dtype))
            entry.append(len(info.dims))
            entry += struct.pack(f"<{len(info.dims)}Q", *info.dims)
            entry += _pack_str(info.filter_id)
            entry += _pack_str(json.dumps(info.filter_options)
                               if info.filter_options else "")
            entry += _pack_str(json.dumps(info.attrs) if info.attrs else "")
            entry += struct.pack("<QQ", offset, len(payload))
            entries.append(bytes(entry))
        toc_offset = base + len(body)
        toc = bytearray(varint_encode(len(entries)))
        toc += _pack_str(json.dumps(self.attrs) if self.attrs else "")
        for e in entries:
            toc += e
        with open(self.path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", toc_offset))
            fh.write(body)
            fh.write(toc)

    def close(self) -> None:
        if self.mode in ("w", "a"):
            self.flush()

    def __enter__(self) -> "Hdf5MiniFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dataset-level -----------------------------------------------------
    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    def info(self, name: str) -> DatasetInfo:
        try:
            return self._datasets[name]
        except KeyError:
            raise IOError_(
                f"no dataset {name!r} in {self.path}; "
                f"have {self.dataset_names()}"
            ) from None

    def create_dataset(self, name: str, array: np.ndarray,
                       filter: str = "", filter_options: dict | None = None,
                       attrs: dict | None = None) -> None:
        """Store ``array`` under ``name``, optionally through a filter.

        ``filter`` is any registered compressor plugin id — the whole
        plugin ecosystem is available as an "HDF5 filter" for free.
        """
        if self.mode == "r":
            raise IOError_("file opened read-only")
        arr = np.ascontiguousarray(array)
        dtype = dtype_from_numpy(arr.dtype)
        if filter:
            compressor = compressor_registry.create(filter)
            if filter_options:
                rc = compressor.set_options(filter_options)
                if rc != 0:
                    raise IOError_(
                        f"bad filter options: {compressor.error_msg()}"
                    )
            compressed = compressor.compress(PressioData.from_numpy(arr))
            payload = compressed.to_bytes()
        else:
            payload = arr.tobytes()
        self._datasets[name] = DatasetInfo(
            name, dtype, arr.shape, filter, dict(filter_options or {}),
            dict(attrs or {}), 0, len(payload),
        )
        self._payloads[name] = payload

    def read_dataset(self, name: str) -> np.ndarray:
        """Load ``name``, undoing its filter when present."""
        info = self.info(name)
        payload = self._payloads[name]
        np_dtype = dtype_to_numpy(info.dtype)
        if info.filter_id:
            compressor = compressor_registry.create(info.filter_id)
            if info.filter_options:
                compressor.set_options(info.filter_options)
            template = PressioData.empty(info.dtype, info.dims)
            out = compressor.decompress(PressioData.from_bytes(payload),
                                        template)
            return np.asarray(out.to_numpy()).astype(np_dtype, copy=False)
        arr = np.frombuffer(payload, dtype=np_dtype)
        return arr.reshape(info.dims)


@io_plugin("hdf5mini")
class Hdf5MiniIO(_PathIO):
    """IO plugin reading/writing one dataset of an hdf5mini container.

    Options: ``io:path``, ``hdf5:dataset`` (name within the container),
    ``hdf5:filter`` and ``hdf5:filter_config_json`` for write-side
    compression.
    """

    fields = _PathIO.fields + (
        Field("hdf5:dataset", "_dataset", OptionType.STRING),
        Field("hdf5:filter", "_filter", OptionType.STRING),
        Field("hdf5:filter_config_json", "_filter_config", OptionType.STRING),
    )

    def __init__(self) -> None:
        super().__init__()
        self._dataset = "data"
        self._filter = ""
        self._filter_config = "{}"

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        json.loads(self._filter_config)

    def read(self, template: PressioData | None = None) -> PressioData:
        f = Hdf5MiniFile(self._require_path(), "r")
        arr = f.read_dataset(self._dataset)
        if template is not None and template.num_dimensions:
            if tuple(arr.shape) != template.dims:
                raise IOError_(
                    f"dataset {self._dataset!r} has shape {arr.shape}, "
                    f"template expects {template.dims}"
                )
        return PressioData.from_numpy(arr, copy=False)

    def write(self, data: PressioData) -> None:
        path = self._require_path()
        mode = "a" if os.path.exists(path) else "w"
        with Hdf5MiniFile(path, mode) as f:
            f.create_dataset(
                self._dataset, np.asarray(data.to_numpy()),
                filter=self._filter,
                filter_options=json.loads(self._filter_config) or None,
            )
