"""Pre/post-processing meta-compressors.

From the paper's plugin list (Section IV-D): ``transpose``, ``resize``,
``delta_encoding``, ``linear_quantizer``, and ``sample``.  Each wraps an
inner compressor with a reversible (or deliberately reducing, for
``sample``) data transformation.
"""

from __future__ import annotations

import numpy as np

from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.configurable import Field
from ..core.options import OptionType
from ..core.registry import compressor_plugin
from ..core.status import CorruptStreamError, InvalidDimensionsError, InvalidOptionError
from ..encoders.headers import read_header, write_header
from ..trace import runtime as _trace
from .base import MetaCompressor

__all__ = [
    "TransposeCompressor",
    "ResizeCompressor",
    "DeltaEncodingCompressor",
    "LinearQuantizerCompressor",
    "SampleCompressor",
]

_MAGIC = b"MTA1"


def _wrap(inner_stream: bytes, dtype: DType, dims: tuple[int, ...],
          doubles: tuple[float, ...] = (), ints: tuple[int, ...] = ()) -> PressioData:
    header = write_header(_MAGIC, dtype, dims, doubles, ints)
    return PressioData.from_bytes(header + inner_stream)


def _unwrap(data: PressioData, output: PressioData | None = None):
    """The header fields and the inner stream of ``data``.

    When ``output`` has dims, the stream's must equal them: every plugin
    here but ``sample`` decodes to the dims it was given.
    """
    stream = data.to_bytes()
    expected = None
    if output is not None and output.num_dimensions:
        expected = output.dims
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC, expected)
    return dtype, dims, doubles, ints, stream[pos:]


@compressor_plugin("transpose")
class TransposeCompressor(MetaCompressor):
    """Transposes axes before compression and back after decompression.

    ``transpose:axis_order`` is a string list of axis indices (empty =
    full reversal).  This is the tool the dimension-ordering experiment
    (Section V) uses to *deliberately* feed a compressor wrong-order
    data through the uniform interface.
    """

    fields = (Field("axis_order", "_axis_order", OptionType.STRING_LIST),)

    def __init__(self) -> None:
        super().__init__()
        self._axis_order: list[str] = []

    def _order_for(self, ndim: int) -> tuple[int, ...]:
        if not self._axis_order:
            return tuple(reversed(range(ndim)))
        order = tuple(int(a) for a in self._axis_order)
        if sorted(order) != list(range(ndim)):
            raise InvalidOptionError(
                f"{self._qualify('axis_order')} {order} is not a "
                f"permutation of 0..{ndim - 1}"
            )
        return order

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy())
        order = self._order_for(arr.ndim)
        with _trace.stage("transpose:forward", order=list(order)):
            transposed = np.ascontiguousarray(arr.transpose(order))
        inner_out = self._inner.compress(PressioData.from_numpy(transposed,
                                                                copy=False))
        return _wrap(inner_out.to_bytes(), input.dtype, input.dims,
                     ints=tuple(order))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        dtype, dims, _d, ints, inner_stream = _unwrap(input, output)
        order = tuple(ints)
        t_dims = tuple(dims[a] for a in order)
        inner_template = PressioData.empty(dtype, t_dims)
        out = self._inner.decompress(PressioData.from_bytes(inner_stream),
                                     inner_template)
        arr = np.asarray(out.to_numpy()).reshape(t_dims)
        with _trace.stage("transpose:inverse", order=list(order)):
            inverse = np.argsort(order)
            restored = np.ascontiguousarray(arr.transpose(inverse))
        return PressioData.from_numpy(restored, copy=False)


@compressor_plugin("resize")
class ResizeCompressor(MetaCompressor):
    """Presents the data to the inner compressor with different dims.

    ``resize:new_dims`` (string list) must preserve the element count —
    e.g. squeeze an ``A x B x 1`` dataset to ``A x B`` so block-based
    compressors avoid padding (the ZFP example from the glossary).
    """

    fields = (Field("new_dims", "_new_dims", OptionType.STRING_LIST),)

    def __init__(self) -> None:
        super().__init__()
        self._new_dims: list[str] = []

    def _compress(self, input: PressioData) -> PressioData:
        if not self._new_dims:
            raise InvalidOptionError(
                f"{self._qualify('new_dims')} is not set")
        new_dims = tuple(int(d) for d in self._new_dims)
        reshaped = input.reshape(new_dims)  # validates element count
        inner_out = self._inner.compress(reshaped)
        return _wrap(inner_out.to_bytes(), input.dtype, input.dims,
                     ints=new_dims)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        dtype, dims, _d, ints, inner_stream = _unwrap(input, output)
        inner_template = PressioData.empty(dtype, tuple(ints))
        out = self._inner.decompress(PressioData.from_bytes(inner_stream),
                                     inner_template)
        arr = np.asarray(out.to_numpy()).reshape(dims)
        return PressioData.from_numpy(arr, copy=True)


@compressor_plugin("delta_encoding")
class DeltaEncodingCompressor(MetaCompressor):
    """Applies adjacent-difference preprocessing before compression.

    Exact for integer inputs (wrap-around arithmetic); floats are
    delta-coded in float64 and restored by cumulative sum, which is
    bit-exact only when the inner compressor is lossless and the values
    round-trip the cumsum — integers are therefore the canonical use.
    """

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy()).reshape(-1)
        if _trace.ACTIVE is not None:
            _trace.annotate(stage="delta_encoding:forward")
        if arr.dtype.kind in "iu":
            work = arr.astype(np.int64)
            delta = np.empty_like(work)
            delta[0:1] = work[0:1]
            delta[1:] = work[1:] - work[:-1]
            payload = PressioData.from_numpy(delta.reshape(input.dims),
                                             copy=False)
            kind = 0
        else:
            work = arr.astype(np.float64)
            delta = np.empty_like(work)
            delta[0:1] = work[0:1]
            delta[1:] = np.diff(work)
            payload = PressioData.from_numpy(delta.reshape(input.dims),
                                             copy=False)
            kind = 1
        inner_out = self._inner.compress(payload)
        return _wrap(inner_out.to_bytes(), input.dtype, input.dims,
                     ints=(kind,))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        dtype, dims, _d, ints, inner_stream = _unwrap(input, output)
        kind = ints[0]
        work_dtype = DType.INT64 if kind == 0 else DType.DOUBLE
        inner_template = PressioData.empty(work_dtype, dims)
        out = self._inner.decompress(PressioData.from_bytes(inner_stream),
                                     inner_template)
        delta = np.asarray(out.to_numpy()).reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            restored = np.cumsum(delta)
            np_dtype = dtype_to_numpy(dtype)
            if np_dtype.kind in "iu":
                restored = np.rint(restored)
            restored = restored.astype(np_dtype)
        return PressioData.from_numpy(restored.reshape(dims), copy=False)


@compressor_plugin("linear_quantizer")
class LinearQuantizerCompressor(MetaCompressor):
    """Quantizes to integers with a fixed step before lossless coding.

    ``linear_quantizer:step`` is the reconstruction granularity; error
    is bounded by ``step / 2``.  The quantized int64 field goes to the
    inner compressor (default ``zlib``).
    """

    default_inner = "zlib"

    fields = (Field("step", "_step", OptionType.DOUBLE, positive=True),)

    def __init__(self) -> None:
        super().__init__()
        self._step = 1e-3

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy(), dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            # rint(nan).astype(int64) is undefined and would decode as
            # silent garbage; reject like the other quantizing plugins
            raise ValueError("cannot quantize non-finite values")
        with _trace.stage("linear_quantizer:quantize", step=self._step):
            codes = np.rint(arr / self._step).astype(np.int64)
        inner_out = self._inner.compress(
            PressioData.from_numpy(codes, copy=False)
        )
        return _wrap(inner_out.to_bytes(), input.dtype, input.dims,
                     doubles=(self._step,))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        dtype, dims, doubles, _i, inner_stream = _unwrap(input, output)
        step = doubles[0]
        inner_template = PressioData.empty(DType.INT64, dims)
        out = self._inner.decompress(PressioData.from_bytes(inner_stream),
                                     inner_template)
        codes = np.asarray(out.to_numpy(), dtype=np.float64)
        with _trace.stage("linear_quantizer:dequantize", step=step):
            restored = (codes * step).astype(dtype_to_numpy(dtype)).reshape(dims)
        return PressioData.from_numpy(restored, copy=False)


@compressor_plugin("sample")
class SampleCompressor(MetaCompressor):
    """Subsamples before compression (irreversibly reducing).

    ``sample:mode`` selects the technique from the paper's glossary
    ("uniform sampling with and without replacement"):

    * ``decimate`` (default) — keep every ``sample:rate``-th element
      along the leading axis (deterministic);
    * ``wor`` — uniform random sample *without* replacement of
      ``n/rate`` leading-axis slices (sorted, so spatial order is kept);
    * ``wr`` — uniform random sample *with* replacement.

    Decompression returns the sampled grid (dims are in the stream).
    """

    fields = (
        Field("rate", "_rate", OptionType.INT64, low=1),
        Field("mode", "_mode", OptionType.STRING,
              choices=("decimate", "wor", "wr")),
        Field("seed", "_seed", OptionType.INT64),
    )

    def __init__(self) -> None:
        super().__init__()
        self._rate = 2
        self._mode = "decimate"
        self._seed = 0

    def _select(self, n: int) -> np.ndarray:
        count = max(n // self._rate, 1)
        if self._mode == "decimate":
            return np.arange(0, n, self._rate)
        rng = np.random.default_rng(self._seed)
        replace = self._mode == "wr"
        return np.sort(rng.choice(n, size=count, replace=replace))

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy())
        if arr.ndim == 0 or arr.shape[0] < self._rate:
            raise InvalidDimensionsError(
                f"cannot sample every {self._rate} of leading dim "
                f"{arr.shape[:1]}"
            )
        with _trace.stage("sample:select", mode=self._mode,
                          rate=self._rate):
            sampled = np.ascontiguousarray(arr[self._select(arr.shape[0])])
        if _trace.ACTIVE is not None:
            _trace.annotate(sampled_dims=list(sampled.shape))
        inner_out = self._inner.compress(
            PressioData.from_numpy(sampled, copy=False)
        )
        return _wrap(inner_out.to_bytes(), input.dtype, sampled.shape)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        dtype, dims, _d, _i, inner_stream = _unwrap(input)
        inner_template = PressioData.empty(dtype, dims)
        return self._inner.decompress(PressioData.from_bytes(inner_stream),
                                      inner_template)
