"""Fault and error injection meta-compressors.

* ``fault_injector`` — flips bits in the *compressed* stream between
  compression and decompression, for fuzz-style robustness testing of
  decompressors (the paper's Fault Injector plugin);
* ``error_injector`` — adds random noise to the *input* values before
  compression, for studying how compressors respond to perturbed data
  (the Random Error Injector plugin).
"""

from __future__ import annotations

import numpy as np

from ..core.data import PressioData
from ..core.configurable import Field
from ..core.options import OptionType
from ..core.registry import compressor_plugin
from ..trace import runtime as _trace
from .base import MetaCompressor

__all__ = ["FaultInjectorCompressor", "ErrorInjectorCompressor"]


@compressor_plugin("fault_injector")
class FaultInjectorCompressor(MetaCompressor):
    """Flips ``fault_injector:num_faults`` random bits in the stream.

    Faults are injected at *decompression* time (the stored stream stays
    pristine) so repeated trials with different seeds exercise different
    corruption, exactly how the fuzzer uses it.
    """

    fields = (
        Field("num_faults", "_num_faults", OptionType.INT64, low=0),
        Field("seed", "_seed", OptionType.INT64),
        Field("skip_header_bytes", "_skip_header_bytes", OptionType.INT64,
              low=0),
    )

    def __init__(self) -> None:
        super().__init__()
        self._num_faults = 1
        self._seed = 0
        self._skip_header_bytes = 0

    def _compress(self, input: PressioData) -> PressioData:
        return self._inner.compress(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        stream = bytearray(input.to_bytes())
        usable = len(stream) - self._skip_header_bytes
        if self._num_faults > 0 and usable > 0:
            with _trace.stage("fault_injector:inject",
                              num_faults=self._num_faults,
                              seed=self._seed):
                rng = np.random.default_rng(self._seed)
                positions = rng.integers(self._skip_header_bytes, len(stream),
                                         size=self._num_faults)
                bits = rng.integers(0, 8, size=self._num_faults)
                for pos, bit in zip(positions, bits):
                    stream[pos] ^= 1 << int(bit)
            if _trace.ACTIVE is not None:
                _trace.add_counter("fault_injector:bits_flipped",
                                   self._num_faults)
        return self._inner.decompress(PressioData.from_bytes(bytes(stream)),
                                      output)


@compressor_plugin("error_injector")
class ErrorInjectorCompressor(MetaCompressor):
    """Adds noise to each input element before compression.

    ``error_injector:distribution`` is ``normal`` (sigma =
    ``error_injector:scale``) or ``uniform`` (range ±scale).
    """

    fields = (
        Field("distribution", "_distribution", OptionType.STRING,
              choices=("normal", "uniform")),
        Field("scale", "_scale", OptionType.DOUBLE, low=0),
        Field("seed", "_seed", OptionType.INT64),
    )

    def __init__(self) -> None:
        super().__init__()
        self._distribution = "normal"
        self._scale = 0.0
        self._seed = 0

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy(), dtype=np.float64)
        if self._scale > 0:
            with _trace.stage("error_injector:perturb",
                              distribution=self._distribution,
                              scale=self._scale):
                rng = np.random.default_rng(self._seed)
                if self._distribution == "normal":
                    noise = rng.normal(0.0, self._scale, size=arr.shape)
                else:
                    noise = rng.uniform(-self._scale, self._scale,
                                        size=arr.shape)
                arr = arr + noise
            if _trace.ACTIVE is not None:
                _trace.add_counter("error_injector:perturbed_elements",
                                   arr.size)
        from ..core.dtype import dtype_to_numpy

        noisy = arr.astype(dtype_to_numpy(input.dtype))
        return self._inner.compress(PressioData.from_numpy(noisy, copy=False))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)
