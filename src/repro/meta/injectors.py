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
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidOptionError
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

    def __init__(self) -> None:
        super().__init__()
        self._num_faults = 1
        self._seed = 0
        self._skip_header_bytes = 0

    def _meta_options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("fault_injector:num_faults", np.int64(self._num_faults))
        opts.set("fault_injector:seed", np.int64(self._seed))
        opts.set("fault_injector:skip_header_bytes",
                 np.int64(self._skip_header_bytes))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        n = int(self._take(options, "fault_injector:num_faults",
                           OptionType.INT64, self._num_faults))
        if n < 0:
            raise InvalidOptionError("fault_injector:num_faults must be >= 0")
        self._num_faults = n
        self._seed = int(self._take(options, "fault_injector:seed",
                                    OptionType.INT64, self._seed))
        skip = int(self._take(options, "fault_injector:skip_header_bytes",
                              OptionType.INT64, self._skip_header_bytes))
        if skip < 0:
            raise InvalidOptionError(
                "fault_injector:skip_header_bytes must be >= 0")
        self._skip_header_bytes = skip

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

    def __init__(self) -> None:
        super().__init__()
        self._distribution = "normal"
        self._scale = 0.0
        self._seed = 0

    def _meta_options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("error_injector:distribution", self._distribution)
        opts.set("error_injector:scale", float(self._scale))
        opts.set("error_injector:seed", np.int64(self._seed))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        dist = str(self._take(options, "error_injector:distribution",
                              OptionType.STRING, self._distribution))
        if dist not in ("normal", "uniform"):
            raise InvalidOptionError(
                "error_injector:distribution must be normal or uniform")
        self._distribution = dist
        scale = float(self._take(options, "error_injector:scale",
                                 OptionType.DOUBLE, self._scale))
        if scale < 0:
            raise InvalidOptionError("error_injector:scale must be >= 0")
        self._scale = scale
        self._seed = int(self._take(options, "error_injector:seed",
                                    OptionType.INT64, self._seed))

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
