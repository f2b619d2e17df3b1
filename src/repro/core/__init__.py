"""Core abstractions of the LibPressio reproduction.

This package contains the paper's primary contribution: the uniform,
typed, introspectable compression interface (Figure 1's six components).

* :class:`~repro.core.library.Pressio` — the library handle
* :class:`~repro.core.data.PressioData` — typed, dimensioned buffers
* :class:`~repro.core.options.PressioOptions` — typed configuration
* :class:`~repro.core.compressor.PressioCompressor` — compressor plugins
* :class:`~repro.core.metrics.PressioMetrics` — metrics plugins
* :class:`~repro.core.io.PressioIO` — IO plugins
"""

from .compressor import PressioCompressor
from .configurable import Configurable, Field, Stability, ThreadSafety
from .data import PressioData
from .domain import CallbackDomain, Domain, MallocDomain, MmapDomain, NonOwningDomain
from .dtype import DType, dtype_from_numpy, dtype_size, dtype_to_numpy
from .io import PressioIO
from .library import PRESSIO_VERSION, Pressio
from .metrics import PressioMetrics
from .options import CastLevel, Option, OptionType, PressioOptions
from .registry import (
    compressor_plugin,
    compressor_registry,
    io_plugin,
    io_registry,
    metric_plugin,
    metrics_registry,
    register_compressor,
    register_io,
    register_metric,
)
from .status import (
    BoundExceededError,
    CorruptStreamError,
    ErrorCode,
    InvalidDimensionsError,
    InvalidOptionError,
    InvalidTypeError,
    IOError_,
    MissingOptionError,
    PressioError,
    Status,
    UnsupportedPluginError,
)

__all__ = [
    "Pressio",
    "PRESSIO_VERSION",
    "PressioData",
    "PressioOptions",
    "Option",
    "OptionType",
    "CastLevel",
    "PressioCompressor",
    "PressioMetrics",
    "PressioIO",
    "Configurable",
    "Field",
    "ThreadSafety",
    "Stability",
    "DType",
    "dtype_to_numpy",
    "dtype_from_numpy",
    "dtype_size",
    "Domain",
    "MallocDomain",
    "NonOwningDomain",
    "MmapDomain",
    "CallbackDomain",
    "ErrorCode",
    "Status",
    "PressioError",
    "InvalidTypeError",
    "InvalidDimensionsError",
    "InvalidOptionError",
    "MissingOptionError",
    "UnsupportedPluginError",
    "IOError_",
    "CorruptStreamError",
    "BoundExceededError",
    "register_compressor",
    "register_metric",
    "register_io",
    "compressor_plugin",
    "metric_plugin",
    "io_plugin",
    "compressor_registry",
    "metrics_registry",
    "io_registry",
]
