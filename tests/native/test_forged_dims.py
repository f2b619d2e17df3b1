"""A stream whose header declares dims its payload cannot hold fails
typed, before the decoder sizes any buffer from those dims.

Each native passes the element count its dims imply to
``decode_residuals``, which compares it with the residual stream's own
header before acquiring a buffer or inflating a byte.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import CorruptStreamError
from repro.native import fpzip, mgard, sz, tthresh, zfp
from repro.native.sz import PW_REL, sz_params

#: the first dim sits right after the 9-byte fixed header part
_FIRST_DIM = slice(9, 17)


def _data():
    return np.random.default_rng(0).standard_normal((8, 8, 8))


STREAMS = {
    "sz": lambda d: sz.compress(d, sz_params(absErrBound=1e-3)),
    "sz-regression": lambda d: sz.compress(
        d, sz_params(absErrBound=1e-3, predictionMode="regression")),
    "sz-pw_rel": lambda d: sz.compress(
        d, sz_params(errorBoundMode=PW_REL, pw_relBoundRatio=1e-3)),
    "zfp": lambda d: zfp.compress(d, zfp.MODE_ACCURACY, 1e-3),
    "zfp-reversible": lambda d: zfp.compress(d, zfp.MODE_REVERSIBLE, 0),
    "mgard": lambda d: mgard.compress(d, 1e-3),
    # the open-loop format the decoder still reads: same layout, the
    # magic selects the level bounds
    "mgard-mgd1": lambda d: b"MGD1" + mgard.compress(d, 1e-3)[4:],
    "fpzip": fpzip.compress,
    "tthresh": lambda d: tthresh.compress(d, 1e-3),
}

DECOMPRESS = {"sz": sz.decompress, "zfp": zfp.decompress,
              "mgard": mgard.decompress, "fpzip": fpzip.decompress,
              "tthresh": tthresh.decompress}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_forged_first_dim_fails_typed_with_a_small_peak(name):
    decompress = DECOMPRESS[name.split("-")[0]]
    stream = bytearray(STREAMS[name](_data()))
    assert decompress(bytes(stream)).shape == (8, 8, 8)
    stream[_FIRST_DIM] = (2 ** 34).to_bytes(8, "little")
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            decompress(bytes(stream))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
