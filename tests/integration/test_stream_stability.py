"""Stream-format stability: golden streams must stay decodable.

A production compression library cannot change its stream formats
silently — archives written yesterday must decompress tomorrow.  These
tests embed small golden compressed streams (generated by this
implementation and frozen) and assert they still decode to the expected
values.  Any format change that breaks them must bump the header
version instead.
"""

import base64
import zlib

import numpy as np
import pytest

from repro.native import fpzip as native_fpzip
from repro.native import mgard as native_mgard
from repro.native import sz as native_sz
from repro.native import zfp as native_zfp
from repro.native.sz import sz_params


def golden_input() -> np.ndarray:
    """The deterministic field every golden stream encodes."""
    x = np.linspace(0.0, 2.0 * np.pi, 8)
    return np.outer(np.sin(x), np.cos(x)).reshape(8, 8) + 2.0


class TestGoldenRoundtrip:
    """Self-consistency: freshly-written streams decode, and their
    headers carry the format version byte the loader checks."""

    def test_sz_header_version_byte(self):
        stream = native_sz.compress(golden_input().copy(),
                                    sz_params(absErrBound=1e-6))
        assert stream[:4] == b"SZ02"
        assert stream[4] == 1  # format version

    def test_zfp_header_version_byte(self):
        stream = native_zfp.compress(golden_input(),
                                     native_zfp.MODE_ACCURACY, 1e-6)
        assert stream[:4] == b"ZFP1"
        assert stream[4] == 1

    def test_mgard_header_version_byte(self):
        stream = native_mgard.compress(golden_input(), 1e-6)
        assert stream[:4] == b"MGD2"
        assert stream[4] == 1

    def test_fpzip_header_version_byte(self):
        stream = native_fpzip.compress(golden_input())
        assert stream[:4] == b"FPZ1"
        assert stream[4] == 1


class TestFrozenStreams:
    """Byte-frozen streams from the current format generation.

    The fixtures below were produced once with this code base; they are
    *data*, not derived at test time, so any unintentional format change
    fails here.  (Regenerate deliberately — and bump the header version —
    with tests/integration/regenerate_golden.py.)
    """

    def _load(self, blob: str) -> bytes:
        return zlib.decompress(base64.b64decode(blob))

    def test_frozen_sz_stream(self, golden_sz):
        out = native_sz.decompress(self._load(golden_sz))
        assert np.abs(out - golden_input()).max() <= 1e-6 * (1 + 1e-9)

    def test_frozen_zfp_stream(self, golden_zfp):
        out = native_zfp.decompress(self._load(golden_zfp))
        assert np.abs(out - golden_input()).max() <= 1e-6 * (1 + 1e-9)

    def test_frozen_mgard_stream(self, golden_mgard):
        out = native_mgard.decompress(self._load(golden_mgard))
        assert np.abs(out - golden_input()).max() <= 1e-6 * (1 + 1e-9)

    def test_frozen_fpzip_stream(self, golden_fpzip):
        out = native_fpzip.decompress(self._load(golden_fpzip))
        assert np.array_equal(out, golden_input())


@pytest.fixture(scope="module")
def _golden_blobs():
    """Load the frozen streams from the sidecar file."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "golden_streams.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_sz(_golden_blobs):
    return _golden_blobs["sz"]


@pytest.fixture(scope="module")
def golden_zfp(_golden_blobs):
    return _golden_blobs["zfp"]


@pytest.fixture(scope="module")
def golden_mgard(_golden_blobs):
    return _golden_blobs["mgard"]


@pytest.fixture(scope="module")
def golden_fpzip(_golden_blobs):
    return _golden_blobs["fpzip"]
