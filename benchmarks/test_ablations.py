"""Ablations of the design choices DESIGN.md calls out.

* SZ pipeline stages: Lorenzo prediction on/off, entropy coder
  fast/huffman, lossless backend choice — quantifying what each stage
  buys;
* parallel meta-compressors: chunking thread scaling, and the
  automatic serialization for thread-unsafe leaves;
* option-system cost: introspection round trips per second (the "cheap
  to introspect" premise of the Table I criteria);
* the residual codec's per-plane deflate strategy gate against
  always-Huffman-only, always-``Z_RLE`` and per-plane best-of
  (``entropy_gate_ablation.py`` runs the same arms at paper scale).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Pressio, PressioData
from repro.native import sz as native_sz
from repro.native.sz import sz_params

import entropy_gate_ablation as ablation
from conftest import emit


def test_sz_pipeline_ablation(benchmark, bench_datasets):
    """Each pipeline stage must pay for itself on smooth data."""
    arr = bench_datasets["cloud"]
    bound = 1e-4 * float(arr.max() - arr.min())

    def run() -> dict[str, int]:
        sizes = {}
        variants = {
            "full (lorenzo+fast+zlib)": sz_params(absErrBound=bound),
            "no prediction": sz_params(absErrBound=bound,
                                       predictionMode="none"),
            "regression predictor": sz_params(absErrBound=bound,
                                              predictionMode="regression"),
            "adaptive predictor": sz_params(absErrBound=bound,
                                            predictionMode="adaptive"),
            "huffman entropy": sz_params(absErrBound=bound,
                                         entropyCoder="huffman"),
            "backend bz2": sz_params(absErrBound=bound,
                                     losslessCompressor="bz2"),
            "backend lzma": sz_params(absErrBound=bound,
                                      losslessCompressor="lzma"),
            "backend none": sz_params(absErrBound=bound,
                                      losslessCompressor="none"),
        }
        for name, params in variants.items():
            sizes[name] = len(native_sz.compress(arr.copy(), params))
        return sizes

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    n = arr.nbytes
    lines = [f"{name:<28}{size:>10} bytes  CR {n / size:>7.2f}"
             for name, size in sizes.items()]
    emit("Ablation: SZ pipeline stages (CLOUD analog)", "\n".join(lines))

    # Lorenzo prediction must help on smooth data
    assert sizes["full (lorenzo+fast+zlib)"] < sizes["no prediction"]
    # disabling the lossless backend must hurt
    assert sizes["full (lorenzo+fast+zlib)"] < sizes["backend none"]


def test_chunking_thread_scaling(benchmark, bench_datasets):
    """Thread scaling of the chunking meta-compressor with a re-entrant
    leaf, plus the safety fallback with a thread-unsafe leaf."""
    library = Pressio()
    arr = np.concatenate([bench_datasets["nyx"].reshape(-1)] * 2)
    data = PressioData.from_numpy(arr)
    bound = 1e-4 * float(arr.max() - arr.min())

    def timed_compress(nthreads: int, inner: str) -> float:
        chunker = library.get_compressor("chunking")
        chunker.set_options({
            "chunking:compressor": inner,
            "chunking:chunk_size": 32_768,
            "chunking:nthreads": nthreads,
            "pressio:abs" if inner == "sz" else "zfp:accuracy": bound,
        })
        chunker.compress(data)  # warm
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            chunker.compress(data)
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    def run() -> dict:
        return {
            "zfp_t1_ms": timed_compress(1, "zfp"),
            "zfp_t4_ms": timed_compress(4, "zfp"),
            "sz_t4_ms": timed_compress(4, "sz"),  # serialized internally
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = result["zfp_t1_ms"] / result["zfp_t4_ms"]
    emit("Ablation: chunking parallelism",
         f"zfp leaf, 1 thread:  {result['zfp_t1_ms']:7.1f} ms\n"
         f"zfp leaf, 4 threads: {result['zfp_t4_ms']:7.1f} ms "
         f"(speedup {speedup:.2f}x)\n"
         f"sz leaf, 4 threads:  {result['sz_t4_ms']:7.1f} ms "
         f"(serialized automatically: sz advertises thread_safe=single)")
    # with the GIL and numpy-released sections, demand only "not slower"
    assert result["zfp_t4_ms"] <= result["zfp_t1_ms"] * 1.35


def test_zfp_transform_ablation(benchmark, bench_datasets):
    """The decorrelating block transform must pay for itself on data
    with in-block structure."""
    from repro.native import zfp as native_zfp

    wavy = (np.sin(np.linspace(0, 900, 110_592)) * 100).reshape(48, 48, 48)
    cloud = bench_datasets["cloud"]

    def run() -> dict:
        out = {}
        for name, arr in (("wavy", wavy), ("cloud", cloud)):
            bound = 1e-4 * float(arr.max() - arr.min())
            on = len(native_zfp.compress(arr, native_zfp.MODE_ACCURACY,
                                         bound))
            off = len(native_zfp.compress(arr, native_zfp.MODE_ACCURACY,
                                          bound, transform=False))
            out[name] = (on, off)
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{name:<8} transform on: {on:>8}  off: {off:>8}  "
             f"({off / on:.2f}x larger without)"
             for name, (on, off) in result.items()]
    emit("Ablation: zfp decorrelating transform", "\n".join(lines))
    # high-frequency data must benefit from decorrelation
    on, off = result["wavy"]
    assert on < off


def test_streaming_pipelined_throughput(benchmark):
    """Future-work ablation: pipelined streaming (worker pool) vs serial
    frame-by-frame compression."""
    from repro.core import DType
    from repro.streaming import StreamingCompressor

    library = Pressio()
    x = np.linspace(0, 400, 2_000_000)
    signal = np.sin(x) + 0.05 * np.sin(17 * x)

    def run_mode(pipelined: bool) -> float:
        zfp = library.get_compressor("zfp")
        zfp.set_options({"zfp:accuracy": 1e-4})
        enc = StreamingCompressor(zfp, DType.DOUBLE, frame_elements=65536,
                                  pipelined=pipelined, max_workers=4)
        t0 = time.perf_counter()
        total = len(enc.write(signal))
        total += len(enc.finish())
        elapsed = time.perf_counter() - t0
        assert total > 0
        return (signal.nbytes / 2**20) / elapsed

    def run() -> dict:
        return {"serial_MBps": run_mode(False),
                "pipelined_MBps": run_mode(True)}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: streaming compression throughput",
         f"serial frames:    {result['serial_MBps']:7.1f} MiB/s\n"
         f"pipelined frames: {result['pipelined_MBps']:7.1f} MiB/s "
         f"(4 workers)")
    # pipelining must not be slower than ~70% of serial even under GIL
    assert result["pipelined_MBps"] >= result["serial_MBps"] * 0.7


def test_option_introspection_cost(benchmark):
    """get_options/set_options round trips must stay cheap — the paper's
    premise that introspection is usable in inner configuration loops."""
    library = Pressio()
    compressor = library.get_compressor("sz")

    def roundtrip_options() -> int:
        opts = compressor.get_options()
        assert compressor.set_options(opts) == 0
        return len(opts)

    n_options = benchmark(roundtrip_options)
    assert n_options >= 20  # the 27-field params surface is exposed


def test_sparse_meta_ablation(benchmark):
    """When does the sparse meta-compressor pay off?  Scattered sparse
    values (dense prediction fails) vs clustered sparsity (dense
    prediction eats zero runs nearly free)."""
    from repro.datasets import hurricane_cloud

    rng = np.random.default_rng(11)
    scattered = np.zeros(200_000)
    hits = rng.choice(scattered.size, size=scattered.size // 25,
                      replace=False)
    scattered[hits] = np.exp(rng.normal(0.0, 1.0, size=hits.size))
    clustered = hurricane_cloud((16, 64, 64))  # contiguous cloud cores

    def measure(arr: np.ndarray) -> tuple[int, int]:
        library = Pressio()
        bound = 1e-5 * float(arr.max() - arr.min())
        dense = library.get_compressor("sz")
        dense.set_options({"pressio:abs": bound})
        sparse = library.get_compressor("sparse")
        sparse.set_options({"sparse:compressor": "sz",
                            "pressio:abs": bound})
        data = PressioData.from_numpy(arr)
        return (dense.compress(data).size_in_bytes,
                sparse.compress(data).size_in_bytes)

    def run() -> dict:
        return {"scattered": measure(scattered),
                "clustered": measure(clustered)}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    s_dense, s_sparse = result["scattered"]
    c_dense, c_sparse = result["clustered"]
    emit("Ablation: sparse meta-compressor",
         f"scattered 4% occupancy: dense sz {s_dense}, sparse+sz "
         f"{s_sparse} ({s_dense / s_sparse:.2f}x better)\n"
         f"clustered cloud field:  dense sz {c_dense}, sparse+sz "
         f"{c_sparse} ({c_dense / c_sparse:.2f}x)\n"
         f"-> sparse wins on scattered data; clustered zeros are cheap "
         f"for a dense predictor")
    assert s_sparse < s_dense  # the feature pays off where it should


def test_tthresh_vs_pointwise_family(benchmark, bench_datasets):
    """tthresh (relative-L2 HOSVD) vs the pointwise family at matched
    observed L2 error — the SVD family should win on low-rank-ish data
    and lose on rough data."""
    import numpy as _np

    u = np.linspace(0, 1, 96)[:, None]
    v = np.sin(np.linspace(0, 9, 96))[None, :]
    lowrank = u @ v + 0.3 * (u ** 2) @ np.cos(np.linspace(0, 5, 96))[None, :]
    rough = bench_datasets["hacc"][:9216].reshape(96, 96)

    def measure(arr: np.ndarray) -> dict:
        library = Pressio()
        tt = library.get_compressor("tthresh")
        tt.set_options({"tthresh:target_value": 1e-4})
        data = PressioData.from_numpy(arr)
        tt_size = tt.compress(data).size_in_bytes
        # matched observed rel-L2 for sz: abs bound ~ tol * rms * sqrt(3)
        rms = float(np.sqrt(np.mean(arr * arr)))
        sz = library.get_compressor("sz")
        sz.set_options({"pressio:abs": 1e-4 * rms * np.sqrt(3.0)})
        sz_size = sz.compress(data).size_in_bytes
        return {"tthresh": tt_size, "sz": sz_size}

    def run() -> dict:
        return {"lowrank": measure(lowrank), "rough": measure(rough)}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: tthresh (HOSVD) vs sz at matched rel-L2 1e-4",
         f"low-rank field: tthresh {result['lowrank']['tthresh']} vs "
         f"sz {result['lowrank']['sz']}\n"
         f"rough field:    tthresh {result['rough']['tthresh']} vs "
         f"sz {result['rough']['sz']}")
    # the SVD family must dominate on low-rank data
    assert result["lowrank"]["tthresh"] < result["lowrank"]["sz"]


def test_huffman_vs_fast_entropy_tradeoff(benchmark, bench_datasets):
    """The entropy-stage ablation: canonical Huffman buys ratio on some
    data at a large (documented) speed cost in pure Python."""
    arr = bench_datasets["scale_letkf"]
    bound = 1e-3 * float(arr.max() - arr.min())

    def run() -> dict:
        out = {}
        for coder in ("fast", "huffman"):
            params = sz_params(absErrBound=bound, entropyCoder=coder)
            t0 = time.perf_counter()
            stream = native_sz.compress(arr.copy(), params)
            elapsed = time.perf_counter() - t0
            native_sz.decompress(stream)  # must round trip
            out[coder] = {"bytes": len(stream), "ms": elapsed * 1e3}
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: entropy coder (SZ, ScaleLetKF analog)",
         "\n".join(f"{coder:<8} {v['bytes']:>9} bytes in {v['ms']:8.1f} ms"
                   for coder, v in result.items()))
    # both must produce valid streams; fast must be faster
    assert result["fast"]["ms"] < result["huffman"]["ms"]


def test_entropy_gate_ablation(benchmark, library, bench_datasets):
    """The per-plane deflate strategy gate against its three
    alternatives: always Huffman-only (the encoder before the gate),
    always ``Z_RLE``, and the smaller of the two on every plane."""
    def run() -> dict:
        sizes = {}
        for name, arr in bench_datasets.items():
            data = PressioData.from_numpy(arr)
            value_range = float(arr.max() - arr.min())
            for codec in ("sz", "zfp", "mgard"):
                for rel in (1e-4, 1e-2):
                    comp = library.get_compressor(codec)
                    assert comp.set_options(
                        {"pressio:abs": rel * value_range}) == 0
                    row = {}
                    for arm in ablation.ARMS:
                        with ablation.arm(arm):
                            row[arm] = comp.compress(data).size_in_bytes
                    sizes[f"{codec}:{name}:{rel:g}"] = row
        return sizes

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    arms = list(ablation.ARMS)
    total = {a: sum(row[a] for row in sizes.values()) for a in arms}
    lines = [f"{'config':<24}" + "".join(f"{a:>10}" for a in arms)]
    lines += [f"{label:<24}" + "".join(f"{row[a]:>10}" for a in arms)
              for label, row in sizes.items()]
    lines.append(f"{'total':<24}" + "".join(f"{total[a]:>10}" for a in arms))
    emit("Ablation: deflate strategy per byte plane (stream bytes)",
         "\n".join(lines))
    for label, row in sizes.items():
        assert row["gate"] <= row["huffman"], label
    assert total["gate"] <= 1.005 * total["best"]
