"""Input files for the ``ingest_qpsk`` workload, written by the benchmark's
own numpy code.

The impairment model (IQ imbalance, cubic PA, random channel phase, CFO
ramp, AWGN) and the binary burst format are implemented here rather than
taken from ``rfident.signal_model``. A change to the simulator or to its
random streams therefore cannot change this workload's inputs; the digest
of the written bytes shows that they stayed the same.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# Fleet spread and burst conditions. At 20 dB the per-burst IQ estimates are
# precise enough for the IQ features to discriminate (DR > 1), the beta = 1
# regime the workload checks.
EPS_RANGE = (0.01, 0.05)
PHI_RANGE_DEG = (0.5, 5.0)
ALPHA3_MAG_RANGE = (0.02, 0.05)
CFO_JITTER = 0.01  # rad/symbol, uniform per burst
SNR_DB = 20.0


@dataclass(frozen=True)
class IngestSpec:
    n_sats: int = 27
    n_bursts: int = 200  # per satellite
    n: int = 76  # known symbols per burst
    snr_db: float = SNR_DB


def synthesize(spec: IngestSpec, seed: int):
    """Return (satellite ids, samples, symbols); arrays are (n_sats * n_bursts, n),
    satellite-major."""
    rng = np.random.default_rng([seed, 0x1A6E57])
    eps = rng.uniform(*EPS_RANGE, spec.n_sats)
    phi = np.radians(rng.uniform(*PHI_RANGE_DEG, spec.n_sats))
    alpha3 = rng.uniform(*ALPHA3_MAG_RANGE, spec.n_sats) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, spec.n_sats))
    rows = spec.n_sats * spec.n_bursts

    def per_sat(v):
        return np.repeat(v, spec.n_bursts)[:, None]

    x = QPSK_POINTS[rng.integers(0, 4, size=(rows, spec.n))]
    g = (1.0 + per_sat(eps)) * np.exp(1j * per_sat(phi))
    x_iq = 0.5 * (1.0 + g) * x + 0.5 * (1.0 - np.conj(g)) * np.conj(x)
    y = x_iq * (1.0 + per_sat(alpha3) * np.abs(x_iq) ** 2)
    theta = rng.uniform(0.0, 2.0 * np.pi, (rows, 1))
    cfo = rng.uniform(-CFO_JITTER, CFO_JITTER, (rows, 1))
    r = y * np.exp(1j * (theta + cfo * np.arange(spec.n)))
    sigma = np.sqrt(10.0 ** (-spec.snr_db / 10.0) / 2.0)
    r = r + sigma * (rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape))
    width = max(2, len(str(spec.n_sats - 1)))
    ids = [f"SAT{i:0{width}d}" for i in range(spec.n_sats) for _ in range(spec.n_bursts)]
    return ids, r, x


def encode_burst(satellite_id: str, samples: np.ndarray, symbols: np.ndarray,
                 snr_db: float) -> bytes:
    """Binary burst format: little-endian uint32 header length, UTF-8 JSON
    header, then N float64 (re, im) pairs of samples and of known symbols."""
    hdr = {"satellite_id": satellite_id, "n": int(samples.size), "snr_db": snr_db,
           "modulation": "qpsk", "truth": None, "has_known_symbols": True}
    raw = json.dumps(hdr).encode("utf-8")
    body = np.concatenate([samples, symbols]).astype("<c16").tobytes()
    return struct.pack("<I", len(raw)) + raw + body


def write_ingest_files(directory: Path, spec: IngestSpec, seed: int) -> tuple[list, str]:
    """Write one file per burst; return (paths in reading order, sha256 of all bytes)."""
    directory.mkdir(parents=True, exist_ok=True)
    ids, samples, symbols = synthesize(spec, seed)
    digest = hashlib.sha256()
    paths = []
    counters: dict = {}
    for sat, s, x in zip(ids, samples, symbols):
        counters[sat] = counters.get(sat, -1) + 1
        blob = encode_burst(sat, s, x, spec.snr_db)
        digest.update(blob)
        path = directory / f"{sat}_{counters[sat]:04d}.bin"
        path.write_bytes(blob)
        paths.append(path)
    return paths, digest.hexdigest()
