"""Benchmark inputs: the fitted model cache, seeded corpora, feeds and the capture.

Everything here runs before any timing starts.  The workload seed only
chooses the simulated sessions; the engine under test sees nothing but the
resulting packet batches (or capture bytes).
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark (git-ignored): the model cache and captures.
WORK = BENCH_DIR / ".work"

#: The model is fitted on its own corpus; no workload seed can reproduce it
#: (see :func:`corpus_seed`), so the accuracy metrics are held out.
TRAIN_SEED = 13
TRAIN_SESSIONS_PER_TITLE = 8
MODEL_RANDOM_STATE = 3

#: Shape of every simulated session (13 catalog titles).  Capture sessions
#: are shorter so that a run replays the capture several times.
GAMEPLAY_S = 150.0
CAPTURE_GAMEPLAY_S = 60.0
RATE_SCALE = 0.05
#: Live feeds: 8 sessions per title = 104 concurrent sessions.
LIVE_SESSIONS_PER_TITLE = 8
#: Capture: 2 sessions per title = 26 sessions, their ends evenly spaced
#: over ``CAPTURE_STAGGER_S`` so flows open and close throughout the capture.
CAPTURE_SESSIONS_PER_TITLE = 2
CAPTURE_STAGGER_S = 60.0
#: The capture holds this many packets whatever the seed: every session is
#: cut at the same share of its packets (about its last 10 %), so memory and
#: work per pass do not follow how busy the seed's sessions happen to be.
CAPTURE_PACKETS = 210_000
CAPTURE_CLIENT_IP = "192.168.1.10"
CLIENT_PORT_BASE = 52000
#: Header-truncated like an operator's tap: Ethernet + IPv4 + UDP + RTP
#: headers (54 bytes) survive, the media payload does not.
SNAPLEN = 96

#: The ISP deployment's settings mix, from ``repro.simulation.isp``:
#: ``_RESOLUTION_MIX`` (HD .25, FHD .45, QHD .20, UHD .10) as a cycle of 20
#: sessions (HD 5, FHD 9, QHD 4, UHD 2, each tier spread evenly), and the
#: frame-rate draw of ``ISPDeploymentSimulator.generate_record``.
RESOLUTION_CYCLE = (
    "FHD", "HD", "QHD", "FHD", "UHD", "FHD", "HD", "FHD", "QHD", "HD",
    "FHD", "FHD", "QHD", "HD", "FHD", "UHD", "FHD", "QHD", "HD", "FHD",
)
FPS_DRAW = (30, 60, 60, 120)


def streaming_settings(index: int) -> Tuple[str, int]:
    """(resolution, fps) of the ``index``-th workload session.

    Every block of 20 consecutive sessions holds exactly the ISP mix's
    resolution shares and the fps draw's shares; the 80-session cycle holds
    every (resolution, fps) pair in proportion to the product of the two.
    """
    cycle = len(RESOLUTION_CYCLE)
    fps = FPS_DRAW[(index + index // cycle) % len(FPS_DRAW)]
    return RESOLUTION_CYCLE[index % cycle], fps


_TAGS = {"live": 1, "capture": 2, "stagger": 3}


def src_digest() -> str:
    """sha256 over every source file of the package under test."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def model_dir(digest: str) -> Path:
    """Cache directory of the model fitted by the code with this digest on
    the training corpus the fit constants above describe."""
    fit = (TRAIN_SEED, TRAIN_SESSIONS_PER_TITLE, MODEL_RANDOM_STATE, GAMEPLAY_S, RATE_SCALE)
    key = hashlib.sha256(f"{digest}\0{fit!r}".encode()).hexdigest()
    return WORK / f"model-{key[:20]}"


def fit_model(target: Path) -> None:
    """Fit the deployment pipeline on the training corpus and save it.

    Written to a temporary directory first and renamed into place, so a
    crashed fit never leaves a half-written cache behind.
    """
    from repro.core.pipeline import ContextClassificationPipeline
    from repro.runtime.persistence import save_pipeline
    from repro.simulation.lab_dataset import generate_lab_dataset

    training = generate_lab_dataset(
        sessions_per_title=TRAIN_SESSIONS_PER_TITLE,
        gameplay_duration_s=GAMEPLAY_S,
        rate_scale=RATE_SCALE,
        random_state=TRAIN_SEED,
    ).sessions
    pipeline = ContextClassificationPipeline(random_state=MODEL_RANDOM_STATE)
    pipeline.fit(list(training))
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    save_pipeline(pipeline, staging)
    try:
        os.replace(staging, target)
    except OSError:
        if not target.is_dir():
            raise
        shutil.rmtree(staging)  # a concurrent run cached the same model first


def corpus_seed(seed: int, purpose: str) -> int:
    """Simulator seed of one workload input, derived from the benchmark seed."""
    value = int(np.random.SeedSequence([seed, _TAGS[purpose]]).generate_state(1)[0])
    return value + 1 if value == TRAIN_SEED else value


def sessions(seed: int, purpose: str, per_title: int, gameplay_s: float = GAMEPLAY_S) -> List:
    """``per_title`` simulated sessions of every catalog title, each with
    ``gameplay_s`` of gameplay after its launch.

    The streaming settings follow :func:`streaming_settings` instead of
    being drawn per session, so every seed offers the same resolution and
    frame-rate mix (the ISP deployment's): a UHD-heavy draw would otherwise move the packet volume
    of the whole workload.  The seed still drives everything else the
    simulator draws (activity timelines, packet sizes and timing).
    """
    from repro.simulation.catalog import GAME_TITLES
    from repro.simulation.devices import Resolution, StreamingSettings
    from repro.simulation.session import SessionConfig, SessionGenerator

    generator = SessionGenerator(random_state=corpus_seed(seed, purpose))
    config = SessionConfig(gameplay_duration_s=gameplay_s, rate_scale=RATE_SCALE)
    corpus = []
    for title_index, title in enumerate(GAME_TITLES):
        for k in range(per_title):
            resolution, fps = streaming_settings(title_index * per_title + k)
            settings = StreamingSettings(resolution=Resolution[resolution], fps=fps)
            corpus.append(generator.generate(title, config, settings=settings))
    return corpus


def live_batches(corpus: Sequence) -> Tuple[list, dict]:
    """The corpus as 1 s feed batches (all sessions start at feed time 0)."""
    from repro.runtime.feed import SessionFeed

    feed = SessionFeed(corpus, batch_seconds=1.0, client_port_base=CLIENT_PORT_BASE)
    return list(feed), dict(feed.flow_contexts)


def capture_lengths(corpus: Sequence) -> np.ndarray:
    """Packets kept of each capture session: the same share of every
    session, ``CAPTURE_PACKETS`` in all (all of them if the sessions hold
    fewer)."""
    counts = np.array([len(session.packets.columns()) for session in corpus])
    if counts.sum() <= CAPTURE_PACKETS:
        return counts
    keep = np.floor(counts * (CAPTURE_PACKETS / counts.sum())).astype(np.int64)
    keep[: CAPTURE_PACKETS - keep.sum()] += 1
    return keep


def stagger_offsets(seed: int, durations: np.ndarray) -> np.ndarray:
    """Start time of every capture session of the given durations, chosen
    so that the sessions' last packets are evenly spaced over the stagger
    window, in an order the seed shuffles.

    Idle closes then fall ``CAPTURE_STAGGER_S / n`` apart, never two in one
    1 s batch, so every seed has the same close profile: how many closes
    happen to share a tick would otherwise set the lag tail.
    """
    rng = np.random.default_rng(corpus_seed(seed, "stagger"))
    ends = rng.permutation(len(durations)) * (CAPTURE_STAGGER_S / len(durations))
    starts = ends - durations
    return starts - starts.min()


def _be(values: np.ndarray, width: int) -> np.ndarray:
    """Big-endian bytes of unsigned ints, shape ``(n, width)``."""
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64) * np.uint64(8)
    return ((values[:, None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)


def _le(values: np.ndarray, width: int) -> np.ndarray:
    return _be(values, width)[:, ::-1]


def _ip_u32(ip: str) -> int:
    a, b, c, d = (int(part) for part in ip.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def u32_ip(value: int) -> str:
    """Dotted-quad form of an integer IPv4 address."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def record_time(ts: np.ndarray) -> tuple:
    """(seconds, microseconds) of each timestamp as a pcap record stores it."""
    seconds = np.floor(ts).astype(np.int64)
    micros = np.round((ts - seconds) * 1e6).astype(np.int64)
    carry = micros >= 1_000_000
    return seconds + carry, np.where(carry, micros - 1_000_000, micros)


def datagram_sizes(rows: dict) -> np.ndarray:
    """UDP payload bytes as written: an RTP datagram holds at least its header."""
    from repro.net.packet import RTP_NONE

    size = rows["size"]
    return np.where(rows["ssrc"] != RTP_NONE, np.maximum(size, 12), size)


def capture_rows(corpus: Sequence, seed: int) -> dict:
    """The capture's packets as flat columns, in capture order: each session
    cut to its :func:`capture_lengths` share and started at its
    :func:`stagger_offsets` time."""
    from repro.net.packet import DOWNSTREAM_CODE, RTP_NONE

    keep = capture_lengths(corpus)
    durations = np.array(
        [session.packets.columns().timestamps[:k].max() for session, k in zip(corpus, keep)]
    )
    offsets = stagger_offsets(seed, durations)
    parts = []
    for index, (session, offset, k) in enumerate(zip(corpus, offsets, keep)):
        columns = session.packets.columns()
        n = len(columns)
        server = columns.addresses[0]
        down = columns.directions == DOWNSTREAM_CODE
        server_ip, server_port = (
            (server[0], server[2]) if down[0] else (server[1], server[3])
        )

        def rtp(column):
            return np.full(n, RTP_NONE) if column is None else np.asarray(column)

        part = {
                "ts": columns.timestamps + float(offset),
                "size": np.asarray(columns.payload_sizes, dtype=np.int64),
                "down": down,
                "server_ip": np.full(n, _ip_u32(server_ip), dtype=np.int64),
                "server_port": np.full(n, int(server_port), dtype=np.int64),
                "client_port": np.full(n, CLIENT_PORT_BASE + index, dtype=np.int64),
                "pt": rtp(columns.rtp_payload_type),
                "seq": rtp(columns.rtp_sequence),
                "rtp_ts": rtp(columns.rtp_timestamp),
                "ssrc": rtp(columns.rtp_ssrc),
        }
        parts.append({key: value[:k] for key, value in part.items()})
    rows = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    order = np.argsort(rows["ts"], kind="stable")
    return {key: value[order] for key, value in rows.items()}


def write_capture(path: Path, rows: dict, snaplen: int = SNAPLEN, chunk: int = 200_000) -> int:
    """Write the rows as a classic Ethernet/IPv4/UDP/RTP pcap, header-truncated.

    Frames are laid out as a real encapsulation would (valid IPv4 header
    checksums, UDP and IP lengths of the full datagram); only the first
    ``snaplen`` bytes of each frame are recorded, with the original length
    kept in the record header.  RTP packets carry their 12-byte header, so
    an RTP datagram is never shorter than that header.  Returns the record
    count.
    """
    from repro.net.packet import RTP_NONE

    client = _ip_u32(CAPTURE_CLIENT_IP)
    path.parent.mkdir(parents=True, exist_ok=True)
    n_total = rows["ts"].size
    with path.open("wb") as handle:
        handle.write(
            np.array([0xA1B2C3D4], "<u4").tobytes()
            + np.array([2, 4], "<u2").tobytes()
            + np.array([0, 0, snaplen, 1], "<u4").tobytes()
        )
        for lo in range(0, n_total, chunk):
            part = {key: value[lo : lo + chunk] for key, value in rows.items()}
            n = part["ts"].size
            is_rtp = part["ssrc"] != RTP_NONE
            payload = datagram_sizes(part)
            frame_len = 42 + payload
            captured = np.minimum(frame_len, snaplen)
            seconds, micros = record_time(part["ts"])
            down = part["down"]
            src_ip = np.where(down, part["server_ip"], client)
            dst_ip = np.where(down, client, part["server_ip"])
            src_port = np.where(down, part["server_port"], part["client_port"])
            dst_port = np.where(down, part["client_port"], part["server_port"])
            ip_len = 28 + payload
            words = (
                0x4500 + ip_len + (64 << 8 | 17)
                + (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF)
            )
            words = (words & 0xFFFF) + (words >> 16)
            words = (words & 0xFFFF) + (words >> 16)
            checksum = ~words & 0xFFFF

            record = np.zeros((n, 16 + snaplen), dtype=np.uint8)
            record[:, 0:4] = _le(seconds, 4)
            record[:, 4:8] = _le(micros, 4)
            record[:, 8:12] = _le(captured, 4)
            record[:, 12:16] = _le(frame_len, 4)
            record[:, 16:22] = 0x02
            record[:, 22:28] = 0x04
            record[:, 28] = 0x08  # ethertype IPv4
            record[:, 30] = 0x45
            record[:, 32:34] = _be(ip_len, 2)
            record[:, 38] = 64  # ttl
            record[:, 39] = 17  # UDP
            record[:, 40:42] = _be(checksum, 2)
            record[:, 42:46] = _be(src_ip, 4)
            record[:, 46:50] = _be(dst_ip, 4)
            record[:, 50:52] = _be(src_port, 2)
            record[:, 52:54] = _be(dst_port, 2)
            record[:, 54:56] = _be(8 + payload, 2)
            rtp_rows = np.flatnonzero(is_rtp)
            record[rtp_rows, 58] = 0x80  # RTP version 2
            record[rtp_rows, 59] = part["pt"][rtp_rows] & 0x7F
            record[rtp_rows, 60:62] = _be(part["seq"][rtp_rows] & 0xFFFF, 2)
            record[rtp_rows, 62:66] = _be(part["rtp_ts"][rtp_rows] & 0xFFFFFFFF, 4)
            record[rtp_rows, 66:70] = _be(part["ssrc"][rtp_rows] & 0xFFFFFFFF, 4)
            keep = np.arange(16 + snaplen)[None, :] < (16 + captured)[:, None]
            handle.write(record[keep].tobytes())
    return n_total
