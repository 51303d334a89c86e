"""Trace serialization.

Workload traces are plain data, so they round-trip through a compact
JSON-lines format: one line per warp, each op encoded positionally.
This lets users capture a generated workload once and replay it (or
hand the simulator traces produced by an external tool in the same
format).

Format (one JSON array per line = one warp):

    [["c", cycles], ["m", [addr, ...], store?, atomic?], ...]

Optional header line: ``{"repro-trace": 1, "workload": "...", ...}``.

Compiled (columnar) artifacts have their own binary container —
:func:`dump_columnar` / :func:`load_columnar`: a JSON header line
(format + columnar version, geometry, digest, column layout) followed
by the raw little-endian column bytes in
:data:`repro.gpu.columnar.ARRAY_SPECS` order.  The digest is
re-derived on load, so a corrupted or hand-edited file cannot
impersonate the artifact the header claims (the same digest
participates in result-cache keys).
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Union

from repro.gpu.columnar import (ARRAY_SPECS, COLUMNAR_VERSION,
                                CompiledTrace, column_bytes,
                                column_from_bytes, trace_digest)
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp

FORMAT_VERSION = 1

#: Magic key of the columnar container's header line.
COLUMNAR_MAGIC = "repro-columnar"


def _encode_op(op: WarpOp) -> list:
    if isinstance(op, ComputeOp):
        return ["c", op.cycles]
    assert isinstance(op, MemoryOp)
    entry: list = ["m", list(op.addresses)]
    if op.is_store or op.is_atomic:
        entry.append(bool(op.is_store))
    if op.is_atomic:
        entry.append(True)
    return entry


def _integer(value: object, what: str) -> int:
    """``value`` if it is a JSON integer, else a ValueError: a float or
    a boolean is never silently truncated into a cycle count or an
    address."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _decode_op(entry: list) -> WarpOp:
    if not isinstance(entry, list) or not entry:
        raise ValueError(f"malformed op entry: {entry!r}")
    kind = entry[0]
    if kind == "c":
        if len(entry) != 2:
            raise ValueError(f"compute op needs one cycle count: {entry!r}")
        return ComputeOp(_integer(entry[1], "compute cycles"))
    if kind == "m":
        if not 2 <= len(entry) <= 4 or not isinstance(entry[1], list):
            raise ValueError("memory op needs an address list and at most "
                             f"two flags: {entry!r}")
        addresses = tuple(_integer(a, "address") for a in entry[1])
        flags = entry[2:]
        if any(type(flag) is not bool for flag in flags):
            raise ValueError(f"memory op flags must be true/false: {entry!r}")
        is_store = flags[0] if flags else False
        is_atomic = flags[1] if len(flags) > 1 else False
        return MemoryOp(addresses, is_store=is_store, is_atomic=is_atomic)
    raise ValueError(f"unknown op kind {kind!r}")


def dump_traces(traces: Iterable[Iterable[WarpOp]], fh: IO[str],
                workload: Optional[str] = None) -> int:
    """Write warp traces as JSON lines; returns the warp count.

    ``traces`` is flat: one entry per warp (flatten the per-SM nesting
    first if you have `Workload.build` output).
    """
    header = {"repro-trace": FORMAT_VERSION}
    if workload:
        header["workload"] = workload
    fh.write(json.dumps(header) + "\n")
    count = 0
    for ops in traces:
        fh.write(json.dumps([_encode_op(op) for op in ops],
                            separators=(",", ":")) + "\n")
        count += 1
    return count


def load_traces(fh: IO[str]) -> List[List[WarpOp]]:
    """Read JSON-lines traces (header line optional)."""
    warps: List[List[WarpOp]] = []
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if isinstance(payload, dict):
            if line_no == 1 and payload.get("repro-trace") == FORMAT_VERSION:
                continue
            raise ValueError(f"line {line_no}: unexpected header {payload!r}")
        if not isinstance(payload, list):
            raise ValueError(f"line {line_no}: expected a JSON array")
        try:
            warps.append([_decode_op(entry) for entry in payload])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return warps


def dump_columnar(compiled, fh: IO[bytes],
                  workload: Optional[str] = None) -> int:
    """Write a :class:`~repro.gpu.columnar.CompiledTrace` to a binary
    stream; returns the byte count written.

    Layout: one UTF-8 JSON header line (``COLUMNAR_MAGIC`` mapping to
    the container format version, the columnar artifact version,
    geometry, digest and the per-array ``[name, dtype, length]``
    specs), then each column's raw little-endian bytes back-to-back in
    header order.
    """
    columns = [getattr(compiled, name) for name, _dtype in ARRAY_SPECS]
    header = {
        COLUMNAR_MAGIC: 1,
        "columnar_version": COLUMNAR_VERSION,
        "num_sms": compiled.num_sms,
        "line_bytes": compiled.line_bytes,
        "sector_bytes": compiled.sector_bytes,
        "digest": compiled.digest,
        "arrays": [[name, dtype, len(column)] for (name, dtype), column
                   in zip(ARRAY_SPECS, columns)],
    }
    if workload:
        header["workload"] = workload
    header_bytes = (json.dumps(header, separators=(",", ":"))
                    + "\n").encode("utf-8")
    fh.write(header_bytes)
    written = len(header_bytes)
    for column in columns:
        data = column_bytes(column)
        fh.write(data)
        written += len(data)
    return written


def load_columnar(fh: IO[bytes]):
    """Read a :func:`dump_columnar` stream back into a verified
    :class:`~repro.gpu.columnar.CompiledTrace`.

    Validates the container and artifact versions, the structural
    invariants, and the content digest (recomputed from the loaded
    bytes and compared against the header's claim) — a truncated or
    tampered file raises instead of replaying silently wrong.
    """
    header_line = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise ValueError("columnar trace: truncated header")
        if ch == b"\n":
            break
        header_line += ch
    header = json.loads(header_line.decode("utf-8"))
    if header.get(COLUMNAR_MAGIC) != 1:
        raise ValueError("not a columnar trace file (bad magic)")
    if header.get("columnar_version") != COLUMNAR_VERSION:
        raise ValueError(
            f"columnar artifact version {header.get('columnar_version')!r} "
            f"unsupported (expected {COLUMNAR_VERSION})")
    specs = header.get("arrays")
    if (not isinstance(specs, list)
            or [(s[0], s[1]) for s in specs] != list(ARRAY_SPECS)):
        raise ValueError("columnar trace: array layout mismatch")
    columns = []
    for name, dtype, length in specs:
        want = int(length) * int(dtype[2:])  # "<i8": 8 bytes each
        data = fh.read(want)
        if len(data) != want:
            raise ValueError(f"columnar trace: truncated array {name!r}")
        columns.append(column_from_bytes(data, dtype))
    num_sms = int(header["num_sms"])
    line_bytes = int(header["line_bytes"])
    sector_bytes = int(header["sector_bytes"])
    digest = trace_digest(num_sms, line_bytes, sector_bytes, columns)
    if digest != header.get("digest"):
        raise ValueError("columnar trace: content digest mismatch "
                         "(corrupted or tampered file)")
    compiled = CompiledTrace(num_sms, line_bytes, sector_bytes,
                             *columns, digest=digest)
    compiled.validate()
    return compiled


def flatten_machine_traces(traces) -> List[List[WarpOp]]:
    """Flatten `Workload.build` output ([sm][warp] -> ops) into one
    warp list, SM-major (matching round-robin redistribution)."""
    return [ops for per_sm in traces for ops in per_sm]


def distribute_traces(warps: List[List[WarpOp]], num_sms: int,
                      warps_per_sm: int) -> List[List[List[WarpOp]]]:
    """Pack a flat warp list back into [sm][warp] shape.

    SM-major chunking — the exact inverse of
    :func:`flatten_machine_traces`, so a dumped-and-replayed trace
    lands on the same SMs and simulates identically.  Warps beyond
    ``num_sms * warps_per_sm`` are dropped; a short list leaves later
    SMs underfilled.
    """
    out: List[List[List[WarpOp]]] = [[] for _ in range(num_sms)]
    for index, ops in enumerate(warps[: num_sms * warps_per_sm]):
        out[index // warps_per_sm].append(ops)
    return out
