"""Code selection for protection schemes.

Maps a configuration string to an :class:`~repro.ecc.base.ErrorCode`
over the scheme's protection granule, and derives the metadata-bytes-
per-granule (check bytes rounded up to a power of two so metadata packs
evenly into 32 B DRAM atoms).

Available code names:

* ``secded`` — Hsiao SEC-DED over the granule (the default);
* ``tagged`` — Hsiao SEC-DED carrying a 4-bit memory tag (IMT-style);
* ``interleaved`` — 4-way bit-interleaved SEC-DED: corrects any 4-bit
  burst (the spatially-clustered GPU DRAM error pattern);
* ``bch`` — double-error-correcting binary BCH (~2m check bits);
* ``rs`` — Reed-Solomon with t=2 symbol correction (chipkill-class);
* ``mac64`` — 64-bit truncated MAC (detection-only integrity);
* ``secded+mac`` — SEC-DED stacked with a MAC (correction + integrity),
  the strongest (and most metadata-hungry) configuration in F9.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ecc.base import CodeSpec, DecodeResult, DecodeStatus, ErrorCode
from repro.ecc.bch import BchCode
from repro.ecc.hsiao import HsiaoCode
from repro.ecc.interleaved import InterleavedCode
from repro.ecc.mac import TruncatedMac
from repro.ecc.reed_solomon import ReedSolomonCode
from repro.ecc.tagged import TaggedHsiaoCode


class StackedCode(ErrorCode):
    """SEC-DED correction stacked with MAC integrity.

    The decoder first lets the ECC correct, then checks the MAC over
    the corrected data — a miscorrection or residual corruption that
    slips past the ECC is caught by the MAC.
    """

    def __init__(self, data_bytes: int, mac_bits: int = 64):
        self._ecc = HsiaoCode(data_bytes)
        self._mac = TruncatedMac(data_bytes, mac_bits)
        check_bits = self._ecc.spec.check_bits + mac_bits
        self.spec = CodeSpec(name=f"secded+mac{mac_bits}({data_bytes}B)",
                             data_bits=data_bytes * 8, check_bits=check_bits)
        # Byte split inside the metadata field.
        self._ecc_bytes = self._ecc.spec.check_bytes

    def encode(self, data: bytes) -> bytes:
        self._require_sizes(data)
        return self._ecc.encode(data) + self._mac.encode(data)

    def decode(self, data: bytes, check: bytes) -> DecodeResult:
        self._require_sizes(data, check)
        ecc_check = check[: self._ecc_bytes]
        mac_check = check[self._ecc_bytes:]
        ecc_result = self._ecc.decode(data, ecc_check)
        candidate = ecc_result.data if ecc_result.ok else data
        mac_result = self._mac.decode(candidate, mac_check)
        if not ecc_result.ok:
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, data)
        if mac_result.status is not DecodeStatus.CLEAN:
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, data)
        return DecodeResult(ecc_result.status, candidate,
                            corrected_bits=ecc_result.corrected_bits)


def _round_meta_bytes(check_bytes: int, atom_bytes: int = 32) -> int:
    size = 1
    while size < check_bytes:
        size *= 2
    if size > atom_bytes:
        raise ValueError(f"metadata of {check_bytes} B exceeds one atom")
    return size


#: Code name -> constructor over a granule of that many data bytes.
_CODES: Dict[str, Callable[[int], ErrorCode]] = {
    "secded": HsiaoCode,
    "tagged": lambda g: TaggedHsiaoCode(g, tag_bits=4),
    "interleaved": lambda g: InterleavedCode(g, ways=4),
    "bch": BchCode,
    "rs": lambda g: ReedSolomonCode(g, check_symbols=4),
    "mac64": lambda g: TruncatedMac(g, mac_bits=64),
    "secded+mac": lambda g: StackedCode(g, mac_bits=64),
}

CODE_NAMES = tuple(_CODES)


def build_code(code_name: str, granule_bytes: int,
               functional: bool) -> Tuple[Optional[ErrorCode], int]:
    """Return ``(code_or_None, meta_bytes_per_granule)``.

    When ``functional`` is false the code object is not returned (timing-
    only runs skip real encode/decode) but metadata sizing still
    reflects the chosen code.  SEC-DED sizes itself without building
    its parity-check matrix.
    """
    make = _CODES.get(code_name)
    if make is None:
        raise ValueError(f"unknown code {code_name!r}; choose from {CODE_NAMES}")
    if code_name == "secded" and not functional:
        return None, _round_meta_bytes(_secded_check_bytes(granule_bytes))
    code = make(granule_bytes)
    return (code if functional else None), _round_meta_bytes(code.spec.check_bytes)


def _secded_check_bytes(data_bytes: int) -> int:
    """Check bytes of a Hsiao code without constructing its matrix."""
    data_bits = data_bytes * 8
    r = 2
    while (1 << (r - 1)) - r < data_bits:
        r += 1
    return (r + 7) // 8
