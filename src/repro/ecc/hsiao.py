"""Hsiao odd-weight-column SEC-DED code.

The workhorse DRAM ECC.  Compared to extended Hamming it has the same
(n, k) but every column of the parity-check matrix H has odd weight,
which (a) makes single-vs-double error classification a simple weight
test on the syndrome and (b) balances the fan-in of the check-bit
trees.  We construct H as ``[H_d | I_r]`` with the data columns drawn
from weight-3 then weight-5 (then 7, ...) vectors in lexicographic
order — the canonical minimal-weight construction.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List

from repro.ecc.base import CodeSpec, DecodeResult, DecodeStatus, ErrorCode
from repro.ecc.gf import bytes_to_int, int_to_bytes, matvec_gf2, popcount


def _min_check_bits(data_bits: int) -> int:
    """Smallest r with enough odd-weight non-unit columns: 2^(r-1) - r >= k."""
    r = 2
    while (1 << (r - 1)) - r < data_bits:
        r += 1
    return r


def _odd_weight_columns(r: int, count: int) -> List[int]:
    """First ``count`` odd-weight-(>=3) columns of length r, minimal weight first."""
    cols: List[int] = []
    weight = 3
    while len(cols) < count:
        if weight > r:
            raise ValueError(f"cannot build {count} odd-weight columns with r={r}")
        for bits in combinations(range(r), weight):
            col = 0
            for b in bits:
                col |= 1 << b
            cols.append(col)
            if len(cols) == count:
                break
        weight += 2
    return cols


class HsiaoCode(ErrorCode):
    """SEC-DED with odd-weight columns.  ``data_bytes`` up to 64 is typical."""

    def __init__(self, data_bytes: int, check_bits: int = 0):
        if data_bytes < 1:
            raise ValueError("data_bytes must be >= 1")
        data_bits = data_bytes * 8
        r = check_bits or _min_check_bits(data_bits)
        if (1 << (r - 1)) - r < data_bits:
            raise ValueError(f"check_bits={r} too small for {data_bits} data bits")
        self.spec = CodeSpec(name=f"hsiao({data_bits + r},{data_bits})",
                             data_bits=data_bits, check_bits=r)
        self._r = r
        self._columns = _odd_weight_columns(r, data_bits)
        # Row masks: row i of H_d selects the data bits whose column has
        # bit i set.  Encoding is then r masked parities.
        self._rows = [0] * r
        for j, col in enumerate(self._columns):
            for i in range(r):
                if col & (1 << i):
                    self._rows[i] |= 1 << j
        self._column_to_bit: Dict[int, int] = {c: j for j, c in enumerate(self._columns)}

    def encode(self, data: bytes) -> bytes:
        self._require_sizes(data)
        vec = bytes_to_int(data)
        check = matvec_gf2(self._rows, vec)
        return int_to_bytes(check, self.spec.check_bytes)

    def syndrome(self, data: bytes, check: bytes) -> int:
        """Raw syndrome bits (0 means clean)."""
        self._require_sizes(data, check)
        vec = bytes_to_int(data)
        return matvec_gf2(self._rows, vec) ^ bytes_to_int(check)

    def decode(self, data: bytes, check: bytes) -> DecodeResult:
        syndrome = self.syndrome(data, check)
        if syndrome == 0:
            return DecodeResult(DecodeStatus.CLEAN, data)
        weight = popcount(syndrome)
        if weight % 2 == 1:
            if syndrome in self._column_to_bit:
                bit = self._column_to_bit[syndrome]
                vec = bytes_to_int(data) ^ (1 << bit)
                return DecodeResult(
                    DecodeStatus.CORRECTED,
                    int_to_bytes(vec, self.spec.data_bytes),
                    corrected_bits=(bit,),
                )
            if weight == 1:
                # The flipped bit is one of the check bits; data intact.
                return DecodeResult(DecodeStatus.CORRECTED, data, corrected_bits=())
            # Odd weight but no matching column: >= 3 errors, detected.
            return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, data)
        # Even nonzero weight: double error detected.
        return DecodeResult(DecodeStatus.DETECTED_UNCORRECTABLE, data)
