"""Size and time unit helpers.

All sizes in the library are plain ``int`` bytes and all times are ``float``
seconds; these constants and formatters exist so model configurations read
like the paper ("50 MB per process in 50 KB increments", "1.25 GB/s peak").

The paper mixes decimal and binary prefixes the way storage papers usually
do; we expose both and use binary (KiB/MiB/GiB) for transfer sizes and
decimal (KB/MB/GB) where the paper's text does.
"""

from __future__ import annotations

# Binary prefixes.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Decimal prefixes (the paper's "50 MB", "1.25 GB/s" are decimal).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

# Time.
USEC = 1e-6
MSEC = 1e-3


def fmt_bw(bytes_per_s: float) -> str:
    """Render a bandwidth in decimal units the way the paper quotes them (MB/s, GB/s)."""
    n = float(bytes_per_s)
    for unit in ("B/s", "KB/s", "MB/s", "GB/s", "TB/s"):
        if abs(n) < 1000.0 or unit == "TB/s":
            return f"{n:.2f} {unit}"
        n /= 1000.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Render a duration with a sensible unit (us/ms/s)."""
    if seconds < 0:
        return "-" + fmt_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
