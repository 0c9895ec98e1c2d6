"""Set-up and machine-speed probe, run in a fresh interpreter with
PYTHONPATH=src:

    python3 perfbench/probe.py

Prints two times in seconds: `import grasscy` plus `registry_load()` (the
set-up every command-line call pays), then a fixed calibration kernel that
uses only the standard library.  The kernel does the kind of work grasscy
does, exact rational power-series arithmetic, so its time follows the
machine's speed and not the program's: run.py scales its timings by it.
"""

import time

t = time.perf_counter()
import grasscy  # noqa: E402

grasscy.registry_load()
setup = time.perf_counter() - t

from fractions import Fraction  # noqa: E402


def kernel(n: int = 24) -> Fraction:
    """Compose two rational power series to order n by Horner's rule."""
    a = [Fraction(1, k * k + 1) for k in range(n)]
    b = [Fraction(0)] + [Fraction((-1) ** k, k + 2) for k in range(1, n)]
    out = [Fraction(0)] * n
    for m in range(n - 1, -1, -1):
        prod = [Fraction(0)] * n
        for i, x in enumerate(out):
            if x:
                for j in range(1, n - i):
                    prod[i + j] += x * b[j]
        prod[0] += a[m]
        out = prod
    return out[-1]


t = time.perf_counter()
kernel()
calibration = time.perf_counter() - t
print(repr(setup), repr(calibration))
