"""Micro-benchmark of the compiled kernel backend against the pure one.

Run with ``python -m zoar.backend_bench``.  The two backends are
bit-identical by contract, so this only measures speed on the kernel
surfaces: direction materialisation and the seeded weighted reduction.
"""

import time

import numpy as np

from ._kernels import bits, pure

try:
    from ._kernels import _ckern
except ImportError:
    _ckern = None


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def run(reps: int = 5) -> list[tuple[str, float, float | None]]:
    seeds_small = bits.stream_words(7, 60)
    seeds_big = bits.stream_words(8, 2000)
    coeffs_small = np.linspace(-1.0, 1.0, 60)
    coeffs_big = np.linspace(-1.0, 1.0, 2000)

    cases = [
        ("standard_normals(n=1e6)",
         lambda impl: impl.standard_normals(3, 1_000_000)),
        ("materialize sphere d=100 x200",
         lambda impl: [impl.materialize(s, 1, 100) for s in range(200)]),
        ("materialize_block 2000x100 gaussian",
         lambda impl: impl.materialize_block(seeds_big, 0, 100)),
        ("weighted_sum 60 dirs d=100 (reuse step) x50",
         lambda impl: [impl.weighted_direction_sum(seeds_small, 1, 100, coeffs_small)
                       for _ in range(50)]),
        ("weighted_sum 2000 dirs d=100",
         lambda impl: impl.weighted_direction_sum(seeds_big, 0, 100, coeffs_big)),
    ]

    rows = []
    for name, fn in cases:
        t_pure = _time(lambda: fn(pure), reps)
        t_comp = _time(lambda: fn(_ckern), reps) if _ckern is not None else None
        rows.append((name, t_pure, t_comp))
    return rows


def main() -> None:
    rows = run()
    print(f"{'case':<45} {'pure [ms]':>10} {'compiled [ms]':>14} {'speedup':>8}")
    for name, t_pure, t_comp in rows:
        if t_comp is None:
            print(f"{name:<45} {t_pure * 1e3:>10.2f} {'n/a':>14} {'n/a':>8}")
        else:
            print(f"{name:<45} {t_pure * 1e3:>10.2f} {t_comp * 1e3:>14.2f} "
                  f"{t_pure / t_comp:>7.1f}x")
    if _ckern is None:
        print("\ncompiled backend not built; only the pure backend was timed")


if __name__ == "__main__":
    main()
