#!/usr/bin/env python3
"""Ground energy per site versus system size.

Solves the zero-point equations at N = 2^k and 2^k + 1 for 8 <= 2^k <= nmax,
so both parities of N are on the curve, and compares E/N against the
closed-form density e_g = (3 - 3 sqrt 3)/2, exhibiting the finite-size gap
closing like 1/N^2. With two or more sizes N >= 64 it ends with a
least-squares fit E/N - e_g = c/N^2 + d/N^4 over those sizes. The solves
for N = 8 .. 1025 take about 2 s together on 2 CPUs (numpy with OpenBLAS).
"""
import argparse
import time

import numpy as np

from axxz import bae, thermo
from axxz.model import ModelParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=128)
    args = ap.parse_args()

    eg = thermo.ground_energy_density()
    print(f"e_g = {eg:.15f}\n")
    print(f"{'N':>5} {'E/N':>20} {'E/N - e_g':>12} {'N^2*(E/N - e_g)':>16} its  secs")
    fit = []
    sizes = []
    n = 8
    while n <= args.nmax:
        sizes += [n, n + 1]
        n *= 2
    for n in sizes:
        params = ModelParams(n_sites=n)
        t0 = time.monotonic()
        zps = bae.solve_newton(
            bae.seed_from_quantum_numbers(bae.ground_numbers(n), params), params
        )
        dt = time.monotonic() - t0
        gap = zps.energy / n - eg
        print(f"{n:>5} {zps.energy / n:>20.15f} {gap:>12.3e} {n * n * gap:>16.9f} "
              f"{zps.iterations:>3} {dt:>5.2f}")
        if n >= 64:
            fit.append((n, gap))
    if len(fit) >= 2:
        ns, gaps = np.array(fit).T
        c, d = np.linalg.lstsq(np.c_[ns**-2, ns**-4], gaps, rcond=None)[0]
        print(f"\nfit N = {int(ns[0])}..{int(ns[-1])}: E/N - e_g = c/N^2 + d/N^4, "
              f"c = {c:.7f}, d = {d:.3f}")


if __name__ == "__main__":
    main()
