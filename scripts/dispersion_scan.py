#!/usr/bin/env python3
"""Scan the two dispersion laws and the scattering phases over rapidity.

Prints closed form against quadrature for both excitation energies and the
relative phase between the like and mixed scattering channels.
"""
import argparse

import numpy as np

from axxz import thermo
from axxz.model import ExcitationSpec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amax", type=float, default=2.0)
    ap.add_argument("--points", type=int, default=17)
    args = ap.parse_args()

    print(f"{'alpha':>7} {'de1':>12} {'de1(quad)':>12} {'de2':>12} "
          f"{'de2(quad)':>12} {'arg S11':>9} {'arg S12':>9}")
    worst = 0.0
    for a in np.linspace(-args.amax, args.amax, args.points):
        s1 = ExcitationSpec("type_I", float(a))
        s2 = ExcitationSpec("type_II", float(a))
        e1 = thermo.excitation_energy(s1)
        e2 = thermo.excitation_energy(s2)
        q1 = thermo.excitation_energy_quadrature(s1)
        q2 = thermo.excitation_energy_quadrature(s2)
        worst = max(worst, abs(e1 - q1), abs(e2 - q2))
        ph_like = np.angle(thermo.smatrix("I_I", float(a), 0.0).value)
        ph_mix = np.angle(thermo.smatrix("I_II", float(a), 0.0).value)
        print(f"{a:>7.3f} {e1:>12.8f} {q1:>12.8f} {e2:>12.8f} {q2:>12.8f} "
              f"{ph_like:>9.4f} {ph_mix:>9.4f}")

    print(f"\nworst closed-form vs quadrature deviation: {worst:.2e}")


if __name__ == "__main__":
    main()
