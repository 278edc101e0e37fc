"""Exact solution toolkit for the antiperiodic XXZ chain at eta = i*pi/3.

The chain couples N spins with XX + YY + cosh(eta) ZZ bonds and a twisted
last bond (conjugation by sigma^x). At this anisotropy every transfer
eigenvalue factors over N-1 zero points, the zeros obey closed Bethe-type
equations, and the large-N limit has closed-form densities, dispersions and
scattering amplitudes. Submodules:

    core      operators: Hamiltonian, transfer action t(u) X, ED
    bae       zero-point equations: residuals, Newton solver, quantum numbers
    tqverify  factored-eigenvalue extraction and functional identity checks
    thermo    large-N closed forms and finite-size density checks
    cli       the `axxz` command line front end
"""

from . import bae, core, thermo, tqverify
