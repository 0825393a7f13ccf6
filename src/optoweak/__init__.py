"""Post-selected weak measurement in single-photon Mach-Zehnder optomechanics.

Closed-form conditioned-mirror observables (:mod:`optoweak.model`),
truncated-Fock-space operators and Wigner sampling (:mod:`optoweak.fockspace`),
an independent exact Lindblad oracle (:mod:`optoweak.lindblad`), and sweep /
figure / verification tooling (:mod:`optoweak.sweeps`, :mod:`optoweak.cli`).
"""
