"""Cooperative multi-point mmWave positioning simulator.

A transmit vehicle broadcasts two-tone signature waveforms plus a
stepped-frequency comb; a sensing vehicle locates the transmit antenna cloud
by clock-difference estimation, Fourier aperture imaging and, without line of
sight, fusion of mirror images reflected off neighbouring vehicles.
"""

__version__ = "0.1.0"
