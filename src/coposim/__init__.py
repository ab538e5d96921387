"""Cooperative multi-point mmWave positioning simulator.

A transmit vehicle broadcasts two-tone signature waveforms plus a
stepped-frequency comb; a sensing vehicle locates the transmit antenna cloud
by clock-difference estimation, Fourier aperture imaging and, without line of
sight, fusion of mirror images reflected off neighbouring vehicles.
"""

from .analysis import LinkBudgetParams, azimuth_resolution, hausdorff, range_resolution, rcs, rx_power
from .channel import NOISELESS, NoiseModel, PathObservation, simulate_sfcw, simulate_signature
from .combining import (CombineResult, VirtualDetection, combine_cluster, estimate_surface,
                        fuse_clouds, group_by_clock, map_virtual_to_actual, search_theta_ref)
from .geometry import (SPEED_OF_LIGHT, Point3, ReflectionSurface, Scene, directed_angle_xz,
                       mirror_point, path_length)
from .imaging import (ApertureSamples, ImagingBox, PowerSpectrum, detect_peaks, forward_2d_spectrum,
                      inverse_3d_spectrum, reconstruct, remap_to_sphere, sample_aperture)
from .sync import PdoaMeasurement, SyncResult, estimate_clock, initial_guess, locate_anchor, measure_pdoa
from .waveform import (FrequencyGrid, SignatureConfig, ValidationReport, max_unambiguous_range,
                       sync_spacing_bound, validate_scene)

__version__ = "0.1.0"
