"""Fragmented-spectrum OFDM-CDMA cognitive-radio toolkit.

Multi-level orthogonal spreading codes, energy-detection spectrum
sensing with OR-rule fusion, a frequency-domain link simulator over
Rayleigh fading with primary-user interference, and the matching
closed-form BER analysis.
"""

__version__ = "0.12.0"
