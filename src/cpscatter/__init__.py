"""Ambient backscatter simulator for frequency-selective channels.

The receiver exploits the OFDM cyclic prefix to cancel the direct source
path, folds the cancelled block into a circular convolution, diagonalizes
it with a DFT, and detects the tag bit with a chi-square energy test.
"""

__version__ = "0.1.0"
