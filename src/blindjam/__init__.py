"""Simulator and analysis library for helper-assisted jamming on the
Gaussian wiretap channel: lattice decoding, mixture-entropy information
measures, and reproducible power-sweep experiments. Each public name is
imported from its one module, as ``from blindjam.schemes import encode``."""

__version__ = "0.1.0"
