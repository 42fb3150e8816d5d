"""Energy-change statistics for a periodically pulsed, driven qubit.

The package models a two-level system under two drive families (a
fixed-axis amplitude ramp and a rotating transverse field), interrupted
by stochastic reset pulses, and evaluates two-point energy statistics
both exactly (affine Bloch maps) and by trajectory sampling.  The
package root holds only ``__version__``; import the submodules.
"""

__version__ = "0.1.0"
