"""Asymptotic machinery: Airy numerics, scaled transform tables,
growth-rate predictions, and the two-sided bound verifier.

Names are imported from their submodules, and importing this package
imports none of them.  Of those, airy, scaled and bounds load numpy;
exact and predict do not."""
