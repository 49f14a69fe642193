"""Anytime progressive pruning on megabatch streams, at desk scale.

The package couples a small float64 autodiff core with saliency-based global
pruning (SNIP, GraSP, magnitude, random) and a stream harness that trains,
prunes on a 0.8**delta schedule, and logs anytime metrics (test error, CER,
generalization gap) after every megabatch.
"""

__version__ = "0.1.0"
