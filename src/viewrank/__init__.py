"""Viewpoint ambiguity ranking and next-best-view planning for twin objects.

A deterministic synthetic view-embedding world stands in for a learned
encoder, which makes every quantity in the pipeline verifiable against
ground truth: codebook pose estimation, ambiguity ranking with descent
refinement, ambiguity-threshold dataset splits, classifier sweeps, and the
closed-loop next-best-view policy with a random baseline.
"""
