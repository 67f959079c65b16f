"""Layer-wise radiometric feature extraction for powder bed fusion builds.

Converts per-layer infrared frame stacks into calibrated, geometry-registered
per-voxel features, with a synthetic build simulator supplying ground truth
for every stage.

The package namespace exports nothing: import the submodules
(`irmap.cli`, `irmap.features`, `irmap.store`, ...).
"""

__version__ = "0.1.0"
