"""Forward-pass kernels and a CLI harness for camera-based semantic
occupancy prediction: large-kernel 3D convolution re-parameterization,
depth-lifted view transformation, temporally fused BEV features, BEV-to-voxel
height lifting, and a scheduled depth mixup."""

__version__ = "0.1.0"
