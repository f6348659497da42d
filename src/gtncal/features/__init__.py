"""Feature extraction: curve segmentation, standardization, PCA, field flattening."""
