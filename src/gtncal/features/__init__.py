"""Feature extraction: curve segmentation, standardization, PCA and noise
propagation, field flattening, and the modality pipelines that own the
score layout."""
