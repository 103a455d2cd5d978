"""Diachronic co-word clustering and term diffusion analysis.

Two instruments over a timestamped keyword corpus split into two periods:
a term diffusion model that sorts the vocabulary into established,
unusual, and cross-section terms via document frequency, TF-IDF salience,
and Gini dispersion; and a diachronic cluster analysis that clusters each
period with axial K-means, maps the clusters by PCA, and links
second-period clusters to their first-period roots.
"""

__version__ = "0.1.0"
