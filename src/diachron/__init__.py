"""Diachronic co-word clustering and term diffusion analysis.

Two instruments over a timestamped keyword corpus split into two periods:
a term diffusion model that sorts the vocabulary into established,
unusual, and cross-section terms via document frequency, TF-IDF salience,
and Gini dispersion; and a diachronic cluster analysis that clusters each
period with axial K-means, maps the clusters by PCA, and links
second-period clusters to their first-period roots.
"""

from .cluster import (
    ClusterConfig,
    ClusterModel,
    ClusterSummary,
    fit_axial_kmeans,
    init_axes,
    summarize_clusters,
)
from .corpus import (
    CorpusSlice,
    LoadReport,
    PeriodSpec,
    Record,
    SplitReport,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    normalize_term,
    save_corpus,
    split_periods,
)
from .diachrony import (
    STATUS_NEW,
    STATUS_ROOTED,
    ClusterLink,
    CrossTab,
    Linkage,
    cross_table,
    link_periods,
)
from .diffusion import (
    CATEGORY_CROSS_SECTION,
    CATEGORY_ESTABLISHED,
    CATEGORY_UNCLASSIFIED,
    CATEGORY_UNUSUAL,
    DiffusionThresholds,
    TermStats,
    classify_terms,
    gini,
    tfidf,
)
from .errors import ConfigError, DiachronError, InputError, NumericError
from .mapping import (
    ClusterMap,
    build_cluster_map,
    build_edges,
    connected_components,
    pca_2d,
    render_svg,
    top_eigenpairs,
)
from .pipeline import RunConfig, config_from_dict, load_config, run_pipeline, run_stage
from .syngen import Block, BridgeSpec, PlantSpec, generate
from .vectorize import DocTermMatrix, build_matrix, cosine, idf_vector

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Block",
    "BridgeSpec",
    "CATEGORY_CROSS_SECTION",
    "CATEGORY_ESTABLISHED",
    "CATEGORY_UNCLASSIFIED",
    "CATEGORY_UNUSUAL",
    "ClusterConfig",
    "ClusterLink",
    "ClusterMap",
    "ClusterModel",
    "ClusterSummary",
    "ConfigError",
    "CorpusSlice",
    "CrossTab",
    "DiachronError",
    "DiffusionThresholds",
    "DocTermMatrix",
    "InputError",
    "Linkage",
    "LoadReport",
    "NumericError",
    "PeriodSpec",
    "PlantSpec",
    "Record",
    "RunConfig",
    "SplitReport",
    "STATUS_NEW",
    "STATUS_ROOTED",
    "TermStats",
    "Vocabulary",
    "build_cluster_map",
    "build_edges",
    "build_matrix",
    "build_vocabulary",
    "classify_terms",
    "config_from_dict",
    "connected_components",
    "cosine",
    "cross_table",
    "fit_axial_kmeans",
    "generate",
    "gini",
    "idf_vector",
    "init_axes",
    "link_periods",
    "load_config",
    "load_corpus",
    "normalize_term",
    "pca_2d",
    "render_svg",
    "run_pipeline",
    "run_stage",
    "save_corpus",
    "split_periods",
    "summarize_clusters",
    "tfidf",
    "top_eigenpairs",
]
