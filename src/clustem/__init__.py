"""Batch anonymization of tabular data with embedding-clustered value hierarchies."""

from .anonymize import (
    AnonymizationResult,
    LatticeNode,
    PrivacyParams,
    generate_vghs,
    loss,
    search,
)
from .cluster import ClusterAssignment, MergeStep, agglomerate, kmeans, ward_merge
from .efficacy import EfficacyReport, FeatureMatrix, encode, evaluate, train_classifier
from .embed import (
    HttpApiProvider,
    ProviderConfig,
    WordVectorProvider,
    create_provider,
    embed_all,
    preprocess,
)
from .errors import InputError, ProviderError
from .metrics import MetricReport, achieved_privacy, c_avg, perc_recs, t_closeness
from .tabular import Column, QiSpec, Table, group_ids, load_csv, write_csv
from .vgh import Vgh, build_vgh, get_categories, read_hierarchy, write_hierarchy

__version__ = "0.1.0"

__all__ = [
    "AnonymizationResult",
    "ClusterAssignment",
    "Column",
    "EfficacyReport",
    "FeatureMatrix",
    "HttpApiProvider",
    "InputError",
    "LatticeNode",
    "MergeStep",
    "MetricReport",
    "PrivacyParams",
    "ProviderConfig",
    "ProviderError",
    "QiSpec",
    "Table",
    "Vgh",
    "WordVectorProvider",
    "achieved_privacy",
    "agglomerate",
    "build_vgh",
    "c_avg",
    "create_provider",
    "embed_all",
    "encode",
    "evaluate",
    "generate_vghs",
    "get_categories",
    "group_ids",
    "kmeans",
    "load_csv",
    "loss",
    "perc_recs",
    "preprocess",
    "read_hierarchy",
    "search",
    "t_closeness",
    "train_classifier",
    "ward_merge",
    "write_csv",
    "write_hierarchy",
]
