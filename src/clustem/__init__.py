"""Batch anonymization of tabular data with embedding-clustered value hierarchies."""

from .anonymize import PrivacyParams, generate_vghs, loss, search
from .efficacy import encode, evaluate, train_classifier
from .errors import InputError, ProviderError
from .tabular import Column, QiSpec, Table, group_ids, load_csv, write_csv
from .vgh import Vgh, build_vgh, read_hierarchy, write_hierarchy

__version__ = "0.1.0"

__all__ = [
    "Column",
    "InputError",
    "PrivacyParams",
    "ProviderError",
    "QiSpec",
    "Table",
    "Vgh",
    "build_vgh",
    "encode",
    "evaluate",
    "generate_vghs",
    "group_ids",
    "load_csv",
    "loss",
    "read_hierarchy",
    "search",
    "train_classifier",
    "write_csv",
    "write_hierarchy",
]
