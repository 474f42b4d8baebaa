"""Quorum-replicated durability: cooperative replicas, selection schemes,
triplet metadata, and recovery assembly, simulated in process."""

from .backend import QuorumBackend, QuorumConfig
from .metadata import MetadataArray, SENTINEL
from .registry import Registry
from .replica import Replica, SegmentId, build_cluster
from .selection import SelectionScheme, form_quorums, select_quorums

__all__ = [
    "MetadataArray",
    "QuorumBackend",
    "QuorumConfig",
    "Registry",
    "Replica",
    "SENTINEL",
    "SegmentId",
    "SelectionScheme",
    "build_cluster",
    "form_quorums",
    "select_quorums",
]
