"""Quorum-replicated durability: cooperative replicas, selection schemes,
triplet metadata, and recovery assembly, simulated on a logical clock."""

from .backend import QuorumBackend, QuorumConfig
from .metadata import MetadataArray, MetadataEntry, SENTINEL
from .registry import Registry
from .replica import Replica, SegmentId, build_cluster
from .selection import Placement, SelectionScheme, form_quorums, select_quorums

__all__ = [
    "MetadataArray",
    "MetadataEntry",
    "Placement",
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
