"""Cluster substrate: machines, slots, data placement, blacklists."""

from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.cluster.blacklist import Blacklist
from repro.cluster.index import ClusterIndex
from repro.cluster.policy import BlacklistPolicy, StrikeBlacklistPolicy
from repro.cluster.elastic import (
    AutoscalerPolicy,
    ElasticController,
    ReactiveAutoscaler,
    ScheduleAutoscaler,
)

__all__ = [
    "Cluster",
    "DataStore",
    "Blacklist",
    "ClusterIndex",
    "BlacklistPolicy",
    "StrikeBlacklistPolicy",
    "AutoscalerPolicy",
    "ElasticController",
    "ReactiveAutoscaler",
    "ScheduleAutoscaler",
]
