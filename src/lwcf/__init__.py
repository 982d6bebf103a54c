"""Spatial-spectral resource allocation for cell-free sub-THz networks
built on frequency-steered leaky-wave apertures."""

from .antenna import AntennaParams, gain, peak_frequency
from .cegmm import (CeHyperparams, Gmm, InfeasibleBand, QosConfig,
                    SubchannelPlan, allocate, bandwidth_search, bic, em_fit,
                    resolve_overlaps)
from .cluster_alloc import ClusterPlan, allocate_clustered, greedy_assign
from .clustering import (Clustering, affinity_propagation, associate_ues,
                         hierarchical_clustering, kmeans_clustering)
from .config import load_config
from .harness import (ExperimentConfig, equal_bandwidth_baseline,
                      run_experiment)
from .mimo import (ChannelMatrix, PrecodingMatrix, SingularChannel,
                   build_channel, cluster_subchannel_reward, precode,
                   rate_density, received_strength_psd, sinr)
from .scenario import Scenario, ScenarioConfig, generate_scenario, subscenario

__version__ = "0.1.0"

__all__ = [
    "AntennaParams", "gain", "peak_frequency",
    "CeHyperparams", "Gmm", "InfeasibleBand", "QosConfig", "SubchannelPlan",
    "allocate", "bandwidth_search", "bic", "em_fit", "resolve_overlaps",
    "ClusterPlan", "allocate_clustered", "cluster_subchannel_reward",
    "greedy_assign",
    "Clustering", "affinity_propagation", "associate_ues",
    "hierarchical_clustering", "kmeans_clustering",
    "load_config",
    "ExperimentConfig", "equal_bandwidth_baseline", "run_experiment",
    "ChannelMatrix", "PrecodingMatrix", "SingularChannel", "build_channel",
    "precode", "rate_density", "received_strength_psd", "sinr",
    "Scenario", "ScenarioConfig", "generate_scenario", "subscenario",
]
