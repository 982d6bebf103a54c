"""Spatial-spectral resource allocation for cell-free sub-THz networks
built on frequency-steered leaky-wave apertures."""

from .antenna import AntennaParams, gain, peak_frequency
from .cegmm import (CeHyperparams, Gmm, InfeasibleBand, QosConfig,
                    SubchannelPlan, allocate, bic, em_fit)
from .cluster_alloc import ClusterPlan, allocate_clustered, greedy_assign
from .clustering import (Clustering, affinity_propagation, associate_ues,
                         hierarchical_clustering, kmeans_clustering)
from .config import load_config
from .harness import (ExperimentConfig, equal_bandwidth_baseline,
                      run_experiment)
from .mimo import SingularChannel, received_strength_psd
from .scenario import Scenario, ScenarioConfig, generate_scenario

__version__ = "0.1.0"

__all__ = [
    "AntennaParams", "gain", "peak_frequency",
    "CeHyperparams", "Gmm", "InfeasibleBand", "QosConfig", "SubchannelPlan",
    "allocate", "bic", "em_fit",
    "ClusterPlan", "allocate_clustered", "greedy_assign",
    "Clustering", "affinity_propagation", "associate_ues",
    "hierarchical_clustering", "kmeans_clustering",
    "load_config",
    "ExperimentConfig", "equal_bandwidth_baseline", "run_experiment",
    "SingularChannel", "received_strength_psd",
    "Scenario", "ScenarioConfig", "generate_scenario",
]
