"""Graph-based reranking for content-based image search.

Builds per-query directed image graphs from k-NN rank lists, fuses graphs
from multiple features, and produces refined rankings by greedy
maximum-weight expansion.
"""

from .corpus_io import (
    FeatureMatrix,
    FormatError,
    GroundTruth,
    RankTable,
    SynthSpec,
    load_feature_matrix,
    load_ground_truth,
    load_rank_table,
    save_feature_matrix,
    save_ground_truth,
    save_rank_table,
    synth_generate,
)
from .evaluation import MetricReport, average_precision, evaluate, ns_score, sweep_k
from .features import (
    RawImage,
    build_rank_table,
    hsv_histogram,
    load_ppm,
    normalize_histogram,
)
from .fusion import fuse
from .graph import (
    GraphParams,
    ImageGraph,
    build_directed_graph,
    build_undirected_graph,
    jaccard_weight,
    rank_of,
    rank_weight,
    reciprocal,
)
from .ranking import RankedList, greedy_rank, rerank

__version__ = "0.1.0"
