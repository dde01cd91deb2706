"""Graph-based reranking for content-based image search.

Builds per-query directed image graphs from k-NN rank lists, fuses graphs
from multiple features, and produces refined rankings by greedy
maximum-weight expansion.

The package root exports only what the README's library example uses;
everything else is imported from its submodule.
"""

from .corpus_io import SynthSpec, synth_generate
from .evaluation import evaluate
from .features import build_rank_table
from .graph import GraphParams
from .ranking import rerank

__version__ = "0.1.0"
