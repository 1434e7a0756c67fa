"""ScaNN-side substrates for §5.4.3: anisotropic product quantization
(ScaNN's sketch), HNSW, and the combined pipelines (vanilla ScaNN,
K-means+ScaNN, USP+ScaNN). The FAISS IVF-Flat baseline is a
``KMeansPartitioner`` searched through ``candidate_ids`` and ``topk_within``."""
from repro.scann.avq import AnisotropicPQ
from repro.scann.hnsw import HNSW
from repro.scann.pipelines import ScannPipeline, run_pipeline_sweep

__all__ = ["AnisotropicPQ", "HNSW", "ScannPipeline", "run_pipeline_sweep"]
