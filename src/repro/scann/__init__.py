"""ScaNN-side substrates for §5.4.3: anisotropic product quantization
(ScaNN's sketch), HNSW, and the combined pipelines (vanilla ScaNN,
K-means+ScaNN, USP+ScaNN). The FAISS IVF-Flat baseline is a
``KMeansPartitioner`` searched through ``candidate_ids`` and ``topk_within``."""
