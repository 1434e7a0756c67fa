"""Every baseline the paper compares against (§5.1.2, §5.4), implemented from
scratch: K-means, cross-polytope LSH, Neural LSH (with a KaHIP-substitute
graph partitioner), Regression LSH, partition trees (2-means / PCA / RP /
learned-KD), and Boosted Search Forest."""
