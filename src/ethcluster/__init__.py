"""Solidity vulnerability detection by clustering, with each cluster labeled
by a majority vote of its members' truth labels.

Pipeline: explorer ingestion with source-only dedup, source normalization,
regex pattern flags, word embeddings, TF-IDF keyword selection, PCA, seeded
k-means, majority-vote cluster labeling, and metrics reports.
"""

__version__ = "0.1.0"
