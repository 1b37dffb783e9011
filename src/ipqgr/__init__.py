"""Continual-indexing generative retrieval with incremental product quantization."""
