"""Binary embedding/token files and the qrels / run TSV formats.

EMB1: magic "EMB1", uint32 count, uint32 dim (little-endian), then
count*dim float32 values, row-major, little-endian.

TOK1: magic "TOK1", uint32 doc count, uint32 token dim, then per document a
uint32 token count followed by its token vectors as float32.

qrels TSV: query_id <TAB> doc_id <TAB> arrival_session, all integers.
run TSV:   query_id <TAB> doc_id <TAB> rank <TAB> score.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .metrics import QrelEntry


class FormatError(ValueError):
    """A file failed structural validation."""


def write_embeddings(path, matrix) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    count, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", count, dim))
        fh.write(matrix.tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes < 12")
    if data[:4] != b"EMB1":
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte 0, expected b'EMB1'")
    count, dim = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * count * dim
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {count}x{dim} floats, got {len(data)}")
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(count, dim).astype(float)


def write_token_docs(path, docs) -> None:
    docs = [np.asarray(d, dtype="<f4") for d in docs]
    if docs and any(d.ndim != 2 or d.shape[1] != docs[0].shape[1] for d in docs):
        raise ValueError("all token documents must share one token dimension")
    dim = docs[0].shape[1] if docs else 0
    with open(path, "wb") as fh:
        fh.write(b"TOK1")
        fh.write(struct.pack("<II", len(docs), dim))
        for d in docs:
            fh.write(struct.pack("<I", d.shape[0]))
            fh.write(d.tobytes(order="C"))


def read_token_docs(path) -> list[np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes < 12")
    if data[:4] != b"TOK1":
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte 0, expected b'TOK1'")
    count, dim = struct.unpack_from("<II", data, 4)
    docs = []
    offset = 12
    for i in range(count):
        if len(data) < offset + 4:
            raise FormatError(f"{path}: truncated at byte {offset} reading doc {i} length")
        (n_tokens,) = struct.unpack_from("<I", data, offset)
        offset += 4
        nbytes = 4 * n_tokens * dim
        if len(data) < offset + nbytes:
            raise FormatError(
                f"{path}: expected {offset + nbytes} bytes through doc {i}, got {len(data)}"
            )
        docs.append(
            np.frombuffer(data, dtype="<f4", count=n_tokens * dim, offset=offset)
            .reshape(n_tokens, dim)
            .astype(float)
        )
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes at byte {offset}")
    return docs


def read_docs(path):
    """Documents by the file's magic: an EMB1 file's embedding rows, or a TOK1 file's token matrices."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in (b"EMB1", b"TOK1"):
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected b'EMB1' or b'TOK1'")
    return read_embeddings(path) if magic == b"EMB1" else read_token_docs(path)


def write_qrels(path, qrels: dict) -> None:
    with open(path, "w") as fh:
        for qid, entry in qrels.items():
            fh.write(f"{qid}\t{entry.doc_id}\t{entry.session}\n")


def read_qrels(path) -> dict:
    qrels = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                qid, doc_id, session = map(int, parts)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: expected 3 integer fields, got {line!r}") from None
            if qid in qrels:  # a query has one relevant document
                raise FormatError(f"{path}:{lineno}: query {qid} is judged on an earlier line too")
            qrels[qid] = QrelEntry(doc_id, session)
    return qrels


def write_run(path, run_scores: dict) -> None:
    """run_scores: query id -> list of (doc_id, score), best first."""
    with open(path, "w") as fh:
        for qid, ranking in run_scores.items():
            for rank, (doc_id, score) in enumerate(ranking, start=1):
                fh.write(f"{qid}\t{doc_id}\t{rank}\t{score:.8g}\n")

