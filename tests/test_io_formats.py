"""Round-trip and corruption tests for the EMB1/TOK1 and TSV formats."""

import re

import numpy as np
import pytest

from ipqgr.io_formats import (
    FormatError,
    read_docs,
    read_embeddings,
    read_qrels,
    read_token_docs,
    write_embeddings,
    write_qrels,
    write_run,
    write_token_docs,
)
from ipqgr.metrics import QrelEntry


class TestEmbeddings:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embeddings(path, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        mat = read_embeddings(path)
        assert mat.shape == (2, 3)
        assert np.array_equal(mat, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_round_trip_is_bit_identical(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(17, 5)).astype(np.float32)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embeddings(p1, mat)
        write_embeddings(p2, read_embeddings(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "t.emb"
        write_embeddings(path, np.ones((3, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match=r"expected 60 bytes .* got 55"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="bad magic"):
            read_embeddings(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.emb"
        path.write_bytes(b"EMB1\x01")
        with pytest.raises(FormatError, match="truncated header"):
            read_embeddings(path)

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_embeddings(tmp_path / "x.emb", np.zeros(5))


class TestTokenDocs:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        docs = [rng.normal(size=(int(rng.integers(1, 9)), 3)).astype(np.float32) for _ in range(6)]
        path = tmp_path / "docs.tok"
        write_token_docs(path, docs)
        back = read_token_docs(path)
        assert len(back) == 6
        for a, b in zip(docs, back):
            assert np.array_equal(a.astype(float), b)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "t.tok"
        write_token_docs(path, [np.ones((2, 2))])
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_token_docs(path)

    def test_truncated_document(self, tmp_path):
        path = tmp_path / "t.tok"
        write_token_docs(path, [np.ones((4, 2))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="doc 0"):
            read_token_docs(path)

    def test_inconsistent_token_dims_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_token_docs(tmp_path / "x.tok", [np.ones((2, 2)), np.ones((2, 3))])


class TestDocs:
    """A documents file is read by its magic."""

    def test_each_format_is_read_by_its_magic(self, tmp_path):
        rows, tokens = np.arange(6.0).reshape(2, 3), [np.ones((2, 3)), np.zeros((4, 3))]
        write_embeddings(tmp_path / "docs", rows)
        write_token_docs(tmp_path / "docs.emb", tokens)  # the name does not decide
        got_rows, got_tokens = read_docs(tmp_path / "docs"), read_docs(tmp_path / "docs.emb")
        assert type(got_rows) is np.ndarray and got_rows.tobytes() == rows.tobytes()
        assert type(got_tokens) is list and [d.tobytes() for d in got_tokens] == [d.tobytes() for d in tokens]

    @pytest.mark.parametrize("head", [b"TOK2", b"EM", b""])
    def test_an_unknown_magic_names_both_formats(self, tmp_path, head):
        path = tmp_path / "docs.emb"
        path.write_bytes(head + b"\x00" * 20 if len(head) == 4 else head)
        message = f"{path}: bad magic {head!r} at byte 0, expected b'EMB1' or b'TOK1'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_docs(path)

    def test_a_corrupt_file_is_refused_by_its_format(self, tmp_path):
        path = tmp_path / "t.tok"
        write_token_docs(path, [np.ones((2, 2))])
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_docs(path)


class TestQrels:
    def test_round_trip(self, tmp_path):
        qrels = {0: QrelEntry(10, 0), 5: QrelEntry(11, 3), -2: QrelEntry(7, 1)}
        path = tmp_path / "qrels.tsv"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("1\t2\t0\n\n3\t4\t1\n")
        assert read_qrels(path) == {1: QrelEntry(2, 0), 3: QrelEntry(4, 1)}

    def test_a_query_judged_twice_is_refused(self, tmp_path):
        # Metrics score one relevant document per query; the later line used to replace the earlier.
        path = tmp_path / "qrels.tsv"
        path.write_text("3\t7\t0\n3\t9\t0\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: query 3 is judged on an earlier line too$"):
            read_qrels(path)

    @pytest.mark.parametrize("line", ["doc-a\t2\t0", "1\tdoc-a\t0", "1\t2\tx", "1.0\t2\t0"])
    def test_a_field_that_is_not_an_integer_is_refused(self, tmp_path, line):
        # A str id used to be read as one and score as a silent miss; a bad session
        # field raised int()'s message, which named neither the file nor the line.
        path = tmp_path / "qrels.tsv"
        path.write_text(f"1\t2\t0\n{line}\n")
        message = f"{path}:2: expected 3 integer fields, got {line!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_qrels(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("1\t2\t0\n1\t2\n")
        with pytest.raises(FormatError, match=":2:"):
            read_qrels(path)


class TestRun:
    def test_round_trip_of_rankings(self, tmp_path):
        scores = {0: [(7, -0.5), (3, -1.25)], 1: [(2, -0.1)]}
        path = tmp_path / "run.tsv"
        write_run(path, scores)
        assert path.read_text() == "0\t7\t1\t-0.5\n0\t3\t2\t-1.25\n1\t2\t1\t-0.1\n"
