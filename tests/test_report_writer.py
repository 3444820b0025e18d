"""The one writer: `emit` hands a report to `--out` or stdout through
`_write`, one write per part of the encoder, so no single write holds
the whole report and no join of it is made.

The peak is measured, not assumed: a writer that joins the parts, or
encodes the whole text into one `bytes` object before writing it, raises
the traced heap by the report's size.
"""

import hashlib
import json
import tracemalloc

from plovkit import cli
from plovkit.cli import enc_matrix, main
from plovkit.randgen import paired_unipotent

#: `plovkit model` on paired [5] with the standard form: 4,135,409 bytes
PAIRED_5_SHA256 = "c5ac921db30c3a0cfebfd9ce13a24d55818c83518de0560b5adc9b9d07e04035"


class Recorder:
    def __init__(self):
        self.writes, self.flushes = [], 0

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        self.flushes += 1


def test_write_hands_each_text_over_as_it_is():
    long = "".join(str(i % 10) for i in range(600_000))
    texts = ["{", long, "x" * 1000, "", "\n"]
    stream = Recorder()
    cli._write(stream, *texts)
    # one write per text, short or long, of the text itself and in order
    assert len(stream.writes) == len(texts)
    assert all(w is t for w, t in zip(stream.writes, texts))
    assert stream.flushes == 1


def test_emit_raises_the_heap_by_under_a_quarter_of_the_report(tmp_path, monkeypatch):
    # tracing starts once the report is encoded, so the peak it records is
    # what emit (and the summary after it) allocate on top of the text
    real_encode = cli.encode_report

    def encode_then_trace(report):
        text = real_encode(report)
        tracemalloc.start()
        return text

    monkeypatch.setattr(cli, "encode_report", encode_then_trace)
    path = tmp_path / "paired5.json"
    path.write_text(json.dumps({"matrix": enc_matrix(paired_unipotent([5]))}))
    out = tmp_path / "report.json"
    try:
        code = main(["model", "--input", str(path), "--out", str(out)])
        rise = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PAIRED_5_SHA256
    # one copy of the report is its size, 4.1 MB; writing the encoder's
    # parts as they are keeps the rise near 0.06 MB
    assert rise < len(data) / 4


def test_encoding_and_writing_hold_one_copy_of_the_report(tmp_path, monkeypatch):
    # tracing starts just before the real encoder runs and goes on through
    # emit, so the peak it records holds the parts and whatever the write
    # path copies of them; a join of the whole text would double it
    real_encode = cli.encode_report

    def trace_then_encode(report):
        tracemalloc.start()
        return real_encode(report)

    monkeypatch.setattr(cli, "encode_report", trace_then_encode)
    path = tmp_path / "paired5.json"
    path.write_text(json.dumps({"matrix": enc_matrix(paired_unipotent([5]))}))
    out = tmp_path / "report.json"
    try:
        code = main(["model", "--input", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PAIRED_5_SHA256
    # the parts alone come to about the report's size, 4.1 MB
    assert peak < 1.5 * len(data)
