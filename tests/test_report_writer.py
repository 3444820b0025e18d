"""The one writer: `emit` hands a report to `--out` or stdout through
`_write`, in slices of at most `cli._SLICE` characters, so no stream
encodes a copy of the whole report at once.

The peak is measured, not assumed: a writer that encodes the whole text
into one `bytes` object before writing it raises the traced heap by the
report's size while `emit` runs.
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


def test_write_hands_a_long_text_over_in_slices():
    size = cli._SLICE
    long = "".join(str(i % 10) for i in range(2 * size + size // 2 + 3))
    short = "x" * size
    stream = Recorder()
    cli._write(stream, long, short, "\n")
    assert [len(w) for w in stream.writes] == [size, size, size // 2 + 3, size, 1]
    assert "".join(stream.writes) == long + short + "\n"
    # a text of at most one slice is written as it is, not copied
    assert stream.writes[3] is short
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
    # one copy of the report is its size, 4.1 MB; slices of 256 KiB keep
    # the rise near 0.5 MB
    assert rise < len(data) / 4
