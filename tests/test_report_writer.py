"""The one writer: `emit` hands a report to `--out` or stdout through
`_write`, one write per part of the encoder.  The text outside the scan
listings is one string, so a report with no scan goes out in one write,
and a scan listing goes out block by block, so no write and no join
holds a whole listing.

The peak is measured, not assumed: a writer that joins the parts, or
encodes the whole text into one `bytes` object before writing it, raises
the traced heap by the report's size.  The text outside the listings is
built by joins, which copy it at each level: on a report with no scan
(`powersum` on a 26 x 26 block, 0.9 MB) the traced heap from the start
of encoding peaks at 3.0 times the report's size.
"""

import hashlib
import json
import sys
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


def _record_run(tmp_path, monkeypatch, command, shape):
    """The writes of `plovkit command` on paired `shape` to stdout."""
    path = tmp_path / "paired.json"
    path.write_text(json.dumps({"matrix": enc_matrix(paired_unipotent(shape))}))
    stream = Recorder()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main([command, "--input", str(path)]) == 0
    assert stream.flushes == 1
    json.loads("".join(stream.writes))
    return stream.writes


def test_a_report_with_no_scan_goes_out_in_one_write(tmp_path, monkeypatch):
    writes = _record_run(tmp_path, monkeypatch, "analyze", [3, 2])
    assert len(writes) == 2
    assert writes[0].startswith("{") and writes[0].endswith("}")
    assert writes[1] == "\n"


def test_a_scan_listing_goes_out_between_the_texts_around_it(tmp_path, monkeypatch):
    writes = _record_run(tmp_path, monkeypatch, "model", [3, 1, 1, 1])
    # the first write ends where the listing starts, and the last two are
    # the text after it and the newline; the listing is its blocks
    assert writes[0].endswith('"scanned": ')
    assert writes[1].startswith("[")
    assert writes[-3].endswith("]")
    assert writes[-2].startswith(",") and '"violations"' in writes[-2]
    assert writes[-1] == "\n"
    assert len(writes) > 100


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
