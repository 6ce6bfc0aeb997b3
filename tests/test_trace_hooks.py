"""The benchmark's tracer (perfbench/spans.py) must still see every layer.

The tracer wraps the layer functions under their names in
``intrinsics.network`` and maps each conv call to a named layer through the
identity of its ``spec`` argument.  A refactor that binds the layer
functions some other way would leave every other test green while the
per-layer benchmark numbers read "unknown"; this test catches that.

PNG reads are wrapped at ``intrinsics.cli.read_png`` (the ``decompose``
input and ``eval``'s predictions) and ``intrinsics.data.read_png`` (the
ground truth), writes at ``intrinsics.cli.write_png``.  A codec refactor
that rebinds either name would turn the benchmark's read or write metrics
into 0; the second test catches that.
"""

import importlib.util
from pathlib import Path

import pytest

import intrinsics.cli as cli
from conftest import write_config, write_dataset

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("deconv", [True, False], ids=["deconv", "bilinear"])
def test_tracer_sees_every_layer_of_a_training_run(tmp_path, deconv):
    """A bilinear-head run has no deconv layer; its predictors' convs, each
    with its x4 upsample in the same step, still file under their names."""
    spans = load_spans()
    manifest = write_dataset(tmp_path / "data")
    cfg = write_config(tmp_path / "run.cfg", manifest, tmp_path / "out",
                       max_iterations=2, dropout=0.5, use_deconv_head=deconv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()

    seen = {s[spans.NAME] for s in tracer.spans}
    wanted = [f"layers.{f}" for f in spans.LAYER_FUNCS
              if deconv or not f.startswith("deconv")] + ["network.backward"]
    assert [name for name in wanted if name not in seen] == []
    conv_layers = {tracer.attrs[i]["layer"] for i, s in enumerate(tracer.spans)
                   if s[spans.NAME].removeprefix("layers.") in spans.CONV_FUNCS}
    assert conv_layers == {layer for layer in spans.NET_LAYERS
                           if deconv or not layer.endswith(".deconv")}


def test_tracer_sees_png_reads_and_writes_of_decompose_and_eval(tmp_path):
    spans = load_spans()
    manifest = write_dataset(tmp_path / "data", n=2)
    cfg = write_config(tmp_path / "run.cfg", manifest, tmp_path / "out",
                       max_iterations=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ck = tmp_path / "out" / "checkpoint_000001.ckpt"
    pred = tmp_path / "pred"
    pred.mkdir()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for sid in ("s0", "s1"):
            assert cli.main(["decompose", "--checkpoint", str(ck),
                             "--input", str(tmp_path / "data" / f"{sid}_i.png"),
                             "--out-albedo", str(pred / f"{sid}_albedo.png"),
                             "--out-shading", str(pred / f"{sid}_shading.png")]) == 0
        assert cli.main(["eval", "--pred-dir", str(pred), "--manifest", str(manifest),
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()

    def paths(name):
        return [Path(tracer.attrs[i]["path"]).name
                for i, s in enumerate(tracer.spans) if s[spans.NAME] == name]

    reads = paths("png_io.read_png")
    assert "s0_i.png" in reads  # the decompose input, through cli.read_png
    assert {"s0_a.png", "s0_s.png", "s1_a.png", "s1_s.png"} <= set(reads)  # data.read_png
    assert {"s0_albedo.png", "s1_shading.png"} <= set(reads)  # eval's predictions
    writes = [i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "png_io.write_png"]
    assert len(writes) == 4
    assert all(tracer.attrs[i]["bytes"] == 32 * 32 * 3 * 2 for i in writes)
