"""The benchmark's tracer (perfbench/spans.py) must still see every layer.

The tracer wraps the layer functions under their names in
``intrinsics.network`` and maps each conv call to a named layer through the
identity of its ``spec`` argument.  A refactor that binds the layer
functions some other way would leave every other test green while the
per-layer benchmark numbers read "unknown"; this test catches that.
"""

import importlib.util
from pathlib import Path

import intrinsics.cli as cli
from conftest import write_config, write_dataset

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_a_training_run(tmp_path):
    spans = load_spans()
    manifest = write_dataset(tmp_path / "data")
    cfg = write_config(tmp_path / "run.cfg", manifest, tmp_path / "out",
                       max_iterations=2, dropout=0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()

    seen = {s[spans.NAME] for s in tracer.spans}
    wanted = [f"layers.{f}" for f in spans.LAYER_FUNCS] + ["network.backward"]
    assert [name for name in wanted if name not in seen] == []
    conv_layers = {tracer.attrs[i]["layer"] for i, s in enumerate(tracer.spans)
                   if s[spans.NAME].removeprefix("layers.") in spans.CONV_FUNCS}
    assert conv_layers == set(spans.NET_LAYERS)
