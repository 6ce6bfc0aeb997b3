import pytest

from intrinsics import layers, verify


@pytest.mark.parametrize("kind", verify.CORRUPTIBLE)
def test_corrupted_backward_fails_naming_layer(kind, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", [s for s in verify.SUITES
                                           if s[0] == "layer-gradients"])
    before = dict(vars(layers))
    [(name, passed, detail)] = verify.run_all(corrupt=kind)
    assert (name, passed) == ("layer-gradients", False)
    assert f"{kind} backward" in detail
    assert dict(vars(layers)) == before  # the corruption is undone


def test_unknown_corruption_target_rejected():
    with pytest.raises(ValueError, match="unknown corruption target"):
        verify.run_all(corrupt="softmax")
