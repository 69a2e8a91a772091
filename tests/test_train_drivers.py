"""Training-driver edge cases: resume, NaN abort, missing prerequisites."""

import numpy as np
import pytest

from flowfuse import cli
from flowfuse.checkpoint import load_checkpoint, load_codec_checkpoint
from flowfuse.config import parse_config


@pytest.fixture()
def tiny_data(tmp_path):
    from flowfuse.synth import generate

    data = tmp_path / "data"
    generate("ivif", 3, 16, seed=1, outdir=data)
    return data


def _cfg(data_dir, **extra):
    text = "\n".join([
        "codec.hidden = 4,6",
        "codec.train_steps = 6",
        "codec.batch = 2",
        "flow.hidden = 8,8",
        "flow.train_steps = 8",
        "flow.batch = 8",
        f"data.dir = {data_dir}",
        *[f"{k} = {v}" for k, v in extra.items()],
    ])
    return parse_config(text)


def test_codec_training_resumes_from_checkpoint(tiny_data, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    cfg = _cfg(tiny_data)
    ckpt = cli.train_codec1(cfg, out, echo=lambda *_: None)
    first = load_checkpoint(ckpt)
    assert int(first["codec.enc.step"]) == 6

    out2 = tmp_path / "run2"
    out2.mkdir()
    cfg2 = _cfg(tiny_data, **{"codec.resume": str(ckpt)})
    ckpt2 = cli.train_codec1(cfg2, out2, echo=lambda *_: None)
    resumed = load_checkpoint(ckpt2)
    assert int(resumed["codec.enc.step"]) == 12  # moments and step carried over


def test_codec2_requires_stage_one_checkpoint(tiny_data, tmp_path):
    cfg = _cfg(tiny_data)
    with pytest.raises(ValueError, match="stage-one"):
        cli.train_codec2(cfg, tmp_path, codec_path=None)


def test_flow_training_on_latents_requires_codec(tiny_data, tmp_path):
    cfg = _cfg(tiny_data)
    with pytest.raises(ValueError, match="codec checkpoint"):
        cli.train_flow(cfg, tmp_path, codec_path=None)


def test_nan_loss_aborts_and_keeps_last_finite_state(tiny_data, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    cfg = _cfg(tiny_data, **{"flow.data": "toy2d"})

    calls = {"n": 0}
    real = cli.rf_loss

    def poisoned(model, x0, eps, tb):
        calls["n"] += 1
        if calls["n"] == 4:
            return float("nan"), {k: np.zeros_like(model.params[k])
                                  for k in model.params.names()}
        return real(model, x0, eps, tb)

    monkeypatch.setattr(cli, "rf_loss", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite"):
        cli.train_flow(cfg, out, echo=lambda *_: None)
    # the params whose loss blew up at call 4 are discarded; the retained state
    # is the last one whose loss evaluated finite (two updates applied)
    kept = load_checkpoint(out / "flow.rffz")
    assert int(kept["flow.params.step"]) == 2
    # loss CSV holds only the finite steps
    assert len((out / "flow_loss.csv").read_text().splitlines()) == 1 + 3


def _poison_fourth_call(monkeypatch, name):
    real = getattr(cli, name)
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise FloatingPointError("non-finite test loss")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, poisoned)


def test_codec_nan_loss_keeps_last_finite_state(tiny_data, tmp_path, monkeypatch):
    # the same rule as the flow stage: the state whose loss blew up at call 4
    # (three updates) is discarded, and the one before it is kept
    out = tmp_path / "run"
    out.mkdir()
    _poison_fourth_call(monkeypatch, "stage1_step")
    with pytest.raises(FloatingPointError, match="step 4: non-finite"):
        cli.train_codec1(_cfg(tiny_data), out, echo=lambda *_: None)
    kept = load_checkpoint(out / "codec1.rffz")
    assert int(kept["codec.enc.step"]) == 2
    assert len((out / "codec1_loss.csv").read_text().splitlines()) == 1 + 3


def test_codec2_nan_loss_keeps_last_finite_state(tiny_data, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    cfg = _cfg(tiny_data)
    stage_one = cli.train_codec1(cfg, out, echo=lambda *_: None)
    _poison_fourth_call(monkeypatch, "stage2_step")
    with pytest.raises(FloatingPointError, match="step 4: non-finite"):
        cli.train_codec2(cfg, out, codec_path=stage_one, echo=lambda *_: None)
    kept = load_checkpoint(out / "codec2.rffz")
    assert int(kept["codec.enc.step"]) == 6  # frozen: stage one's count
    assert int(kept["codec.dec.step"]) == 6 + 2
    assert len((out / "codec2_loss.csv").read_text().splitlines()) == 1 + 3


def test_resumed_codec_matches_architecture(tiny_data, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    cfg = _cfg(tiny_data)
    ckpt = cli.train_codec1(cfg, out, echo=lambda *_: None)
    codec = load_codec_checkpoint(ckpt)
    assert codec.hidden == (4, 6)
    assert codec.latent_channels == 4


def test_training_pairs_a_and_b_files_by_stem_across_formats(tiny_data, tmp_path):
    # A/0000.png pairs with B/0000.pgm, as eval pairs them: one rule for both commands
    from flowfuse.imgio import load_image, save_image

    for pb in sorted((tiny_data / "B").glob("*.png")):
        save_image(pb.with_suffix(".pgm"), load_image(pb))
        pb.unlink()
    pairs = cli._pair_lumas(tiny_data)
    assert len(pairs) == 3
    for (a, b), k in zip(pairs, range(3)):
        assert np.array_equal(a, load_image(tiny_data / "A" / f"{k:04d}.png").pixels)
        assert np.array_equal(b, load_image(tiny_data / "B" / f"{k:04d}.pgm").pixels)
    out = tmp_path / "run"
    out.mkdir()
    cli.train_codec1(_cfg(tiny_data), out, echo=lambda *_: None)
    assert len((out / "codec1_loss.csv").read_text().splitlines()) == 1 + 6
