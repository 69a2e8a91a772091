"""End-to-end command checks on a tiny configuration."""

import re

import numpy as np
import pytest

from flowfuse.checkpoint import load_checkpoint, load_codec_checkpoint
from flowfuse.cli import main


TINY_CFG = """
codec.hidden = 6,8
codec.train_steps = 25
codec.batch = 4
codec.lr = 3e-3
flow.hidden = 16,16
flow.train_steps = 40
flow.batch = 16
data.kind = ivif
data.size = 16
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfgfile = root / "tiny.cfg"
    cfgfile.write_text(TINY_CFG + f"data.dir = {root / 'data'}\n")
    assert main(["--seed", "5", "--out", str(root / "data"), "synth",
                 "--kind", "ivif", "--count", "4", "--size", "16"]) == 0
    run = root / "run"
    base = ["--config", str(cfgfile), "--seed", "5", "--out", str(run)]
    assert main(base + ["train", "--stage", "codec1"]) == 0
    assert main(base + ["train", "--stage", "codec2",
                        "--codec", str(run / "codec1.rffz")]) == 0
    assert main(base + ["train", "--stage", "flow",
                        "--codec", str(run / "codec2.rffz")]) == 0
    return root, cfgfile, run


def test_synth_outputs_exist(workspace):
    root, _, _ = workspace
    assert len(list((root / "data" / "A").glob("*.png"))) == 4
    assert (root / "data" / "resolved.cfg").exists()


def test_training_outputs(workspace):
    root, _, run = workspace
    assert (run / "codec1.rffz").exists()
    assert (run / "codec2.rffz").exists()
    assert (run / "flow.rffz").exists()
    # loss CSVs have one row per configured step
    assert len((run / "codec1_loss.csv").read_text().splitlines()) == 1 + 25
    assert len((run / "codec2_loss.csv").read_text().splitlines()) == 1 + 25
    assert len((run / "flow_loss.csv").read_text().splitlines()) == 1 + 40


def test_stage2_keeps_encoder_tensors_bit_equal(workspace):
    _, _, run = workspace
    t1 = load_checkpoint(run / "codec1.rffz")
    t2 = load_checkpoint(run / "codec2.rffz")
    enc_keys = [k for k in t1 if k.startswith("codec.enc.") and not k.endswith(".m")
                and not k.endswith(".v") and not k.endswith(".step")]
    assert enc_keys
    for k in enc_keys:
        assert np.array_equal(t1[k], t2[k]), k


def test_fuse_and_eval(workspace, tmp_path):
    root, cfgfile, run = workspace
    fused_dir = tmp_path / "fused"
    for idx in range(2):
        assert main(["--config", str(cfgfile), "--out", str(fused_dir), "fuse",
                     "--input-a", str(root / "data" / "A" / f"{idx:04d}.png"),
                     "--input-b", str(root / "data" / "B" / f"{idx:04d}.png"),
                     "--codec", str(run / "codec2.rffz"),
                     "--flow", str(run / "flow.rffz"),
                     "--dump-trajectory"]) == 0
    fused = sorted(fused_dir.glob("*_fused.png"))
    assert len(fused) == 2
    assert (fused_dir / "0000_trajectory.rffz").exists()
    evout = tmp_path / "eval"
    assert main(["--out", str(evout), "eval",
                 "--fused", str(fused_dir),
                 "--src-a", str(root / "data" / "A"),
                 "--src-b", str(root / "data" / "B")]) == 0
    lines = (evout / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("name,EN,MI,SF,VIF,SSIM")
    assert len(lines) == 1 + 2 + 1  # header + rows + mean
    assert lines[-1].startswith("mean,")
    # mean row equals column means
    import csv

    rows = list(csv.DictReader(lines))
    for col in ("EN", "MI", "SF"):
        vals = [float(r[col]) for r in rows[:-1]]
        assert abs(float(rows[-1][col]) - np.mean(vals)) < 1e-5


def test_fuse_deterministic_given_seed(workspace, tmp_path):
    root, cfgfile, run = workspace
    outs = []
    for sub in ("f1", "f2"):
        dest = tmp_path / sub
        assert main(["--config", str(cfgfile), "--seed", "9", "--out", str(dest), "fuse",
                     "--input-a", str(root / "data" / "A" / "0000.png"),
                     "--input-b", str(root / "data" / "B" / "0000.png"),
                     "--codec", str(run / "codec2.rffz"),
                     "--flow", str(run / "flow.rffz")]) == 0
        outs.append((dest / "0000_fused.png").read_bytes())
    assert outs[0] == outs[1]


def test_fuse_size_mismatch_hint(workspace, tmp_path):
    root, cfgfile, run = workspace
    from flowfuse.imgio import load_image, save_image
    from flowfuse.image import Image

    img = load_image(root / "data" / "A" / "0000.png")
    small = Image(img.pixels[:8, :8])
    save_image(tmp_path / "small.png", small)
    with pytest.raises(ValueError, match="resize"):
        main(["--config", str(cfgfile), "--out", str(tmp_path / "x"), "fuse",
              "--input-a", str(tmp_path / "small.png"),
              "--input-b", str(root / "data" / "B" / "0000.png"),
              "--codec", str(run / "codec2.rffz"),
              "--flow", str(run / "flow.rffz")])


@pytest.mark.parametrize("size_a, size_b, match", [
    (8, 16, "input sizes differ: 8x8 vs 16x16"),
    (14, 14, "image extents must be divisible by 4, got 14x14"),
    (8, 8, "flow checkpoint expects latent dim 64, inputs give 16"),
], ids=["differing sizes", "not divisible by 4", "latent dim"])
def test_fuse_shape_errors_name_both_inputs(workspace, tmp_path, size_a, size_b, match):
    import re

    root, cfgfile, run = workspace
    from flowfuse.image import Image
    from flowfuse.imgio import load_image, save_image

    paths = []
    for side, size in (("A", size_a), ("B", size_b)):
        img = load_image(root / "data" / side / "0000.png")
        paths.append(tmp_path / f"{side}{size}.png")
        save_image(paths[-1], Image(img.pixels[:size, :size]))
    want = f"fusing {re.escape(str(paths[0]))} with {re.escape(str(paths[1]))}: {match}"
    with pytest.raises(ValueError, match=want):
        main(["--config", str(cfgfile), "--out", str(tmp_path / "x"), "fuse",
              "--input-a", str(paths[0]), "--input-b", str(paths[1]),
              "--codec", str(run / "codec2.rffz"),
              "--flow", str(run / "flow.rffz")])


def test_eval_reports_missing_counterparts(workspace, tmp_path, capsys):
    root, _, _ = workspace
    fused_dir = tmp_path / "lonely"
    fused_dir.mkdir()
    from flowfuse.imgio import load_image, save_image

    save_image(fused_dir / "zzzz.png", load_image(root / "data" / "A" / "0000.png"))
    save_image(fused_dir / "0000.png", load_image(root / "data" / "A" / "0000.png"))
    assert main(["--out", str(tmp_path / "ev"), "eval",
                 "--fused", str(fused_dir),
                 "--src-a", str(root / "data" / "A"),
                 "--src-b", str(root / "data" / "B")]) == 0
    err = capsys.readouterr().err
    assert "zzzz" in err


def test_eval_pairs_pnm_triples(workspace, tmp_path, capsys):
    root, _, _ = workspace
    from flowfuse.imgio import load_image, save_image

    dirs = {k: tmp_path / k for k in ("fused", "A", "B")}
    for d in dirs.values():
        d.mkdir()
    save_image(dirs["fused"] / "0000_fused.pnm", load_image(root / "data" / "A" / "0000.png"))
    for side in ("A", "B"):
        save_image(dirs[side] / "0000.pnm", load_image(root / "data" / side / "0000.png"))
    evout = tmp_path / "ev"
    assert main(["--out", str(evout), "eval", "--fused", str(dirs["fused"]),
                 "--src-a", str(dirs["A"]), "--src-b", str(dirs["B"])]) == 0
    assert "without counterparts" not in capsys.readouterr().err
    assert len((evout / "metrics.csv").read_text().splitlines()) == 1 + 1 + 1


def test_eval_strips_only_the_trailing_fused_suffix(workspace, tmp_path, capsys):
    # x_fused_y_fused.png is the fused image of the sources x_fused_y.png
    root, _, _ = workspace
    from flowfuse.imgio import load_image, save_image

    dirs = {k: tmp_path / k for k in ("fused", "A", "B")}
    for d in dirs.values():
        d.mkdir()
    save_image(dirs["fused"] / "x_fused_y_fused.png", load_image(root / "data" / "A" / "0000.png"))
    for side in ("A", "B"):
        save_image(dirs[side] / "x_fused_y.png", load_image(root / "data" / side / "0000.png"))
    evout = tmp_path / "ev"
    assert main(["--out", str(evout), "eval", "--fused", str(dirs["fused"]),
                 "--src-a", str(dirs["A"]), "--src-b", str(dirs["B"])]) == 0
    assert "without counterparts" not in capsys.readouterr().err
    rows = (evout / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + 1 + 1 and rows[1].startswith("x_fused_y_fused,")


def test_eval_misaligned_triple_names_the_files_and_sizes(workspace, tmp_path):
    import re

    root, _, _ = workspace
    from flowfuse.image import Image
    from flowfuse.imgio import load_image, save_image

    dirs = {k: tmp_path / k for k in ("fused", "A", "B")}
    for d in dirs.values():
        d.mkdir()
    fused, a, b = dirs["fused"] / "0000_fused.png", dirs["A"] / "0000.png", dirs["B"] / "0000.png"
    save_image(fused, load_image(root / "data" / "A" / "0000.png"))
    save_image(a, Image(np.zeros((32, 36))))
    save_image(b, load_image(root / "data" / "B" / "0000.png"))
    want = (rf"evaluating {re.escape(str(fused))} \(16x16\) against {re.escape(str(a))} "
            rf"\(32x36\) and {re.escape(str(b))} \(16x16\): the fused image and its "
            "sources must share one size")
    with pytest.raises(ValueError, match=want):
        main(["--out", str(tmp_path / "ev"), "eval", "--fused", str(dirs["fused"]),
              "--src-a", str(dirs["A"]), "--src-b", str(dirs["B"])])


def test_bench_table(workspace, tmp_path):
    _, cfgfile, run = workspace
    out = tmp_path / "bench"
    assert main(["--config", str(cfgfile), "--out", str(out), "bench",
                 "--codec", str(run / "codec2.rffz"),
                 "--flow", str(run / "flow.rffz"),
                 "--steps", "1,4,8", "--runs", "5"]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + one row per step count
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "runtime_s,sf,ag,steps"
    assert len(scatter) == 1 + 3


def test_bench_rejects_a_data_size_the_flow_checkpoint_was_not_trained_at(workspace, tmp_path):
    # the flow was trained at 16 px (latent dim 64); 32 px gives dim 256
    root, _, run = workspace
    cfgfile = tmp_path / "size32.cfg"
    cfgfile.write_text(TINY_CFG.replace("data.size = 16", "data.size = 32"))
    flow = run / "flow.rffz"
    want = (r"data.size = 32 gives latent dim 256, but the flow checkpoint "
            rf"{re.escape(str(flow))} expects 64")
    with pytest.raises(ValueError, match=want):
        main(["--config", str(cfgfile), "--out", str(tmp_path / "b"), "bench",
              "--codec", str(run / "codec2.rffz"), "--flow", str(flow), "--steps", "1"])


@pytest.mark.parametrize("steps", ["0", "1,x", "2,-1", ""])
def test_bench_rejects_bad_step_counts_naming_the_flag(workspace, tmp_path, steps):
    _, cfgfile, run = workspace
    with pytest.raises(ValueError, match=rf"--steps '{re.escape(steps)}'"):
        main(["--config", str(cfgfile), "--out", str(tmp_path / "b"), "bench",
              "--codec", str(run / "codec2.rffz"), "--flow", str(run / "flow.rffz"),
              "--steps", steps])


@pytest.mark.parametrize("runs", ["4", "2", "-3"])
def test_bench_rejects_fewer_than_five_runs_naming_the_flag(workspace, tmp_path, runs):
    _, cfgfile, run = workspace
    with pytest.raises(ValueError, match=rf"--runs {runs}: at least 5"):
        main(["--config", str(cfgfile), "--out", str(tmp_path / "b"), "bench",
              "--codec", str(run / "codec2.rffz"), "--flow", str(run / "flow.rffz"),
              "--steps", "1", "--runs", runs])


def _degenerate_flow_ckpt(path, dim, c=0.0):
    """MLP checkpoint realizing a constant-velocity field: zero weights, output
    bias c. Used for the degenerate-case pipeline examples."""
    from flowfuse.checkpoint import save_flow_checkpoint
    from flowfuse.flow import VelocityModel

    model = VelocityModel.mlp(dim, hidden=(4,), seed=0)
    for k in model.params.names():
        model.params.params[k][:] = 0.0
    model.params.params["b1"][:] = c
    save_flow_checkpoint(path, model)


def test_fuse_rho_zero_equals_codec_roundtrip(workspace, tmp_path):
    # with a zero velocity field and rho = 0, the pipeline reduces exactly to
    # decode(encode(visible))
    root, _, run = workspace
    from flowfuse.checkpoint import load_codec_checkpoint
    from flowfuse.cli import fuse_images
    from flowfuse.codec import decode, encode
    from flowfuse.config import parse_config
    from flowfuse.checkpoint import load_flow_checkpoint
    from flowfuse.image import luma
    from flowfuse.imgio import load_image

    img_a = load_image(root / "data" / "A" / "0000.png")
    img_b = load_image(root / "data" / "B" / "0000.png")
    codec = load_codec_checkpoint(run / "codec2.rffz")
    dim = 4 * (img_b.height // 4) * (img_b.width // 4)
    _degenerate_flow_ckpt(tmp_path / "zero.rffz", dim)
    model = load_flow_checkpoint(tmp_path / "zero.rffz")
    cfg = parse_config("guidance.rho = 0\nflow.steps = 1\n")
    fused, _, _ = fuse_images(img_a, img_b, codec, model, cfg)
    roundtrip = decode(codec, encode(codec, luma(img_b)))
    assert np.array_equal(fused.pixels, roundtrip.pixels)


def test_fuse_step_count_invariant_for_constant_field(workspace, tmp_path):
    root, cfgfile, run = workspace
    from flowfuse.checkpoint import load_codec_checkpoint, load_flow_checkpoint
    from flowfuse.cli import fuse_images
    from flowfuse.config import parse_config
    from flowfuse.imgio import load_image

    img_a = load_image(root / "data" / "A" / "0001.png")
    img_b = load_image(root / "data" / "B" / "0001.png")
    codec = load_codec_checkpoint(run / "codec2.rffz")
    dim = 4 * (img_b.height // 4) * (img_b.width // 4)
    _degenerate_flow_ckpt(tmp_path / "const.rffz", dim, c=0.05)
    model = load_flow_checkpoint(tmp_path / "const.rffz")
    outs = []
    for steps in (1, 100):
        cfg = parse_config(f"guidance.rho = 0\nflow.steps = {steps}\n")
        outs.append(fuse_images(img_a, img_b, codec, model, cfg)[0].pixels)
    assert np.abs(outs[0] - outs[1]).max() < 1e-12


def test_synth_with_a_negative_count_exits_non_zero_naming_the_key(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import flowfuse

    src = str(Path(flowfuse.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "flowfuse.cli", "--out", str(tmp_path / "o"),
                          "synth", "--count", "-3", "--size", "16"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode != 0
    assert "data.count must be a finite number >= 1, got -3" in run.stderr
    assert not (tmp_path / "o").exists()


def test_synth_with_a_size_not_divisible_by_4_exits_non_zero_naming_the_key(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import flowfuse

    src = str(Path(flowfuse.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "flowfuse.cli", "--out", str(tmp_path / "o"),
                          "synth", "--count", "1", "--size", "6"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode != 0
    assert "bad value for data.size: must be a multiple of 4, got 6" in run.stderr
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_fails_with_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("flow.stepz = 3\n")
    from flowfuse.config import ConfigError

    with pytest.raises(ConfigError, match="line 1"):
        main(["--config", str(bad), "--out", str(tmp_path / "o"), "synth",
              "--count", "1", "--size", "16"])
