from pathlib import Path

import pytest

from flowfuse.config import SCHEMA, ConfigError, parse_config


def test_defaults_filled():
    cfg = parse_config()
    assert cfg["flow.steps"] == 1
    assert cfg["guidance.rho"] == 0.5
    assert cfg["guidance.grad_mode"] == "full-vjp"
    assert cfg["codec.lambda_fre"] == 0.1


def test_parse_values_and_comments():
    cfg = parse_config(
        """
        # sampler
        flow.steps = 10
        guidance.rho = 1.25   # inline comment
        data.kind = mef
        """
    )
    assert cfg["flow.steps"] == 10
    assert cfg["guidance.rho"] == 1.25
    assert cfg["data.kind"] == "mef"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3.*guidance.rh0"):
        parse_config("flow.steps = 1\n\nguidance.rh0 = 2\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("flow.steps = many\n")


def test_choice_validation():
    with pytest.raises(ConfigError, match="one of"):
        parse_config("guidance.schedule = quadratic\n")


def test_overrides_and_dump_roundtrip():
    cfg = parse_config("flow.steps = 3\n", overrides={"guidance.rho": "2.0"})
    assert cfg["guidance.rho"] == 2.0
    again = parse_config(cfg.dump())
    assert again.values == cfg.values


def test_hidden_pair_parser():
    cfg = parse_config("codec.hidden = 8,16\n")
    assert cfg.hidden_pair("codec.hidden") == (8, 16)
    with pytest.raises(ConfigError):
        parse_config("codec.hidden = 8\n").hidden_pair("codec.hidden")


def test_override_choice_validation_names_key():
    with pytest.raises(ConfigError, match="override flow.start.*one of"):
        parse_config(overrides={"flow.start": "sideways"})


def test_override_bad_value_names_key():
    with pytest.raises(ConfigError, match="override flow.steps = 'abc'.*bad value for flow.steps"):
        parse_config(overrides={"flow.steps": "abc"})


@pytest.mark.parametrize("key,val,why", [
    ("flow.steps", "0", ">= 1, got 0"),
    ("codec.batch", "-3", ">= 1, got -3"),
    ("codec.lr", "nan", "> 0, got nan"),
    ("flow.time_eps", "1.5", ">= 0 and < 1, got 1.5"),
    ("flow.time_eps", "1", ">= 0 and < 1, got 1.0"),
    ("flow.time_eps", "-0.5", ">= 0 and < 1, got -0.5"),
    ("data.count", "-3", ">= 1, got -3"),
    ("data.size", "0", ">= 1, got 0"),
])
def test_out_of_range_values_rejected_in_files_and_overrides(key, val, why):
    with pytest.raises(ConfigError, match=f"line 2: {key} must be a finite number {why}"):
        parse_config(f"run.seed = 1\n{key} = {val}\n")
    with pytest.raises(ConfigError, match=f"override {key} = '{val}': {key} must be .*{why}"):
        parse_config(overrides={key: val})


def test_data_size_must_be_a_multiple_of_4():
    # the codec downsamples 4x, so any other side fails later, in synth or encode
    with pytest.raises(ConfigError, match="line 1: bad value for data.size: must be a multiple "
                                          "of 4, got 6"):
        parse_config("data.size = 6\n")
    with pytest.raises(ConfigError, match="override data.size = '6': bad value for data.size"):
        parse_config(overrides={"data.size": "6"})
    assert parse_config(overrides={"data.size": "8"})["data.size"] == 8


def test_range_edges_accepted():
    cfg = parse_config("guidance.rho = 0\ncodec.lambda_color = 0\nflow.steps = 1\n"
                       "flow.time_eps = 0\n",
                       overrides={"flow.lr": "1e-9", "guidance.em_iters": "1"})
    assert (cfg["guidance.rho"], cfg["flow.steps"], cfg["flow.lr"]) == (0.0, 1, 1e-9)
    assert cfg["flow.time_eps"] == 0.0
    assert parse_config(overrides={"flow.time_eps": "0.999"})["flow.time_eps"] == 0.999
    for key, val in (("guidance.rho", "-0.1"), ("codec.lambda_mask", "inf"), ("flow.lr", "0")):
        with pytest.raises(ConfigError, match=key):
            parse_config(overrides={key: val})


def test_every_schema_key_is_used_outside_config():
    # a key that no code names changes nothing; codec.lambda_color weighs no
    # term but stays while perfbench's train-32 config sets it (ROADMAP item 1)
    src = Path(__file__).resolve().parents[1] / "src" / "flowfuse"
    code = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unused = [k for k in SCHEMA if f'"{k}"' not in code]
    assert unused == ["codec.lambda_color"]
