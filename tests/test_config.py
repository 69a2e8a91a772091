import pytest

from flowfuse.config import ConfigError, parse_config


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
