"""Configuration parsing, validation and override tests."""

import pytest

from pointfuse.config import (
    ConfigError,
    EvalSettings,
    NetworkConfig,
    RunConfig,
    TrainSettings,
    apply_override,
    flatten_config,
    load_config,
    parse_config,
)

from formats import serialize_config


def test_default_configs_validate():
    RunConfig().validate()
    full = RunConfig(net=NetworkConfig())
    full.scene.image_height = 384
    full.scene.image_width = 1280
    full.validate()
    assert NetworkConfig().stride == 4
    assert NetworkConfig.desk().stride == 4


def test_network_validation_catches_inconsistencies():
    bad = NetworkConfig.desk()
    bad.image_width = 65  # not divisible by stride
    with pytest.raises(ConfigError):
        bad.validate()

    bad = NetworkConfig.desk()
    bad.raw_stages = (64, 32, 32, 8)  # not strictly decreasing
    with pytest.raises(ConfigError):
        bad.validate()

    bad = NetworkConfig.desk()
    bad.l_group = 9  # exceeds the smallest stage (8)
    with pytest.raises(ConfigError):
        bad.validate()

    bad = NetworkConfig.desk()
    bad.n_raw = 512  # exceeds the foreground pool
    with pytest.raises(ConfigError):
        bad.validate()

    bad = NetworkConfig.desk()
    bad.attn_down = "sideways"
    with pytest.raises(ConfigError):
        bad.validate()

    bad = NetworkConfig.desk()
    bad.score_threshold = 1.5
    with pytest.raises(ConfigError):
        bad.validate()


def test_train_and_eval_validation():
    with pytest.raises(ConfigError):
        TrainSettings(lr=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainSettings(beta1=1.0).validate()
    with pytest.raises(ConfigError):
        EvalSettings(overlap="iou").validate()
    with pytest.raises(ConfigError):
        EvalSettings(max_difficulty=5).validate()


@pytest.mark.parametrize("key,value", [
    ("lambda_depth", -1.0), ("lambda_rpn", -0.5), ("lambda_residual", -1e-9),
    ("lambda_reg", float("nan")), ("lambda_vote", -2.0), ("focal_gamma", -3.0),
    ("focal_alpha", -0.1), ("focal_alpha", 1.5)])
def test_loss_weight_validation_names_the_key(key, value):
    cfg = RunConfig()
    setattr(cfg.loss, key, value)
    with pytest.raises(ConfigError, match=f"loss.{key}"):
        cfg.validate()


def test_loss_weights_accept_their_boundaries():
    cfg = RunConfig()
    for key in ("lambda_depth", "lambda_rpn", "lambda_residual", "lambda_reg", "lambda_vote",
                "focal_gamma", "focal_alpha"):
        setattr(cfg.loss, key, 0.0)
    cfg.validate()
    cfg.loss.focal_alpha = 1.0
    cfg.validate()


def test_scene_and_net_rasters_must_match():
    cfg = RunConfig()
    cfg.scene.image_width = 128
    with pytest.raises(ConfigError, match="raster"):
        cfg.validate()


def test_overrides_parse_types():
    cfg = RunConfig()
    apply_override(cfg, "train.lr", "0.005")
    apply_override(cfg, "train.steps", "50")
    apply_override(cfg, "net.pft_final", "false")
    apply_override(cfg, "net.attn_fusion", "subtract")
    apply_override(cfg, "net.stage_channels", "[12, 16, 20, 24]")
    apply_override(cfg, "scene.x_range", "[12.0, 30.0]")
    assert cfg.train.lr == 0.005
    assert cfg.train.steps == 50
    assert cfg.net.pft_final is False
    assert cfg.net.stage_channels == (12, 16, 20, 24)
    assert cfg.scene.x_range == (12.0, 30.0)
    cfg.validate()


def test_overrides_reject_bad_keys_and_types():
    cfg = RunConfig()
    for key, value in [
        ("net.does_not_exist", "1"),
        ("nonsense", "1"),
        ("nope.lr", "0.1"),
        ("train.lr", "fast"),          # float field, string value
        ("train.steps", "0.5"),        # int field, float value
        ("net.pft_final", "1"),        # bool field, int value
        ("net.stage_channels", "16"),  # tuple field, scalar value
    ]:
        with pytest.raises(ConfigError):
            apply_override(cfg, key, value)


@pytest.mark.parametrize("key, value, named", [
    ("net.l_group", "true", "net.l_group"),                  # int field, bool value
    ("train.steps", "false", "train.steps"),
    ("net.raw_stages", '[64, "a", 16, 8]', r"net.raw_stages\[1\]"),   # int elements
    ("net.stage_channels", "[12, 16.5, 20, 24]", r"net.stage_channels\[1\]"),
    ("net.encoder_strides", "[2, true]", r"net.encoder_strides\[1\]"),
    ("scene.x_range", '[10.0, "far"]', r"scene.x_range\[1\]"),       # float elements
    ("scene.yaw_range", "[false, 0.4]", r"scene.yaw_range\[0\]"),
])
def test_overrides_reject_values_of_the_wrong_type_naming_the_key(key, value, named):
    cfg = RunConfig()
    before = getattr(cfg, key.split(".")[0]).__dict__.copy()
    with pytest.raises(ConfigError, match=named):
        apply_override(cfg, key, value)
    assert getattr(cfg, key.split(".")[0]).__dict__ == before


def test_float_tuple_overrides_take_integers_as_floats():
    cfg = RunConfig()
    apply_override(cfg, "scene.x_range", "[12, 30]")
    assert cfg.scene.x_range == (12.0, 30.0)
    assert all(type(v) is float for v in cfg.scene.x_range)


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig()
    apply_override(cfg, "train.lr", "0.002")
    apply_override(cfg, "net.combine_mode", "concat")
    apply_override(cfg, "scene.n_cars", "3")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert serialize_config(again) == text
    path = tmp_path / "run.cfg"
    path.write_text(text)
    loaded = load_config(str(path))
    assert loaded.train.lr == 0.002
    assert loaded.net.combine_mode == "concat"
    assert loaded.scene.n_cars == 3


def test_parse_config_reports_line_numbers_and_comments():
    text = "train.lr = 0.01\n# a comment\ntrain.steps = 10  # inline\n"
    cfg = parse_config(text)
    assert cfg.train.steps == 10
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("train.lr = 0.01\nbroken line\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("\n\nnet.bogus = 1\n")


def test_flatten_config_covers_every_field():
    cfg = RunConfig()
    flat = flatten_config(cfg)
    assert flat["train.lr"] == 0.01
    assert flat["net.depth_bins"] == 24
    assert flat["eval.overlap"] == "bev"
    assert isinstance(flat["net.stage_channels"], list)  # JSON-ready
    for key in flat:
        section, name = key.split(".", 1)
        assert hasattr(getattr(cfg, section), name)
    # every section field appears exactly once
    assert len(flat) == len(set(flat))
    parsed = parse_config("\n".join(f"{k} = {v!r}" if isinstance(v, str)
                                    else f"{k} = {v}" for k, v in flat.items()
                                    if not isinstance(v, (list, bool))))
    assert flatten_config(parsed)["train.lr"] == flat["train.lr"]
