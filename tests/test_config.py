import json

import pytest

from motionbands.config import Config, ConfigError, apply_overrides, load_config


def _write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_no_file_gives_defaults(self):
        assert load_config(None) == Config()

    def test_file_values_apply(self, tmp_path):
        path = _write(tmp_path, {"seed": 7, "events": {"k_sigma": 3.0}})
        config = load_config(path)
        assert config.seed == 7
        assert config.events.k_sigma == 3.0
        assert config.events.cooldown_s == Config().events.cooldown_s

    @pytest.mark.parametrize(
        "doc",
        [{"sede": 1}, {"events": {"k_sgima": 3.0}}, {"filter": {"t_l1_s": 1.0, "extra": 0}}],
        ids=["top-level", "in-section", "beside-a-known-key"],
    )
    def test_unknown_key_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="sede|k_sgima|extra"):
            load_config(_write(tmp_path, doc))

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="k_sigma"):
            load_config(_write(tmp_path, {"events": {"k_sigma": "high"}}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path)

    def test_bad_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(_write(tmp_path, '{"seed": 1,'))

    @pytest.mark.parametrize("doc", ["[1, 2]", '"cam0"', "3", "null"])
    def test_non_object_document_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(_write(tmp_path, doc))


class TestOverrides:
    def test_dotted_overrides_apply(self, tmp_path):
        path = _write(tmp_path, {"events": {"k_sigma": 3.0, "min_days": 5}})
        config = load_config(path, {"events.k_sigma": 1.5, "filter.t_s1_s": 30.0, "seed": 4})
        assert config.events.k_sigma == 1.5
        assert config.events.min_days == 5
        assert config.filter.t_s1_s == 30.0
        assert config.seed == 4

    def test_none_overrides_skipped(self, tmp_path):
        path = _write(tmp_path, {"events": {"k_sigma": 3.0}})
        config = load_config(path, {"events.k_sigma": None, "seed": None})
        assert config.events.k_sigma == 3.0
        assert config.seed == Config().seed
        assert apply_overrides({}, {"events.k_sigma": None}) == {}

    def test_override_through_a_non_section_rejected(self, tmp_path):
        path = _write(tmp_path, {"seed": 3})
        with pytest.raises(ConfigError, match="seed is not a section"):
            load_config(path, {"seed.value": 1})
        with pytest.raises(ConfigError, match="seed is not a section"):
            apply_overrides({"seed": 3}, {"seed.value.deeper": 1})

    def test_override_of_an_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="k_sgima"):
            load_config(None, {"events.k_sgima": 1.0})
