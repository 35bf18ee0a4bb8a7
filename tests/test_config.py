import pytest

from kgprep.cli import main
from kgprep.config import PipelineConfig, load_config, parse_config_text
from kgprep.errors import ConfigError


def test_parse_basic_keys(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text(
        "# comment\n"
        "inputs.triplets = data/drkg.tsv\n"
        "stages.dedup = true\n"
        "stages.audit = false\n"
        "fingerprint.radius = 3\n"
        "split.seeds = 0, 1, 2\n"
        "onsides.min_tier = medium\n"
        "drop.types = Tax,Symptom\n",
        encoding="utf-8",
    )
    config = load_config(cfg_file)
    assert config.triplets == str(tmp_path / "data/drkg.tsv")
    assert config.fingerprint_radius == 3
    assert config.split_seeds == [0, 1, 2]
    assert config.onsides_min_tier == "medium"
    assert config.drop_types == ["Tax", "Symptom"]


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("inputs.banana = x\n")
    with pytest.raises(ConfigError, match="unknown key 'debug.validate'"):
        parse_config_text("debug.validate = true\n")
    with pytest.raises(ConfigError, match="unknown stage"):
        parse_config_text("stages.banana = true\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("stages.dedup = maybe\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("fingerprint.radius = deep\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words\n")


def test_dependency_order_enforced():
    config = parse_config_text("stages.remap = false\nstages.dedup = true\n")
    with pytest.raises(ConfigError, match="dedup.*remap"):
        config.validate()
    config = parse_config_text("stages.smiles_filter = false\nstages.fingerprints = true\n")
    with pytest.raises(ConfigError, match="fingerprints.*smiles_filter"):
        config.validate()
    config = parse_config_text("stages.reactome = false\nstages.features = true\n")
    with pytest.raises(ConfigError, match="features.*reactome"):
        config.validate()


def test_enabled_stage_requires_its_input():
    config = PipelineConfig()
    config.stages["reactome"] = True
    config.reactome = None
    # other required inputs filled so only the reactome check can fire
    config.onsides = "x.tsv"
    config.smiles = "y.tsv"
    with pytest.raises(ConfigError, match="inputs.reactome"):
        config.validate()


def test_default_config_validates_with_inputs():
    config = PipelineConfig(
        reactome="r.tsv", onsides="o.tsv", smiles="s.tsv"
    )
    config.validate()


def test_tier_and_task_validation():
    config = PipelineConfig(reactome="r", onsides="o", smiles="s")
    config.onsides_min_tier = "shaky"
    with pytest.raises(ConfigError, match="min_tier"):
        config.validate()
    config = PipelineConfig(reactome="r", onsides="o", smiles="s")
    config.split_tasks = ["ppi", "alchemy"]
    with pytest.raises(ConfigError, match="alchemy"):
        config.validate()


def test_duplicate_seeds_rejected():
    config = parse_config_text("split.seeds = 0, 0\n")
    with pytest.raises(ConfigError, match="split.seeds lists 0 more than once"):
        config.validate_values()


def test_duplicate_tasks_rejected():
    config = parse_config_text("split.tasks = ppi, side_effect, ppi\n")
    with pytest.raises(ConfigError, match="split.tasks lists 'ppi' more than once"):
        config.validate_values()


def test_unknown_drop_type_rejected(tmp_path):
    # the raw spelling "Side Effect" is not a graph entity type either: ingest
    # stores it as SideEffect, so dropping "Side Effect" would drop nothing
    for value, bad in (("Side Effect,Bogus", "Side Effect"), ("SideEffect,Bogus", "Bogus")):
        config = parse_config_text(f"drop.types = {value}\n")
        with pytest.raises(ConfigError, match=f"drop.types: unknown entity type '{bad}'"):
            config.validate_values()
    parse_config_text("drop.types = SideEffect,Tax\n").validate_values()
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("drop.types = Side Effect,Bogus\n", encoding="utf-8")
    assert main(["--quiet", "--config", str(cfg), "validate-config"]) == 1
