import pytest

from kgprep.config import STAGE_NAMES, PipelineConfig
from kgprep.errors import ConfigError
from kgprep.pipeline import PipelineRunner


def test_stage_table_lists_every_stage_in_run_order():
    runner = PipelineRunner(PipelineConfig(), stage="filter_malformed")
    assert tuple(runner._stages()) == STAGE_NAMES


def test_unknown_stage_is_config_error(tiny_graph):
    runner = PipelineRunner(PipelineConfig(), stage="filter_malformed")
    with pytest.raises(ConfigError, match="unknown stage 'bogus'"):
        runner.run_stage("bogus", tiny_graph)


def test_write_drops_the_cached_auxiliary_tables(tiny_graph, tmp_path):
    config = PipelineConfig()
    config.out_dir = str(tmp_path)
    runner = PipelineRunner(config, stage="audit")
    tables = ("harmonization_table", "id_maps")
    for name in tables:
        getattr(runner, name)
    runner.write(tiny_graph)
    assert (tmp_path / "graph.tsv").is_file()
    assert not set(tables) & set(vars(runner))
