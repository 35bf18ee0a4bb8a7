"""Pipeline configuration: a flat ``key = value`` text format with ``#``
comments and dotted keys, parsed into a dataclass with full validation.

Relative input paths resolve against the config file's directory. Stage
dependencies are checked up front: a stage enabled without its prerequisite
is a configuration error, never a silent reorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .model import ENTITY_TYPES

STAGE_NAMES = (
    "filter_malformed",
    "harmonize",
    "remove_nonhuman",
    "drop_types",
    "remap",
    "dedup",
    "reactome",
    "onsides",
    "smiles_filter",
    "fingerprints",
    "features",
    "splits",
    "audit",
)

# stage -> stage that must also be enabled
STAGE_DEPENDENCIES = {
    "dedup": "remap",
    "fingerprints": "smiles_filter",
    "features": "reactome",
    "audit": "splits",
}

# stage -> config attribute holding a required input path
STAGE_INPUTS = {
    "reactome": "reactome",
    "onsides": "onsides",
    "smiles_filter": "smiles",
    "fingerprints": "smiles",
}

VALID_TIERS = ("high", "medium", "low")  # OnSIDES confidence tiers, most confident first
# the relation labels the non-human filter bans and the types drop_types removes, by default
DEFAULT_BANNED_LABELS = ("VirGenHumGen", "DrugVirGen")
DEFAULT_DROP_TYPES = ("Tax", "Symptom", "Pathway")


@dataclass
class PipelineConfig:
    # input paths (None means absent; remap/taxonomy tables may be omitted)
    triplets: str | None = None
    harmonization: str | None = None  # None -> packaged table
    compound_xref: str | None = None
    disease_xref: str | None = None
    gene_xref: str | None = None
    sideeffect_xref: str | None = None
    taxonomy: str | None = None
    reactome: str | None = None
    onsides: str | None = None
    smiles: str | None = None
    out_dir: str = "out"
    # stage toggles
    stages: dict[str, bool] = field(
        default_factory=lambda: {
            name: name not in ("splits", "audit") for name in STAGE_NAMES
        }
    )
    # parameters
    fingerprint_radius: int = 2
    fingerprint_nbits: int = 2048
    onsides_min_tier: str = "high"
    split_seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    split_tasks: list[str] = field(
        default_factory=lambda: ["ppi", "drug_repurposing", "side_effect"]
    )
    harmonize_strict: bool = False
    dedup_same_type_only: bool = False
    drop_types: list[str] = field(default_factory=lambda: list(DEFAULT_DROP_TYPES))
    nonhuman_banned_labels: list[str] = field(default_factory=lambda: list(DEFAULT_BANNED_LABELS))
    nonhuman_ban_vir_prefix: bool = True
    audit_include_inverse: bool = True
    preserve_order: bool = False

    def enabled(self, stage: str) -> bool:
        return self.stages.get(stage, False)

    def validate(self) -> None:
        """Full-run validation: values, stage dependencies, required inputs."""
        for stage, dep in STAGE_DEPENDENCIES.items():
            if self.enabled(stage) and not self.enabled(dep):
                raise ConfigError(
                    f"stage '{stage}' requires stage '{dep}' to be enabled"
                )
        for stage, attr in STAGE_INPUTS.items():
            if self.enabled(stage) and getattr(self, attr) is None:
                raise ConfigError(
                    f"stage '{stage}' requires inputs.{attr} to be set"
                )
        self.validate_values()

    def validate_for_stage(self, stage: str) -> None:
        """Single-stage validation: the stage resumes from a checkpoint, so
        cross-stage dependencies do not apply, only its own input and the
        parameter values."""
        attr = STAGE_INPUTS.get(stage)
        if attr is not None and getattr(self, attr) is None:
            raise ConfigError(f"stage '{stage}' requires inputs.{attr} to be set")
        self.validate_values()

    def validate_values(self) -> None:
        if self.onsides_min_tier not in VALID_TIERS:
            raise ConfigError(
                f"onsides.min_tier must be one of {VALID_TIERS}, "
                f"got {self.onsides_min_tier!r}"
            )
        if self.fingerprint_nbits <= 0 or self.fingerprint_nbits % 4:
            raise ConfigError("fingerprint.nbits must be a positive multiple of 4")
        if self.fingerprint_radius < 0:
            raise ConfigError("fingerprint.radius must be >= 0")
        if not self.split_seeds:
            raise ConfigError("split.seeds must list at least one seed")
        from .split_audit import BUILTIN_TASKS

        for task in self.split_tasks:
            if task not in BUILTIN_TASKS:
                raise ConfigError(
                    f"unknown task {task!r}; choose from {sorted(BUILTIN_TASKS)}"
                )
        for etype in self.drop_types:
            if etype not in ENTITY_TYPES:
                raise ConfigError(
                    f"drop.types: unknown entity type {etype!r}; "
                    f"choose from {sorted(ENTITY_TYPES)}"
                )
        _reject_repeats("split.seeds", self.split_seeds)
        _reject_repeats("split.tasks", self.split_tasks)
        self.validate_out_dir()

    def validate_out_dir(self) -> None:
        """The output directory, or its nearest existing ancestor, must be a
        directory."""
        out = Path(self.out_dir)
        for path in (out, *out.parents):
            if path.exists():
                break
        if path.is_dir():
            return
        if path == out:
            raise ConfigError(f"output directory {out} exists and is not a directory")
        raise ConfigError(f"output directory {out} is below {path}, which is not a directory")


def _reject_repeats(key: str, values: list) -> None:
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{key} lists {value!r} more than once")
        seen.add(value)


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _parse_int_list(key: str, value: str) -> list[int]:
    return [_parse_int(key, item.strip()) for item in value.split(",") if item.strip()]


def _parse_str_list(key: str, value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


# dotted config key -> (dataclass attribute, parser); None parser keeps text
_PATH_KEYS = {
    "inputs.triplets": "triplets",
    "inputs.harmonization": "harmonization",
    "inputs.compound_xref": "compound_xref",
    "inputs.disease_xref": "disease_xref",
    "inputs.gene_xref": "gene_xref",
    "inputs.sideeffect_xref": "sideeffect_xref",
    "inputs.taxonomy": "taxonomy",
    "inputs.reactome": "reactome",
    "inputs.onsides": "onsides",
    "inputs.smiles": "smiles",
}

_VALUE_KEYS = {
    "output.dir": ("out_dir", None),
    "fingerprint.radius": ("fingerprint_radius", _parse_int),
    "fingerprint.nbits": ("fingerprint_nbits", _parse_int),
    "onsides.min_tier": ("onsides_min_tier", None),
    "split.seeds": ("split_seeds", _parse_int_list),
    "split.tasks": ("split_tasks", _parse_str_list),
    "harmonize.strict": ("harmonize_strict", _parse_bool),
    "dedup.same_type_only": ("dedup_same_type_only", _parse_bool),
    "drop.types": ("drop_types", _parse_str_list),
    "nonhuman.banned_labels": ("nonhuman_banned_labels", _parse_str_list),
    "nonhuman.ban_vir_prefix": ("nonhuman_ban_vir_prefix", _parse_bool),
    "audit.include_inverse": ("audit_include_inverse", _parse_bool),
    "output.preserve_order": ("preserve_order", _parse_bool),
}


def parse_config_text(text: str, base_dir: Path | None = None) -> PipelineConfig:
    config = PipelineConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("stages."):
            stage = key[len("stages."):]
            if stage not in STAGE_NAMES:
                raise ConfigError(
                    f"config line {line_no}: unknown stage {stage!r}"
                )
            config.stages[stage] = _parse_bool(key, value)
        elif key in _PATH_KEYS:
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            setattr(config, _PATH_KEYS[key], str(path))
        elif key in _VALUE_KEYS:
            attr, parser = _VALUE_KEYS[key]
            if key == "output.dir" and base_dir is not None and not Path(value).is_absolute():
                value = str(base_dir / value)
            setattr(config, attr, parser(key, value) if parser else value)
        else:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
    return config


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base_dir=path.parent)
