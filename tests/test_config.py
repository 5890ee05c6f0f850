"""Config schema: strict parsing, validation, round trip, presets."""
import hashlib
import re

import pytest

from mcqd.config import (
    DESK_SCALE,
    ExperimentConfig,
    build_preset,
    preset_names,
)
from mcqd.core import ConfigurationError

GOOD_YAML = """\
case: demo
seed: 7
replicates: 2
containers:
  bin_budget: 72
  grids:
    - {shape: [6, 6], fd: ae_qt, count: 2}
task:
  name: rastrigin_toy
search:
  sharing: non_shared
  initialization_budget: 20
  evaluation_budget: 100
  batch_size: 10
training:
  strategy: online
  period: 30
  epochs: 2
  diversity: {kind: cmd, weight: 1.0, sign: -1}
"""


class TestParsing:
    def test_good_config(self):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        assert cfg.case == "demo"
        assert len(cfg.grids) == 2  # count expanded
        assert cfg.grids[0].shape == (6, 6)
        assert cfg.training.diversity.kind == "cmd"
        assert cfg.search.sharing == "non_shared"

    def test_unknown_key_is_error_with_line(self):
        bad = GOOD_YAML.replace("  period: 30", "  period: 30\n  learning_rte: 1")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "learning_rte" in str(err.value)
        assert "line" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML + "bogus: 1\n")
        assert "bogus" in str(err.value)

    def test_missing_required_key(self):
        bad = GOOD_YAML.replace("  bin_budget: 72\n", "")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "bin_budget" in str(err.value)

    def test_yaml_syntax_error_carries_line(self):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml("case: [unclosed\nseed: 1\n")
        assert "line" in str(err.value)

    def test_bin_budget_mismatch(self):
        bad = GOOD_YAML.replace("bin_budget: 72", "bin_budget: 100")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "bin budget" in str(err.value)

    def test_hardcoded_requires_no_training(self):
        bad = GOOD_YAML.replace("fd: ae_qt", "fd: hardcoded")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_yaml(bad)

    def test_learned_requires_training(self):
        bad = GOOD_YAML.replace("strategy: online", "strategy: none")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_yaml(bad)

    def test_learned_grid_must_match_latent_dim(self):
        bad = GOOD_YAML.replace("  epochs: 2", "  epochs: 2\n  latent_dim: 3")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "latent_dim" in str(err.value)

    @pytest.mark.parametrize("split", ["0.0", "1.0", "-0.5"])
    def test_validation_split_outside_open_unit_interval(self, split):
        bad = GOOD_YAML.replace("  epochs: 2", f"  epochs: 2\n  validation_split: {split}")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "validation_split" in str(err.value)

    @pytest.mark.parametrize("probability", ["-0.1", "1.5"])
    def test_mutation_probability_outside_unit_interval(self, probability):
        bad = GOOD_YAML.replace("  batch_size: 10", "  batch_size: 10\n"
                                f"  mutation: {{probability: {probability}}}")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "probability" in str(err.value)

    @pytest.mark.parametrize("eta", ["0.0", "-1.0"])
    def test_mutation_eta_not_positive(self, eta):
        bad = GOOD_YAML.replace("  batch_size: 10",
                                f"  batch_size: 10\n  mutation: {{eta: {eta}}}")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "eta" in str(err.value)

    @pytest.mark.parametrize("old,new,line", [
        ("  batch_size: 10", "  batch_size: ten", 11),  # search's first line
        ("  bin_budget: 72", "  bin_budget: lots", 5),
        ("count: 2}", "count: two}", 7),
    ], ids=["search", "containers", "grid"])
    def test_mistyped_value_names_key_and_line(self, old, new, line):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML.replace(old, new))
        key, value = new.strip(" }").split(": ")
        message = str(err.value)
        assert message.startswith(f"line {line}: key {key!r}")
        assert repr(value) in message

    @pytest.mark.parametrize("old,new,line", [
        ("  batch_size: 10", "  batch_size: 10.7", 11),
        ("  batch_size: 10", "  batch_size: true", 11),
        ("  epochs: 2", "  epochs: 2.5", 16),  # training's first line
        ("  epochs: 2", "  learning_rate: true", 16),
    ], ids=["int-fraction", "int-bool", "epochs-fraction", "float-bool"])
    def test_bool_or_fraction_is_not_coerced(self, old, new, line):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML.replace(old, new))
        key, value = new.strip().split(": ")
        assert str(err.value).startswith(f"line {line}: key {key!r}")
        assert value.capitalize() in str(err.value)

    @pytest.mark.parametrize("old,new,line,message", [
        ("  period: 30", "  period: -5", 16, "training.period must be >= 1"),
        ("sign: -1", "sign: 2", 19, "diversity sign must be +1 or -1"),
        ("bin_budget: 72", "bin_budget: 70", 5,
         "grid capacities sum to 72, bin budget is 70"),
        ("fd: ae_qt", "fd: pca", 7, "unknown fd type(s) ['pca']"),
        ("seed: 7", "seed: -7", 1, "seed must be >= 0"),
        ("sharing: non_shared", "sharing: both", 11, "unknown sharing 'both'"),
        ("strategy: online", "strategy: offline", 16,
         "unknown training strategy 'offline'"),
        ("kind: cmd", "kind: mmd", 19, "unknown diversity kind 'mmd'"),
        ("replicates: 2", "replicates: 0", 1, "replicates must be >= 1"),
        ("initialization_budget: 20", "initialization_budget: 0", 11,
         "search.initialization_budget must be >= 1"),
        ("evaluation_budget: 100", "evaluation_budget: 0", 11,
         "search.evaluation_budget must be >= 1"),
        ("  batch_size: 10", "  batch_size: 0", 11, "search.batch_size must be >= 1"),
    ], ids=["training", "diversity", "containers", "grid", "root", "sharing",
            "training-strategy", "diversity-kind", "replicates",
            "initialization-budget", "evaluation-budget", "search-batch-size"])
    def test_validation_error_carries_the_section_line(self, old, new, line, message):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML.replace(old, new))
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("text,message", [
        ("- case: demo\n- seed: 7\n", "line 1: config must be a YAML mapping"),
        (GOOD_YAML.replace("  grids:\n    - {shape: [6, 6], fd: ae_qt, count: 2}",
                           "  grids: []"),
         "line 5: containers.grids must be a non-empty list"),
    ], ids=["top-level-list", "no-grids"])
    def test_malformed_structure_names_the_line(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(text)
        assert str(err.value) == message

    def test_config_built_in_python_fails_without_a_line(self):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        assert cfg == ExperimentConfig.from_dict(cfg.to_dict())
        cfg.training.period = -5
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert str(err.value) == "training.period must be >= 1"
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(cfg.to_dict())
        assert str(err.value) == "training.period must be >= 1"

    @pytest.mark.parametrize("key,value,message", [
        ("epochz", 3, "unknown key(s) ['epochz'] in section 'config.training'"),
        ("epochs", "many", "key 'epochs' in section 'config.training' must be int, "
                           "got 'many'"),
    ], ids=["unknown-key", "mistyped-value"])
    def test_parse_error_of_a_plain_dict_has_no_line(self, key, value, message):
        """A plain dict has no lines, so its parse errors carry no ``line 0:``."""
        data = build_preset("reco-4", desk=True).to_dict()
        data["training"][key] = value
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_dict(data)
        assert str(err.value) == message

    def test_integral_float_is_an_int(self):
        cfg = ExperimentConfig.from_yaml(
            GOOD_YAML.replace("  batch_size: 10", "  batch_size: 10.0"))
        assert cfg == ExperimentConfig.from_yaml(GOOD_YAML)
        assert type(cfg.search.batch_size) is int

    @pytest.mark.parametrize("dropout", ["1.0", "-0.5"])
    def test_dropout_outside_unit_interval(self, dropout):
        bad = GOOD_YAML.replace("  epochs: 2", f"  epochs: 2\n  dropout: {dropout}")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "dropout" in str(err.value)

    def test_zero_width_hidden_layer(self):
        bad = GOOD_YAML.replace("  epochs: 2", "  epochs: 2\n  hidden: [8, 0]")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(bad)
        assert "hidden" in str(err.value)

    # GOOD_YAML trains under cmd diversity, whose minibatches need two rows
    @pytest.mark.parametrize("section,key,bad,edge", [
        ("training", "batch_size", "0", "2"),
        ("training", "batch_size", "1", "2"),
        ("training", "quantiles", "1", "2"),
        ("training", "learning_rate", "-0.01", "0.0"),
        ("curiosity", "floor", "0.0", "1.0e-9"),
        ("set", "period", "-5", "1"),
        ("set", "epochs", "-3", "1"),
        ("set", "seed", "-1", "0"),
    ], ids=["training-batch-size", "cmd-batch-size", "quantiles", "learning-rate",
            "curiosity-floor", "period", "epochs", "seed"])
    def test_out_of_range_value_fails_at_load(self, section, key, bad, edge):
        def config(value):
            if section == "set":  # a key GOOD_YAML already sets, once
                return re.sub(rf"(?m)^( *{key}): .*$", rf"\g<1>: {value}", GOOD_YAML)
            if section == "training":
                return GOOD_YAML.replace("  epochs: 2", f"  epochs: 2\n  {key}: {value}")
            return GOOD_YAML.replace("  batch_size: 10", "  batch_size: 10\n"
                                     f"  curiosity: {{{key}: {value}}}")

        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(config(bad))
        assert key in str(err.value)
        ExperimentConfig.from_yaml(config(edge))  # the nearest valid value loads

    @pytest.mark.parametrize("section,key,value,shown", [
        ("mutation", "eta", ".nan", "nan"),
        ("curiosity", "floor", ".inf", "inf"),
        ("curiosity", "success_delta", ".nan", "nan"),
        ("training", "learning_rate", ".nan", "nan"),
        ("training", "validation_split", "-.inf", "-inf"),
        ("diversity", "weight", ".nan", "nan"),
    ], ids=["mutation-eta", "curiosity-floor", "curiosity-success-delta",
            "learning-rate", "validation-split", "diversity-weight"])
    def test_non_finite_float_fails_at_load_with_its_line(self, section, key, value,
                                                           shown):
        if section == "training":
            text = GOOD_YAML.replace("  epochs: 2", f"  epochs: 2\n  {key}: {value}")
            name, line = f"training.{key}", 16
        elif section == "diversity":
            text = GOOD_YAML.replace("weight: 1.0", f"weight: {value}")
            name, line = f"training.diversity.{key}", 19
        else:  # a search subsection, on the line after search.batch_size
            text = GOOD_YAML.replace("  batch_size: 10", "  batch_size: 10\n"
                                     f"  {section}: {{{key}: {value}}}")
            name, line = f"search.{section}.{key}", 15
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(text)
        assert str(err.value) == f"line {line}: {name} must be finite, got {shown}"

    @pytest.mark.parametrize("name", [
        "search.mutation.probability", "search.mutation.eta",
        "search.curiosity.success_delta", "search.curiosity.failure_delta",
        "search.curiosity.floor", "search.curiosity.initial",
        "training.learning_rate", "training.validation_split", "training.dropout",
        "training.diversity.weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_float_built_in_python_fails_validate(self, name, value):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        *path, key = name.split(".")
        section = cfg
        for part in path:
            section = getattr(section, part)
        setattr(section, key, value)
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert str(err.value) == f"{name} must be finite, got {value}"

    @pytest.mark.parametrize("changes,message", [
        ([("bin_budget: 72", "bin_budget: 20"), ("shape: [6, 6]", "shape: [-2, -5]")],
         "grid 0 has shape [-2, -5]"),
        ([("bin_budget: 72", "bin_budget: 2"), ("shape: [6, 6]", "shape: []"),
          ("  epochs: 2", "  epochs: 2\n  latent_dim: 0")],
         "grid 0 has shape []"),
        ([("initialization_budget: 20", "initialization_budget: 1")],
         "initialization_budget must be >= 2"),
        ([("initialization_budget: 20", "initialization_budget: 1"),
          ("fd: ae_qt", "fd: ae"), ("kind: cmd", "kind: cov")],
         "initialization_budget must be >= 2"),
        ([("bin_budget: 72", "bin_budget: 12"), ("shape: [6, 6]", "shape: [6]"),
          ("  epochs: 2", "  epochs: 2\n  latent_dim: 1")],
         "needs training.latent_dim >= 2"),
    ], ids=["negative-shape", "empty-shape", "one-genome-quantiles", "one-genome-cov",
            "cmd-latent-1"])
    def test_config_every_replicate_would_fail_fails_at_load(self, changes, message):
        text = GOOD_YAML
        for old, new in changes:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(text)
        assert message in str(err.value)

    def test_one_row_steps_without_a_covariance_load(self):
        """One initial genome trains an ae grid, and a minibatch of one row
        trains a diversity term of weight 0: both run, so both load."""
        ExperimentConfig.from_yaml(GOOD_YAML.replace(
            "initialization_budget: 20", "initialization_budget: 1").replace(
            "fd: ae_qt", "fd: ae").replace("kind: cmd", "kind: none"))
        ExperimentConfig.from_yaml(GOOD_YAML.replace(
            "  epochs: 2", "  epochs: 2\n  batch_size: 1").replace(
            "weight: 1.0", "weight: 0.0"))

    def test_retired_n_workers_is_read_and_dropped(self):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        old = ExperimentConfig.from_yaml(
            GOOD_YAML.replace("  batch_size: 10", "  batch_size: 10\n  n_workers: 4"))
        assert old == cfg
        assert old.hash() == cfg.hash()
        assert "n_workers" not in old.to_yaml()

    @pytest.mark.parametrize("value", ["[]", "0", "false", '""', "[1]"],
                             ids=["empty-list", "zero", "false", "empty-string", "list"])
    @pytest.mark.parametrize("section,parent_line", [
        ("containers", 1), ("task", 1), ("search", 1), ("training", 1),
        ("training.diversity", 16),  # training's first line
    ])
    def test_non_mapping_section_is_an_error(self, section, parent_line, value):
        """Only null or an absent key reads as an empty section.  Any other
        value is an error at the key's own line, not at the first line of
        the mapping that holds the key."""
        line = {"containers": 4, "task": 8, "search": 10, "training": 15,
                "training.diversity": 19}[section]
        assert line != parent_line
        parent, _, key = section.rpartition(".")
        if parent:
            text = re.sub(rf"(?m)^  {key}: .*$", f"  {key}: {value}", GOOD_YAML)
        else:
            text = re.sub(rf"(?m)^{key}:\n(?:  .*\n)*", f"{key}: {value}\n", GOOD_YAML)
        assert text != GOOD_YAML
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(text)
        assert str(err.value) == (
            f"line {line}: section 'config.{section}' must be a mapping")

    @pytest.mark.parametrize("value", ["[]", "0", "false", '""', "[[a, 1]]"],
                             ids=["empty-list", "zero", "false", "empty-string", "pairs"])
    def test_non_mapping_task_params_is_an_error(self, value):
        text = GOOD_YAML.replace("  name: rastrigin_toy",
                                 f"  name: rastrigin_toy\n  params: {value}")
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(text)
        assert str(err.value).startswith(
            "line 9: key 'params' in section 'config.task' must be dict")

    def test_null_section_or_params_reads_as_empty(self):
        absent = ExperimentConfig.from_yaml(
            re.sub(r"(?m)^search:\n(?:  .*\n)*", "", GOOD_YAML))
        null = ExperimentConfig.from_yaml(
            re.sub(r"(?m)^search:\n(?:  .*\n)*", "search: null\n", GOOD_YAML))
        assert null == absent
        cfg = ExperimentConfig.from_yaml(GOOD_YAML.replace(
            "  name: rastrigin_toy", "  name: rastrigin_toy\n  params: null"))
        assert cfg == ExperimentConfig.from_yaml(GOOD_YAML) and cfg.task.params == {}

    @pytest.mark.parametrize("old,new,message", [
        ("case: demo", "case: {a: 1}",
         "line 1: key 'case' in section 'config' must be str, got {'a': 1}"),
        ("  name: rastrigin_toy", "  name: [rastrigin_toy]",
         "line 9: key 'name' in section 'config.task' must be str, "
         "got ['rastrigin_toy']"),
        ("fd: ae_qt", "fd: [ae_qt]",
         "line 7: key 'fd' in section 'containers.grids[]' must be str, "
         "got ['ae_qt']"),
        ("replicates: 2", "replicates: 2\noutput_dir: [a, b]",
         "line 1: key 'output_dir' in section 'config' must be str | None, "
         "got ['a', 'b']"),
        ("replicates: 2", "replicates: 2\noutput_dir: {x: 1}",
         "line 1: key 'output_dir' in section 'config' must be str | None, "
         "got {'x': 1}"),
    ], ids=["case-mapping", "task-name-list", "fd-list", "output-dir-list",
            "output-dir-mapping"])
    def test_string_key_takes_only_a_scalar(self, old, new, message):
        """A list or a mapping does not load as its repr, which would then
        name the run directory or the task."""
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML.replace(old, new))
        assert str(err.value) == message

    @pytest.mark.parametrize("value,expected", [
        ("null", None), ("runs/demo", "runs/demo"), ("7", "7")])
    def test_output_dir_reads_null_or_a_scalar(self, value, expected):
        cfg = ExperimentConfig.from_yaml(
            GOOD_YAML.replace("replicates: 2", f"replicates: 2\noutput_dir: {value}"))
        assert cfg.output_dir == expected

    @pytest.mark.parametrize("old,new,key,line", [
        ("shape: [6, 6]", 'shape: "66"', "shape", 7),
        ("shape: [6, 6]", "shape: 66", "shape", 7),
        ("  epochs: 2", '  epochs: 2\n  hidden: "16"', "hidden", 16),
    ], ids=["shape-string", "shape-int", "hidden-string"])
    def test_int_list_key_takes_only_a_list(self, old, new, key, line):
        """A string is not split into its characters: "16" is not (1, 6)."""
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig.from_yaml(GOOD_YAML.replace(old, new))
        assert str(err.value).startswith(f"line {line}: key {key!r}")
        assert "must be tuple[int, ...]" in str(err.value)


# config.hash() and the sha256 of to_yaml() for every preset at both scales,
# recorded before from_dict/to_dict were derived from the section classes.
# config.yaml then carried an "  n_workers: 1" line, taken out before hashing.
PRESET_GOLDEN = {
    ("hardcoded-4", False): (
        "a88e11174a2452ad",
        "8dccda5479116ecb3e1d078550ccdbe1a29b5816eebfdefaa8d194c2b5ff2eff"),
    ("hardcoded-4", True): (
        "27036df7c5358a60",
        "02fcde024e10afec839a35d033f47f79b3ee2cc717e94ac6860ab9def37e6f07"),
    ("hardcoded-4-ns", False): (
        "6b721d7c47a69915",
        "776d88aae262fe0a93700550295dc8f4a31f51a8ca98e29df696093335d090e6"),
    ("hardcoded-4-ns", True): (
        "0a36a2691af1fcbd",
        "6166d764ff25a3c84a5e85fce43819b67144c3d4a43026bca9a8deb5367836a5"),
    ("pt-reco-4", False): (
        "12949121adef1d0b",
        "b1d7425e92c06403069efe2b55869d1c59a70280a8636c687607994025248fc4"),
    ("pt-reco-4", True): (
        "58fd5f77f25d3bf3",
        "ecaf87ba7a529dc5d298a068881b58d21941c40e324a4e3dcfea25b6b52a97aa"),
    ("reco-4", False): (
        "bc83940df288f765",
        "0ee4271a55dee0e8ee323f8882455b69b51a6741ca68c3be6152172e95caef3c"),
    ("reco-4", True): (
        "d13e6c945e85c812",
        "5fa4893bf30778e3db505e77245fed93cc13c3dda938a65a822e26463aa9bd8f"),
    ("qt-reco-4", False): (
        "364214ab467aa3ee",
        "7d562e3eb8e0d1a6b08682329d02880ffd198405b47c0afa2493af85dcb89872"),
    ("qt-reco-4", True): (
        "3e72eb4df56c6c31",
        "c10b10734e0f0aa9aef3238b9e36a253c438a569a56c97c5d6e922b955ba8656"),
    ("qt-reco-4-ns", False): (
        "e4e1255f9b26589e",
        "ea08dbc19a025eb379f2ddf2df4485ce21e4eba19151958443645f4d59e077b0"),
    ("qt-reco-4-ns", True): (
        "01dfa5076fd13216",
        "f773fb6730c3d0b6b611786424bb6fe638e67fc60f22a814b93f0654e0c9c435"),
    ("hardcoded-1", False): (
        "dc6923288eef1895",
        "91b6041ab6e6aae7dc5e9050802386c941e1adc8b228bbbcf996d13e19d476e0"),
    ("hardcoded-1", True): (
        "68f94b774827173d",
        "0ce13789d6328d28fef86be681807400f9029f44c990d08476524b5e56dbcd0d"),
    ("qt-reco-1", False): (
        "f0bebde47f87ff2e",
        "7241b957ff827eba251c72dca34bcd77dd0bd4569aec47e59e942d1671a123c2"),
    ("qt-reco-1", True): (
        "bc5bb87b342b8faa",
        "3d592e783818718c7b2ea2d73354a363f3e9d61d471172a9c8a20d9abfd93640"),
    ("qt-reco-6-ns", False): (
        "023dd60d944604c3",
        "56ec6452e421ac883b66958e1bef4059aa4aa0342142b082c96059b71faa92c6"),
    ("qt-reco-6-ns", True): (
        "a87987ff8c5c454a",
        "438d367924b18c3d9a7e3fac440a920699c40e78c5d23caaec31dd7a39117efa"),
    ("qt-reco-9-ns", False): (
        "a87637960fa0acb8",
        "40704c6d6e5d8f578ce7037fc695d141509e946264d8146d1edfed1cc950f167"),
    ("qt-reco-9-ns", True): (
        "9b82615cb9f791ae",
        "055fcd34b902b091808b3782d01ffe834881bc002a10731b9858a530ace55ead"),
    ("qt-reco-25-ns", False): (
        "2e4c02c2524616c3",
        "9d5ced172b448640be5fb2b605e92b7f99c6adbecdb7e923601e8c6447e16ef5"),
    ("qt-reco-25-ns", True): (
        "b9e6e153ddebd6ce",
        "1e07ba5b09ec6ac004839ddc39e2fcc087167ac0f9beb558d097f123ee8c07bd"),
    ("qt-outputs-4-ns", False): (
        "655826499f44ae49",
        "8e1ff78cbbff8b1044d015854a90598a9f151613395ca6f0bc2c9ba3ee664fcf"),
    ("qt-outputs-4-ns", True): (
        "7f7b410fe00d07ed",
        "cd300fccd8092bd9494fa0e1671f97319635306a329370584908577e2241fd15"),
    ("qt-covmin-4-ns", False): (
        "8cd9f20bfd8869d0",
        "c0ea8ff5214e3b6ec0d26b8f0043012bfdf5f6da3ddd8e2091d002510fe43f9f"),
    ("qt-covmin-4-ns", True): (
        "ed8d73bdab1a7a6c",
        "76755762c168efc8f362951d2a94364c3c061fe37dbf5a685b97f0a5aa058eec"),
    ("qt-covmax-4-ns", False): (
        "824794c3d3e6870b",
        "bebbecf44cf0f0a9968ebfd84c5a59e913dac3e8d7b0faa347f477516c0c24f3"),
    ("qt-covmax-4-ns", True): (
        "0b83d6a5be780c0f",
        "83a82932beba80135845ffcf5a58ed2e772ff51c60f7a6eee741c28625556eb6"),
    ("qt-cmd-4-ns", False): (
        "60bf178c3e25eda5",
        "a37e4353ac6b15c558ec5dc4054b0d8e522b7015bb4c1f241a62161cecd4c059"),
    ("qt-cmd-4-ns", True): (
        "41f69f44d60b515f",
        "b9b6a27ec812b7ef8772ed227edf4ab65b363f717f02608c4198630fd9e183b4"),
}


class TestRoundTrip:
    def test_yaml_round_trip_identity(self):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        again = ExperimentConfig.from_yaml(cfg.to_yaml())
        assert again == cfg
        assert again.hash() == cfg.hash()

    def test_preset_round_trip_identity(self):
        for name in preset_names():
            cfg = build_preset(name, desk=True, seed=3, replicates=2)
            again = ExperimentConfig.from_yaml(cfg.to_yaml())
            assert again == cfg

    @pytest.mark.parametrize("name,desk", sorted(PRESET_GOLDEN))
    def test_preset_hash_and_yaml_golden(self, name, desk):
        cfg = build_preset(name, desk=desk)
        digest = hashlib.sha256(cfg.to_yaml().encode()).hexdigest()
        assert (cfg.hash(), digest) == PRESET_GOLDEN[name, desk]
        again = ExperimentConfig.from_yaml(cfg.to_yaml())
        assert again.hash() == cfg.hash() and again.to_yaml() == cfg.to_yaml()

    def test_values_take_the_field_type(self):
        loose = GOOD_YAML.replace("seed: 7", "seed: '7'").replace(
            "weight: 1.0", "weight: 1").replace(
            "  epochs: 2", "  epochs: 2\n  learning_rate: 1\n  hidden: ['8', 4]")
        exact = GOOD_YAML.replace(
            "  epochs: 2", "  epochs: 2\n  learning_rate: 1.0\n  hidden: [8, 4]")
        cfg = ExperimentConfig.from_yaml(loose)
        assert cfg.to_yaml() == ExperimentConfig.from_yaml(exact).to_yaml()
        assert cfg.training.hidden == (8, 4)
        assert type(cfg.training.learning_rate) is float

    def test_hash_changes_with_content(self):
        cfg = ExperimentConfig.from_yaml(GOOD_YAML)
        other = ExperimentConfig.from_yaml(GOOD_YAML.replace("seed: 7", "seed: 8"))
        assert cfg.hash() != other.hash()


class TestPresets:
    def test_all_fifteen_rows_present(self):
        assert len(preset_names()) == 15

    def test_every_preset_validates_at_both_scales(self):
        for name in preset_names():
            for desk in (False, True):
                cfg = build_preset(name, desk=desk)
                cfg.validate()
                assert sum(g.capacity for g in cfg.grids) == cfg.bin_budget

    def test_full_scale_bin_budget_is_2500(self):
        for name in preset_names():
            cfg = build_preset(name)
            assert cfg.bin_budget == 2500

    def test_qt_reco_4_ns_row(self):
        cfg = build_preset("qt-reco-4-ns")
        assert len(cfg.grids) == 4
        assert all(g.shape == (25, 25) and g.fd == "ae_qt" for g in cfg.grids)
        assert cfg.search.sharing == "non_shared"
        assert cfg.training.strategy == "online"
        assert cfg.training.diversity.kind == "none"
        assert cfg.search.evaluation_budget == 100_000
        assert cfg.search.initialization_budget == 10_000
        assert cfg.search.batch_size == 1_000
        assert cfg.training.period == 5_000

    def test_pt_reco_4_row(self):
        cfg = build_preset("pt-reco-4")
        assert cfg.training.strategy == "pre_trained"
        assert cfg.search.sharing == "shared"
        assert all(g.fd == "ae" for g in cfg.grids)

    def test_full_scale_training_schedule(self):
        cfg = build_preset("qt-reco-4")
        assert cfg.training.epochs == 200
        assert cfg.training.learning_rate == 0.1
        assert cfg.training.batch_size == 1024
        assert cfg.training.validation_split == 0.25
        assert cfg.training.diversity.weight == 1.0
        assert cfg.search.mutation.probability == 0.1
        assert cfg.search.mutation.eta == 20.0
        params = cfg.task.params
        assert params["episode_steps"] == 300
        assert params["obs_window"] == 30
        assert params["episodes_per_eval"] == 5

    def test_grid_splits_match_case_matrix(self):
        shapes6 = [g.shape for g in build_preset("qt-reco-6-ns").grids]
        assert shapes6 == [(20, 20)] * 5 + [(20, 25)]
        shapes9 = [g.shape for g in build_preset("qt-reco-9-ns").grids]
        assert shapes9 == [(17, 16)] * 8 + [(18, 18)]
        shapes25 = [g.shape for g in build_preset("qt-reco-25-ns").grids]
        assert shapes25 == [(10, 10)] * 25

    def test_desk_preserves_categorical_fields(self):
        for name in preset_names():
            full = build_preset(name)
            desk = build_preset(name, desk=True)
            assert desk.search.sharing == full.search.sharing
            assert desk.training.strategy == full.training.strategy
            assert desk.training.diversity == full.training.diversity
            assert {g.fd for g in desk.grids} == {g.fd for g in full.grids}
            assert len(desk.grids) == len(full.grids)
            for section, key in [("search", "initialization_budget"),
                                 ("search", "evaluation_budget"),
                                 ("search", "batch_size"), ("training", "period")]:
                desk_value = getattr(getattr(desk, section), key)
                full_value = getattr(getattr(full, section), key)
                assert desk_value * DESK_SCALE == full_value, key

    def test_diversity_rows(self):
        assert build_preset("qt-outputs-4-ns").training.diversity.kind == "outputs"
        assert build_preset("qt-cmd-4-ns").training.diversity.kind == "cmd"
        covmin = build_preset("qt-covmin-4-ns").training.diversity
        covmax = build_preset("qt-covmax-4-ns").training.diversity
        assert covmin.kind == covmax.kind == "cov"
        assert covmin.sign != covmax.sign

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            build_preset("qt-reco-42")
