"""Experiment configuration: strict YAML schema, validation, named presets.

Configs are plain YAML with named sections.  Unknown keys are hard errors
(silent hyper-parameter typos have ruined enough experiments), and
diagnostics carry the line number of the offending section.  Every preset of
the case matrix is available at full scale and at a desk scale that divides
the budgets by ten and shrinks each grid to 10x10.

YAML is read and written only by ``ExperimentConfig.from_yaml`` (which
``from_file`` calls) and ``to_yaml``, which import PyYAML when first called.
A replicate worker receives its config pickled and never loads PyYAML.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .core import ConfigurationError

_REQUIRED = object()


@functools.cache
def _line_loader():
    """A SafeLoader that records the source line of every mapping, under
    ``__line__``, and of each of its keys, under ``__key_lines__``; built on
    the first parse."""
    import yaml

    def mapping_with_line(loader, node, deep=False):
        mapping = yaml.SafeLoader.construct_mapping(loader, node, deep=deep)
        mapping["__line__"] = node.start_mark.line + 1
        mapping["__key_lines__"] = {loader.construct_object(key): key.start_mark.line + 1
                                    for key, _ in node.value}
        return mapping

    class LineLoader(yaml.SafeLoader):
        pass

    LineLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
                               mapping_with_line)
    return LineLoader


_LINE_MARKERS = ("__line__", "__key_lines__")


def _strip_lines(data):
    """Drop the line markers the loader injects into nested mappings."""
    if isinstance(data, dict):
        return {k: _strip_lines(v) for k, v in data.items() if k not in _LINE_MARKERS}
    if isinstance(data, list):
        return [_strip_lines(v) for v in data]
    return data


def _config_error(line, message) -> ConfigurationError:
    """An error about the config, starting with ``line N:`` when its line is
    known; a config given as a plain dict has no lines, which read 0."""
    return ConfigurationError(f"line {line}: {message}" if line else message)


class _Section:
    """Strict view over one mapping: every key must be consumed."""

    def __init__(self, data, name, line=0, lines=None):
        if not isinstance(data, dict):
            raise _config_error(line, f"section {name!r} must be a mapping")
        self._data = dict(data)
        self.name = name
        self.line = self._data.pop("__line__", line)
        self._key_lines = self._data.pop("__key_lines__", {})
        # section name -> first line, shared by a root and its subsections
        self.lines = {} if lines is None else lines
        self.lines[name] = self.line

    def take(self, key, default=_REQUIRED):
        if key in self._data:
            return self._data.pop(key)
        if default is _REQUIRED:
            raise _config_error(self.line,
                                f"missing key {key!r} in section {self.name!r}")
        return default

    def take_as(self, key, kind, default=_REQUIRED):
        """``take`` converted to the field type ``kind`` (a key of
        ``_COERCE``); a value that does not convert is an error."""
        value = self.take(key, default)
        try:
            return _COERCE.get(kind, lambda v: v)(value)
        except (TypeError, ValueError):
            raise _config_error(
                self.line, f"key {key!r} in section {self.name!r} must be "
                f"{kind}, got {_strip_lines(value)!r}") from None

    def subsection(self, key, default=_REQUIRED):
        """The mapping at ``key``; null reads as an empty one.  A value that
        is not a mapping is an error at the key's own line."""
        value = self.take(key, default)
        return _Section({} if value is None else value, f"{self.name}.{key}",
                        self._key_lines.get(key, self.line), self.lines)

    def finish(self):
        leftovers = list(self._data)
        if leftovers:
            raise _config_error(
                self.line, f"unknown key(s) {leftovers} in section {self.name!r}")


SHARING_STRATEGIES = ("shared", "non_shared")
TRAINING_STRATEGIES = ("none", "pre_trained", "online")
FD_TYPES = ("hardcoded", "ae", "ae_qt")
DIVERSITY_KINDS = ("none", "outputs", "cov", "cmd")
# the terms computed from a covariance, which needs two rows
COVARIANCE_KINDS = ("cov", "cmd")


@dataclass
class GridSpec:
    shape: tuple[int, ...]
    fd: str  # one of FD_TYPES

    @property
    def capacity(self) -> int:
        return math.prod(self.shape)


# Each section below is one YAML mapping: a field is a key, its default is
# the key's default, and a field whose default is a section is a nested
# mapping.  ``from_dict`` and ``to_dict`` are derived from these classes.

@dataclass
class TaskSection:
    name: str = "surrogate_walker"
    params: dict = field(default_factory=dict)


@dataclass
class MutationSection:
    """Bounded polynomial mutation; the bounds are the task's genome bounds."""

    probability: float = 0.1
    eta: float = 20.0


@dataclass
class CuriositySection:
    """Per-parent score bookkeeping: reward on any accepted offspring,
    penalty otherwise, clamped at a strictly positive floor so every elite
    keeps nonzero selection probability."""

    success_delta: float = 1.0
    failure_delta: float = -0.5
    floor: float = 0.01
    initial: float = 1.0


@dataclass
class SearchSection:
    sharing: str = "shared"  # one of SHARING_STRATEGIES
    initialization_budget: int = 1000
    evaluation_budget: int = 10000
    batch_size: int = 100
    mutation: MutationSection = field(default_factory=MutationSection)
    curiosity: CuriositySection = field(default_factory=CuriositySection)


@dataclass
class DiversitySection:
    kind: str = "none"  # one of DIVERSITY_KINDS
    weight: float = 1.0
    sign: int = -1


@dataclass
class TrainingSection:
    strategy: str = "online"  # one of TRAINING_STRATEGIES
    period: int = 5000
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 1024
    validation_split: float = 0.25
    latent_dim: int = 2
    hidden: tuple[int, ...] = (16, 5)
    dropout: float = 0.2
    quantiles: int = 1000
    diversity: DiversitySection = field(default_factory=DiversitySection)


# Keys older configs carry that no longer select anything: they are read
# and dropped, so they change neither the config nor its hash.  Every run
# directory written before the evaluation thread pool was removed has
# ``search.n_workers: 1`` in its config.yaml.
_RETIRED_KEYS = {SearchSection: ("n_workers",)}


def _to_str(value) -> str:
    """``str(value)`` of a scalar; a list or a mapping is an error rather
    than becoming its repr."""
    if isinstance(value, (list, tuple, dict)):
        raise TypeError(value)
    return str(value)


def _to_int(value) -> int:
    """``int(value)``, except that a boolean or a float with a fractional part
    is an error rather than silently becoming 1 or a truncated count."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _to_float(value) -> float:
    """``float(value)``, except that a boolean is an error, not 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _to_int_tuple(value) -> tuple[int, ...]:
    """A list of ints; any other value, a string among them, is an error
    rather than being split into its characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    return tuple(_to_int(v) for v in value)


def _to_dict(value) -> dict:
    """A mapping, with null read as an empty one; any other value is an error."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise TypeError(value)
    return _strip_lines(value)


# Field annotation -> conversion of the YAML value.
_COERCE = {
    "str": _to_str,
    "int": _to_int,
    "float": _to_float,
    "tuple[int, ...]": _to_int_tuple,
    "dict": _to_dict,
}


def _take_fields(cls, sec: _Section, names=None) -> dict:
    """Read the fields of dataclass ``cls`` (all, or those in ``names``, in
    field order) from ``sec``; a nested section is read and finished whole."""
    values = {}
    for f in fields(cls):
        if names is not None and f.name not in names:
            continue
        if is_dataclass(f.default_factory):
            values[f.name] = _load(f.default_factory, sec.subsection(f.name, {}))
            continue
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = _REQUIRED
        values[f.name] = sec.take_as(f.name, f.type, default)
    return values


def _load(cls, sec: _Section):
    for key in _RETIRED_KEYS.get(cls, ()):
        sec.take(key, None)
    values = _take_fields(cls, sec)
    sec.finish()
    return cls(**values)


def _plain(value):
    """YAML- and JSON-ready copy of ``asdict`` output: tuples become lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class ExperimentConfig:
    case: str
    seed: int = 0
    replicates: int = 1
    output_dir: str | None = None
    bin_budget: int = 2500
    grids: list[GridSpec] = field(default_factory=list)
    task: TaskSection = field(default_factory=TaskSection)
    search: SearchSection = field(default_factory=SearchSection)
    training: TrainingSection = field(default_factory=TrainingSection)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        import yaml

        try:
            data = yaml.load(text, Loader=_line_loader())
        except yaml.MarkedYAMLError as exc:
            mark = exc.problem_mark
            raise _config_error(mark.line + 1 if mark else 0,
                                f"invalid YAML: {exc.problem}")
        if not isinstance(data, dict):
            raise ConfigurationError("line 1: config must be a YAML mapping")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_yaml(fh.read())

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        root = _Section(data, "config")
        values = _take_fields(cls, root, ("case", "seed", "replicates",
                                          "output_dir", "task"))

        cont_sec = root.subsection("containers")
        values["bin_budget"] = cont_sec.take_as("bin_budget", "int")
        grids = values["grids"] = []
        raw_grids = cont_sec.take("grids")
        if not isinstance(raw_grids, list) or not raw_grids:
            raise _config_error(cont_sec.line,
                                "containers.grids must be a non-empty list")
        for g in raw_grids:
            gsec = _Section(g, "containers.grids[]", cont_sec.line)
            shape = gsec.take_as("shape", "tuple[int, ...]")
            fd = gsec.take_as("fd", "str")
            count = gsec.take_as("count", "int", 1)
            gsec.finish()
            for _ in range(count):
                root.lines[f"config.containers.grids[{len(grids)}]"] = gsec.line
                grids.append(GridSpec(shape=shape, fd=fd))
        cont_sec.finish()

        values.update(_take_fields(cls, root, ("search", "training")))
        root.finish()

        config = cls(**values)
        config.validate(root.lines)
        return config

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d = _plain(asdict(self))
        head = {key: d.pop(key) for key in ("case", "seed", "replicates", "output_dir")}
        containers = {"bin_budget": d.pop("bin_budget"), "grids": d.pop("grids")}
        return {**head, "containers": containers, **d}

    def to_yaml(self) -> str:
        import yaml

        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    def hash(self) -> str:
        """Identity hash of the experiment."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- validation -------------------------------------------------------

    def validate(self, lines=None) -> None:
        """Check the values; the only owner of every check that needs no
        task.  A loaded config is checked as it loads, and ``run_experiment``
        checks again first, so a config built or changed in Python fails the
        same way, before any run directory exists.

        ``lines`` maps the sections of a config read from YAML to their first
        lines (``from_dict`` passes it; a plain dict has none, which reads
        0); an error about one of them then starts with ``line N:``, as a
        parse error does.
        """
        lines = lines or {}

        def error(section, message):
            return _config_error(lines.get(section), message)

        for i, g in enumerate(self.grids):
            if not g.shape or min(g.shape) < 1:
                raise error(
                    f"config.containers.grids[{i}]",
                    f"grid {i} has shape {list(g.shape)}; a grid needs at least one "
                    "dimension and every dimension >= 1")
        capacities = sum(g.capacity for g in self.grids)
        if capacities != self.bin_budget:
            raise error(
                "config.containers",
                f"grid capacities sum to {capacities}, bin budget is {self.bin_budget}")
        if self.search.sharing not in SHARING_STRATEGIES:
            raise error("config.search", f"unknown sharing {self.search.sharing!r}")
        if self.training.strategy not in TRAINING_STRATEGIES:
            raise error("config.training",
                        f"unknown training strategy {self.training.strategy!r}")
        if self.training.diversity.kind not in DIVERSITY_KINDS:
            raise error(
                "config.training.diversity",
                f"unknown diversity kind {self.training.diversity.kind!r}")
        if self.training.diversity.sign not in (1, -1):
            raise error("config.training.diversity", "diversity sign must be +1 or -1")
        if not 0.0 < self.training.validation_split < 1.0:
            raise error("config.training", "training.validation_split must be in (0, 1)")
        if not 0.0 <= self.training.dropout < 1.0:
            raise error("config.training", "training.dropout must be in [0, 1)")
        if any(width < 1 for width in self.training.hidden):
            raise error("config.training", "training.hidden widths must be >= 1")
        for name in ("period", "epochs", "batch_size"):
            if getattr(self.training, name) < 1:
                raise error("config.training", f"training.{name} must be >= 1")
        if self.training.quantiles < 2:
            raise error("config.training", "training.quantiles must be >= 2")
        if self.training.learning_rate < 0:
            raise error("config.training", "training.learning_rate must be >= 0")
        if self.search.curiosity.floor <= 0:
            raise error("config.search.curiosity",
                        "search.curiosity.floor must be positive")
        if not 0.0 <= self.search.mutation.probability <= 1.0:
            raise error("config.search.mutation",
                        "search.mutation.probability must be in [0, 1]")
        if self.search.mutation.eta <= 0:
            raise error("config.search.mutation", "search.mutation.eta must be positive")
        kinds = {g.fd for g in self.grids}
        unknown = kinds - set(FD_TYPES)
        if unknown:
            first = next(i for i, g in enumerate(self.grids) if g.fd in unknown)
            raise error(f"config.containers.grids[{first}]",
                        f"unknown fd type(s) {sorted(unknown)}")
        learned = kinds - {"hardcoded"}
        if learned and self.training.strategy == "none":
            raise error("config.training",
                        "learned descriptors need training strategy != none")
        if not learned and self.training.strategy != "none":
            raise error("config.training",
                        "hardcoded descriptors require training strategy none")
        for i, g in enumerate(self.grids):
            if g.fd in learned and len(g.shape) != self.training.latent_dim:
                raise error(
                    f"config.containers.grids[{i}]",
                    f"learned grid shape {list(g.shape)} must have "
                    f"training.latent_dim = {self.training.latent_dim} dimensions")
        if self.seed < 0:
            raise error("config", "seed must be >= 0")
        if self.replicates < 1:
            raise error("config", "replicates must be >= 1")
        for name, value in (("initialization_budget", self.search.initialization_budget),
                            ("evaluation_budget", self.search.evaluation_budget),
                            ("batch_size", self.search.batch_size)):
            if value < 1:
                raise error("config.search", f"search.{name} must be >= 1")
        # A covariance term needs two rows in every batch it sees, and a
        # quantile fit two samples.
        n_learned = sum(g.fd in learned for g in self.grids)
        div = self.training.diversity
        covariance = n_learned > 0 and div.kind in COVARIANCE_KINDS and div.weight != 0
        if self.search.initialization_budget < 2 and (covariance or "ae_qt" in kinds):
            raise error(
                "config.search",
                "search.initialization_budget must be >= 2 with an ae_qt grid or a "
                "cov or cmd diversity term")
        if covariance and self.training.batch_size < 2:
            raise error(
                "config.training",
                f"training.batch_size must be >= 2 with {div.kind} diversity")
        if div.kind == "cmd" and n_learned >= 2 and self.training.latent_dim < 2:
            raise error(
                "config.training",
                "cmd diversity over two or more learned grids needs "
                "training.latent_dim >= 2")


# ---------------------------------------------------------------------------
# Presets: the standard case matrix
# ---------------------------------------------------------------------------

# name -> (fd type, sharing, training strategy, diversity kind/weight/sign,
#          grid layout).  Grid layout is a list of (count, shape).
# Diversity signs follow the combined-loss convention
# recons + sign*weight*term: the outputs/cmd cases and covmin maximize their
# diversity term (sign -1); covmax penalizes the covariance term (sign +1).
_PRESET_ROWS = {
    "hardcoded-4": ("hardcoded", "shared", "none", ("none", 1.0, -1), [(4, (25, 25))]),
    "hardcoded-4-ns": ("hardcoded", "non_shared", "none", ("none", 1.0, -1), [(4, (25, 25))]),
    "pt-reco-4": ("ae", "shared", "pre_trained", ("none", 1.0, -1), [(4, (25, 25))]),
    "reco-4": ("ae", "shared", "online", ("none", 1.0, -1), [(4, (25, 25))]),
    "qt-reco-4": ("ae_qt", "shared", "online", ("none", 1.0, -1), [(4, (25, 25))]),
    "qt-reco-4-ns": ("ae_qt", "non_shared", "online", ("none", 1.0, -1), [(4, (25, 25))]),
    "hardcoded-1": ("hardcoded", "shared", "none", ("none", 1.0, -1), [(1, (50, 50))]),
    "qt-reco-1": ("ae_qt", "shared", "online", ("none", 1.0, -1), [(1, (50, 50))]),
    "qt-reco-6-ns": ("ae_qt", "non_shared", "online", ("none", 1.0, -1),
                     [(5, (20, 20)), (1, (20, 25))]),
    "qt-reco-9-ns": ("ae_qt", "non_shared", "online", ("none", 1.0, -1),
                     [(8, (17, 16)), (1, (18, 18))]),
    "qt-reco-25-ns": ("ae_qt", "non_shared", "online", ("none", 1.0, -1),
                      [(25, (10, 10))]),
    "qt-outputs-4-ns": ("ae_qt", "non_shared", "online", ("outputs", 1.0, -1),
                        [(4, (25, 25))]),
    "qt-covmin-4-ns": ("ae_qt", "non_shared", "online", ("cov", 1.0, -1),
                       [(4, (25, 25))]),
    "qt-covmax-4-ns": ("ae_qt", "non_shared", "online", ("cov", 1.0, 1),
                       [(4, (25, 25))]),
    "qt-cmd-4-ns": ("ae_qt", "non_shared", "online", ("cmd", 1.0, -1),
                    [(4, (25, 25))]),
}

DESK_SCALE = 10  # desk budgets, batch and period divided by this; grids 10x10


def preset_names() -> list[str]:
    return list(_PRESET_ROWS)


def build_preset(name: str, desk: bool = False, seed: int = 0,
                 replicates: int = 1, output_dir: str | None = None) -> ExperimentConfig:
    """One row of the case matrix as a ready-to-run config.

    ``desk`` keeps every categorical field and divides the initialization
    and evaluation budgets, the batch size and the training period by
    ``DESK_SCALE``, with one 10x10 grid per container and a shorter
    episode.  Both scales share the auto-encoder topology; the learning rate
    is 0.1 at full scale and 0.01 at desk scale.
    """
    if name not in _PRESET_ROWS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(_PRESET_ROWS)}")
    fd, sharing, strategy, (div_kind, div_weight, div_sign), layout = _PRESET_ROWS[name]

    init_budget, eval_budget, batch, period = 10000, 100000, 1000, 5000
    if desk:
        grids = [GridSpec(shape=(10, 10), fd=fd)
                 for count, _ in layout for _ in range(count)]
        task_params = {"episode_steps": 150, "obs_window": 15, "episodes_per_eval": 5}
        init_budget, eval_budget, batch, period = (
            v // DESK_SCALE for v in (init_budget, eval_budget, batch, period))
        lr, epochs = 0.01, 50
    else:
        grids = [GridSpec(shape=shape, fd=fd)
                 for count, shape in layout for _ in range(count)]
        task_params = {"episode_steps": 300, "obs_window": 30, "episodes_per_eval": 5}
        lr, epochs = 0.1, 200

    return ExperimentConfig(
        case=name,
        seed=seed,
        replicates=replicates,
        output_dir=output_dir,
        bin_budget=sum(g.capacity for g in grids),
        grids=grids,
        task=TaskSection(name="surrogate_walker", params=task_params),
        search=SearchSection(
            sharing=sharing,
            initialization_budget=init_budget,
            evaluation_budget=eval_budget,
            batch_size=batch,
        ),
        training=TrainingSection(
            strategy=strategy,
            period=period,
            epochs=epochs,
            learning_rate=lr,
            diversity=DiversitySection(kind=div_kind, weight=div_weight, sign=div_sign),
        ),
    )
