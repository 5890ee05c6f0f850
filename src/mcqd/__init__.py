"""mcqd: multi-container quality-diversity search with learned descriptors.

Several grid archives are illuminated at once, each with its own feature
descriptor space; the learned spaces are the latent codes of a modular
auto-encoder ensemble trained online on everything the search has accepted,
optionally uniformized with a quantile transform.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    AddOutcome,
    ConfigurationError,
    DepotContainer,
    EmptyContainerError,
    GridContainer,
    InvalidValueError,
    StructuralError,
)
from .engine import (  # noqa: F401
    Engine,
    mutate_polynomial,
    select_curiosity_roulette,
)
from .config import (  # noqa: F401
    ExperimentConfig,
    SearchSection,
    TrainingSection,
    build_preset,
    preset_names,
)
from .postprocess import QuantileTransform  # noqa: F401
from .tasks import make_task  # noqa: F401
