"""State-space Granger causality: models, Riccati solver, measures, transforms.

Each module's ``__all__`` is the one list of its public names; the package
exports their concatenation.
"""

from . import dare, downsample, errors, filtering, fitting, gem, model, submodel, sweep, var1
from .dare import *
from .downsample import *
from .errors import *
from .filtering import *
from .fitting import *
from .gem import *
from .model import *
from .submodel import *
from .sweep import *
from .var1 import *

__version__ = "0.1.0"

__all__ = (
    dare.__all__
    + downsample.__all__
    + errors.__all__
    + filtering.__all__
    + fitting.__all__
    + gem.__all__
    + model.__all__
    + submodel.__all__
    + sweep.__all__
    + var1.__all__
)
