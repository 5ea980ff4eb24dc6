"""Auction mechanisms for renting graph-shaped compute jobs to VM sellers.

The package models buyers (job components with utility-of-service values),
sellers (capability-ranked VM slots offered by service providers), an exact
welfare-maximizing auction with pivot payments, a fast greedy matching built
on preference lists, and three baseline allocators for comparison.
"""
from . import baselines, economics, generator, harness, matching, model, optimal
from .model import *  # noqa: F403
from .economics import *  # noqa: F403
from .optimal import *  # noqa: F403
from .matching import *  # noqa: F403
from .baselines import *  # noqa: F403
from .generator import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"

# Each module's public names, once each.
__all__ = list(
    dict.fromkeys(
        name
        for mod in (model, economics, optimal, matching, baselines, generator, harness)
        for name in mod.__all__
    )
) + ["__version__"]
