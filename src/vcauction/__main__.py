"""`python -m vcauction`: the `vcauction` command."""
from .cli import entrypoint

entrypoint()
