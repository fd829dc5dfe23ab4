"""Curvature, connectivity, and matching laboratory for locally finite graphs.

The package re-exports nothing, so that importing a module loads only what
that module needs: `curvlab check --help` and the commands that need no
numpy start without it.  Import from the modules, e.g. `curvlab.curvature`.
"""

__version__ = "0.1.0"
