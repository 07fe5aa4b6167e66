"""Logging wiring for the ``repro`` logger hierarchy.

The package follows the stdlib library convention: everything logs to
children of the ``repro`` logger, which carries a ``NullHandler`` so an
un-configured application sees no spurious output and no "no handler"
warnings.  Applications opt in with their own ``logging`` config, or
via :func:`configure_logging` (what the CLI's ``--log-level`` flag
does).

Noteworthy events and their levels:

* ``DEBUG`` on ``repro.core.kernel`` — per-check path-elimination
  and divergence events (guarded so the hot loop pays one
  ``isEnabledFor`` per chunk when disabled);
* ``DEBUG`` on ``repro.transducer.join`` — join-time misspeculations
  and the ranges they force into sequential reprocessing;
* ``DEBUG`` on ``repro.core.speculative`` — grammar-learning progress.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["PACKAGE_LOGGER", "get_logger", "configure_logging"]

PACKAGE_LOGGER = "repro"

# library convention: silent until the application configures logging
logging.getLogger(PACKAGE_LOGGER).addHandler(logging.NullHandler())


def get_logger(suffix: str | None = None) -> logging.Logger:
    """The package logger, or a named child (``get_logger("join")``)."""
    if suffix:
        return logging.getLogger(f"{PACKAGE_LOGGER}.{suffix}")
    return logging.getLogger(PACKAGE_LOGGER)


def configure_logging(level: int | str = "INFO", stream=None) -> logging.Handler:
    """Attach a stream handler to the package logger at ``level``.

    Returns the handler so callers (and tests) can detach it again
    with ``logging.getLogger("repro").removeHandler(handler)``.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-5s %(name)s: %(message)s")
    )
    logger = logging.getLogger(PACKAGE_LOGGER)
    logger.addHandler(handler)
    logger.setLevel(level)
    return handler
