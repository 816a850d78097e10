"""Boolean ``REPRO_*`` switches, parsed one way everywhere."""

import os
from typing import Optional

_SPELLINGS = {"1": True, "true": True, "yes": True, "on": True,
              "": False, "0": False, "false": False, "no": False, "off": False}


def env_flag(name: str) -> Optional[bool]:
    """The switch in environment variable ``name``: None when unset, else
    its spelling (case and blanks ignored) looked up in ``_SPELLINGS``;
    any other value raises :class:`ValueError` naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return _SPELLINGS[raw.strip().lower()]
    except KeyError:
        raise ValueError(
            f"{name}={raw!r} is not a boolean switch; use 1/true/yes/on "
            f"or 0/false/no/off"
        ) from None
