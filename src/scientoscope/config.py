"""Analysis configuration: mode switches and taxonomy.

The toolkit runs in one of two top-level modes. ``paper`` reproduces the
display and formula conventions of the source study's published tables;
``standard`` uses the textbook formulations. Each indicator also has its
own switch so a single convention can be overridden without leaving the
top-level mode.

:class:`AnalysisConfig` is the one settings object of a run. It checks
every field in one place, however it is built, config files included
(:func:`config_from_dict`); the loaders, table builders and renderers
read it as it is.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from typing import Any

from .model import PAGE_BINS, Checked

#: Subject taxonomy of the bundled demonstration dataset, in display order.
#: "Others" is the catch-all every unknown label maps to.
DEFAULT_TAXONOMY: tuple[str, ...] = (
    "Scientometrics, Bibliometrics",
    "Webometrics",
    "User survey",
    "E-Resources",
    "Information Seeking Behaviour",
    "Knowledge Management",
    "Library Services",
    "ICT",
    "Digital Libraries",
    "Open Access",
    "Library Automation",
    "Search Engines",
    "Social Networks",
    "Others",
)

# The per-indicator switches and the value each top-level mode gives them.
_MODE_DEFAULTS = {
    "paper": {
        "ci_variant": "printed",
        "egr_mode": "paper",
        "cagr_mode": "paper_years",
        "rgr_mode": "paper",
        "totals_source": "rounded_cells",
    },
    "standard": {
        "ci_variant": "stated",
        "egr_mode": "log",
        "cagr_mode": "intervals",
        "rgr_mode": "standard",
        "totals_source": "full_precision",
    },
}

_SWITCHES = tuple(_MODE_DEFAULTS["paper"])
MODES = tuple(_MODE_DEFAULTS)

# Accepted values of ``mode`` and of each switch, in mode order.
_VALID = {
    "mode": MODES,
    **{name: tuple(defaults[name] for defaults in _MODE_DEFAULTS.values())
       for name in _SWITCHES},
}


def _window(value: Any) -> bool:
    # Exactly two JSON integers: a float is not truncated, and true is no year.
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(year) is int for year in value) and value[0] <= value[1])


def _taxonomy(value: Any) -> bool:
    return (isinstance(value, (list, tuple)) and all(isinstance(t, str) for t in value)
            and "Others" in value and len(set(value)) == len(value))


# Each field's test and the shape its error message asks for, in check order.
_RULES = {
    "strict": (lambda value: isinstance(value, bool), "true or false"),
    "study_window": (_window, "[first, last]"),
    "taxonomy": (_taxonomy, "distinct labels that include 'Others'"),
    "absent_marker": (lambda value: isinstance(value, str), "a string"),
    **{name: (valid.__contains__, f"one of {valid}") for name, valid in _VALID.items()},
}


class AnalysisConfig(Checked, namedtuple(
        "AnalysisConfig", "mode ci_variant egr_mode cagr_mode rgr_mode totals_source strict "
        "study_window taxonomy absent_marker",
        defaults=("paper", None, None, None, None, None, False, None, DEFAULT_TAXONOMY, "-"))):
    """Mode switches and structural settings for one analysis run.

    Every construction path checks every field against ``_RULES``;
    ``None`` passes only where it is the field's default. A per-indicator
    switch left ``None`` then takes its ``mode``'s value, so configs that
    run the same way are equal. A switch is fixed when the config is
    built: ``_replace(mode=...)`` keeps the switches, which then show as
    overrides; build a new config to change the mode. A list, as a JSON
    config gives ``study_window`` and ``taxonomy``, is stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        switches = _MODE_DEFAULTS[self.mode]
        return tuple.__new__(cls, (
            switches.get(name) if v is None else tuple(v) if isinstance(v, list) else v
            for name, v in zip(cls._fields, self)))

    def _check(self) -> None:
        for name, (test, shape) in _RULES.items():
            value = getattr(self, name)
            if not (value is None and self._field_defaults[name] is None or test(value)):
                raise ValueError(f"invalid {name}: {value!r} (expected {shape})")

    def to_dict(self) -> dict[str, Any]:
        """Effective configuration as a plain dict (for display and hashing)."""
        return {
            "mode": self.mode,
            **{name: getattr(self, name) for name in _SWITCHES},
            "strict": self.strict,
            "study_window": list(self.study_window) if self.study_window else None,
            "taxonomy": list(self.taxonomy),
            "page_bins": [[lo, hi] for _, _, lo, hi in PAGE_BINS],
            "absent_marker": self.absent_marker,
        }

    def overrides(self) -> dict[str, str]:
        """Per-indicator switches that depart from the mode's defaults."""
        return {name: getattr(self, name) for name, default in _MODE_DEFAULTS[self.mode].items()
                if getattr(self, name) != default}

    def config_hash(self) -> str:
        """Short stable digest of the effective configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def config_from_dict(data: dict[str, Any]) -> AnalysisConfig:
    """Build a config from the known, non-null keys of file/CLI data.

    The constructor checks every value: a bad one raises ``ValueError``
    naming the key and the shape it needs.
    """
    return AnalysisConfig(**{key: data[key] for key in AnalysisConfig._fields
                             if data.get(key) is not None})
