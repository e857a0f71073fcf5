"""Analysis configuration: mode switches and taxonomy.

The toolkit runs in one of two top-level modes. ``paper`` reproduces the
display and formula conventions of the source study's published tables;
``standard`` uses the textbook formulations. Each indicator also has its
own switch so a single convention can be overridden without leaving the
top-level mode.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any

from .model import PAGE_BINS

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

# Accepted values of ``mode`` and of each switch, in mode order.
_VALID = {
    "mode": tuple(_MODE_DEFAULTS),
    **{name: tuple(defaults[name] for defaults in _MODE_DEFAULTS.values())
       for name in _SWITCHES},
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Mode switches and structural settings for one analysis run.

    Per-indicator fields left as ``None`` follow the top-level ``mode``;
    explicit values override it and are echoed in output metadata.
    """

    mode: str = "paper"
    ci_variant: str | None = None
    egr_mode: str | None = None
    cagr_mode: str | None = None
    rgr_mode: str | None = None
    totals_source: str | None = None
    strict: bool = False
    study_window: tuple[int, int] | None = None
    taxonomy: tuple[str, ...] = DEFAULT_TAXONOMY
    absent_marker: str = "-"

    def __post_init__(self) -> None:
        for name, valid in _VALID.items():
            value = getattr(self, name)
            if value is not None and value not in valid:
                raise ValueError(f"invalid {name}: {value!r} (expected one of {valid})")

    def resolved(self, name: str) -> str:
        """Effective value of a per-indicator switch under the current mode."""
        explicit = getattr(self, name)
        if explicit is not None:
            return explicit
        return _MODE_DEFAULTS[self.mode][name]

    def to_dict(self) -> dict[str, Any]:
        """Effective configuration as a plain dict (for display and hashing)."""
        return {
            "mode": self.mode,
            **{name: self.resolved(name) for name in _SWITCHES},
            "strict": self.strict,
            "study_window": list(self.study_window) if self.study_window else None,
            "taxonomy": list(self.taxonomy),
            "page_bins": [[lo, hi] for _, _, lo, hi in PAGE_BINS],
            "absent_marker": self.absent_marker,
        }

    def overrides(self) -> dict[str, str]:
        """Per-indicator switches that depart from the mode's defaults."""
        out = {}
        for name in _SWITCHES:
            explicit = getattr(self, name)
            if explicit is not None and explicit != _MODE_DEFAULTS[self.mode][name]:
                out[name] = explicit
        return out

    def config_hash(self) -> str:
        """Short stable digest of the effective configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


#: The keys a config file may set for the analysis: the config's fields.
CONFIG_KEYS = tuple(f.name for f in fields(AnalysisConfig))


def _window(value: Any) -> tuple[int, int]:
    first, last = value
    return int(first), int(last)


def _taxonomy(value: Any) -> tuple[str, ...]:
    labels = tuple(str(t) for t in value)
    if "Others" not in labels or len(set(labels)) != len(labels):
        raise ValueError(value)
    return labels


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


# Keys whose values are checked for shape: expected shape (for error
# messages) and converter.
_SHAPED = {
    "study_window": ("[first, last]", _window),
    "taxonomy": ("distinct labels that include 'Others'", _taxonomy),
    "absent_marker": ("a string", _string),
}


def config_from_dict(data: dict[str, Any]) -> AnalysisConfig:
    """Build a config from file/CLI data, tolerating absent keys.

    A value of the wrong shape raises ``ValueError`` naming
    the key and the shape it needs.
    """
    known = {key: data[key] for key in CONFIG_KEYS if data.get(key) is not None}
    for key, (shape, convert) in _SHAPED.items():
        if key in known:
            try:
                known[key] = convert(known[key])
            except (TypeError, ValueError):
                raise ValueError(f"invalid {key}: {known[key]!r} (expected {shape})") from None
    return AnalysisConfig(**known)
