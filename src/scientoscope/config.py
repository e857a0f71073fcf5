"""Analysis configuration: mode switches, binning, and taxonomy.

The toolkit runs in one of two top-level modes. ``paper`` reproduces the
display and formula conventions of the source study's published tables;
``standard`` uses the textbook formulations. Each indicator also has its
own switch so a single convention can be overridden without leaving the
top-level mode.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

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

#: Inclusive page-count bins; ``None`` marks an open upper end.
DEFAULT_PAGE_BINS: tuple[tuple[int, int | None], ...] = ((1, 5), (6, 10), (11, None))

# Per-indicator defaults implied by each top-level mode.
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

_VALID = {
    "mode": ("paper", "standard"),
    "ci_variant": ("printed", "stated"),
    "egr_mode": ("paper", "log"),
    "cagr_mode": ("paper_years", "intervals"),
    "rgr_mode": ("paper", "standard"),
    "totals_source": ("rounded_cells", "full_precision"),
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
    page_bins: tuple[tuple[int, int | None], ...] = DEFAULT_PAGE_BINS
    absent_marker: str = "-"

    def __post_init__(self) -> None:
        for name in ("mode", "ci_variant", "egr_mode", "cagr_mode", "rgr_mode", "totals_source"):
            value = getattr(self, name)
            if value is not None and value not in _VALID[name]:
                raise ValueError(f"invalid {name}: {value!r} (expected one of {_VALID[name]})")

    def resolved(self, name: str) -> str:
        """Effective value of a per-indicator switch under the current mode."""
        explicit = getattr(self, name)
        if explicit is not None:
            return explicit
        return _MODE_DEFAULTS[self.mode][name]

    def with_overrides(self, **kwargs: Any) -> "AnalysisConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self

    def to_dict(self) -> dict[str, Any]:
        """Effective configuration as a plain dict (for display and hashing)."""
        return {
            "mode": self.mode,
            "ci_variant": self.resolved("ci_variant"),
            "egr_mode": self.resolved("egr_mode"),
            "cagr_mode": self.resolved("cagr_mode"),
            "rgr_mode": self.resolved("rgr_mode"),
            "totals_source": self.resolved("totals_source"),
            "strict": self.strict,
            "study_window": list(self.study_window) if self.study_window else None,
            "taxonomy": list(self.taxonomy),
            "page_bins": [[lo, hi] for lo, hi in self.page_bins],
            "absent_marker": self.absent_marker,
        }

    def overrides(self) -> dict[str, str]:
        """Per-indicator switches that depart from the mode's defaults."""
        out = {}
        for name in ("ci_variant", "egr_mode", "cagr_mode", "rgr_mode", "totals_source"):
            explicit = getattr(self, name)
            if explicit is not None and explicit != _MODE_DEFAULTS[self.mode][name]:
                out[name] = explicit
        return out

    def config_hash(self) -> str:
        """Short stable digest of the effective configuration."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _window(value: Any) -> tuple[int, int]:
    first, last = value
    return int(first), int(last)


def _page_bins(value: Any) -> tuple[tuple[int, int | None], ...]:
    return tuple((int(lo), None if hi is None else int(hi)) for lo, hi in value)


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


# Keys whose values are checked for shape: expected shape (for error
# messages) and converter.
_SHAPED = {
    "study_window": ("[first, last]", _window),
    "taxonomy": ("a list of labels", lambda value: tuple(str(t) for t in value)),
    "page_bins": ("a list of [low, high or null]", _page_bins),
    "absent_marker": ("a string", _string),
}


def config_from_dict(data: dict[str, Any]) -> AnalysisConfig:
    """Build a config from file/CLI data, tolerating absent keys.

    A value of the wrong shape raises ``ValueError`` naming
    the key and the shape it needs.
    """
    known: dict[str, Any] = {}
    for key in ("mode", "ci_variant", "egr_mode", "cagr_mode", "rgr_mode",
                "totals_source", "strict"):
        if data.get(key) is not None:
            known[key] = data[key]
    for key, (shape, convert) in _SHAPED.items():
        value = data.get(key)
        if value is not None:
            try:
                known[key] = convert(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid {key}: {value!r} (expected {shape})") from None
    return AnalysisConfig(**known)
