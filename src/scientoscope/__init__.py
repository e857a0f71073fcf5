"""scientoscope: scientometric indicators over bibliographic record sets.

Ingests article records or pre-tabulated per-year aggregates and
computes publication growth, authorship, collaboration, productivity,
page-length, and subject distributions, with renderers for text, CSV,
JSON, and Markdown. A bundled five-year journal study serves as golden
data for the ``reproduce-paper`` command.
"""

from .config import DEFAULT_TAXONOMY, AnalysisConfig
from .distributions import (
    authorship_table,
    page_length_table,
    subject_table,
    year_distribution_table,
)
from .indicators import (
    author_productivity,
    cagr,
    collaboration_table,
    collaborative_index,
    degree_of_collaboration,
    egr_table,
    exponential_growth,
    productivity_table,
    relative_growth,
    rgr_table,
)
from .ingest import (
    aggregate_records,
    load,
    parse_aggregates,
    parse_records,
    sniff_granularity,
    validate,
    write_aggregates_csv,
)
from .model import (
    BibRecord,
    Dataset,
    Finding,
    ParseError,
    ValidationReport,
    YearAggregate,
)
from .report import (
    ColumnSpec,
    ReportTable,
    render,
    round_display,
    round_half_up,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BibRecord",
    "ColumnSpec",
    "DEFAULT_TAXONOMY",
    "Dataset",
    "Finding",
    "ParseError",
    "ReportTable",
    "ValidationReport",
    "YearAggregate",
    "aggregate_records",
    "author_productivity",
    "authorship_table",
    "cagr",
    "collaboration_table",
    "collaborative_index",
    "degree_of_collaboration",
    "egr_table",
    "exponential_growth",
    "load",
    "page_length_table",
    "parse_aggregates",
    "parse_records",
    "productivity_table",
    "relative_growth",
    "render",
    "rgr_table",
    "round_display",
    "round_half_up",
    "sniff_granularity",
    "subject_table",
    "validate",
    "write_aggregates_csv",
    "year_distribution_table",
]
