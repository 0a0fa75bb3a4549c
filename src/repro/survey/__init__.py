"""The paper's own survey apparatus (Sec. III, Figs. 1-4).

* :mod:`repro.survey.corpus` -- the 51-article corpus the paper surveys
  (reconstructed from its reference list; see the module docstring for the
  reconstruction caveat) with venue-type, publisher and taxonomy tags.
* :mod:`repro.survey.analysis` -- the distribution analysis behind Fig. 3
  and taxonomy cross-tabulations.
* :mod:`repro.survey.figures` -- text renderings of the paper's four
  figures, generated from the *live* objects (the platform model for
  Fig. 1, the I/O stack for Fig. 2, the corpus for Fig. 3, the taxonomy
  for Fig. 4) rather than hard-coded ASCII art.
"""

from repro.survey.corpus import (
    CORPUS,
    Article,
    Publisher,
    VenueType,
    articles_by_category,
)
from repro.survey.analysis import (
    distribution_by_publisher,
    distribution_by_type,
    taxonomy_coverage,
)
from repro.survey.figures import (
    fig1_platform,
    fig2_stack,
    fig3_distribution,
    fig4_cycle,
)

__all__ = [
    "Article",
    "CORPUS",
    "Publisher",
    "VenueType",
    "articles_by_category",
    "distribution_by_publisher",
    "distribution_by_type",
    "fig1_platform",
    "fig2_stack",
    "fig3_distribution",
    "fig4_cycle",
    "taxonomy_coverage",
]
