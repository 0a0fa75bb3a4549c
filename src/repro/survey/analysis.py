"""Survey-corpus analysis (the numbers behind paper Fig. 3).

Percentage distributions of the 51 included articles by paper type and
publisher, plus the taxonomy-coverage cross-tabulation that the
paper's Sec. IV survey tables correspond to.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.core.taxonomy import find_node
from repro.survey.corpus import CORPUS, Article, Publisher, VenueType


def _percentages(counter: Counter, total: int) -> Dict[str, float]:
    return {str(k): 100.0 * v / total for k, v in sorted(counter.items())}


def distribution_by_type(corpus: Optional[List[Article]] = None) -> Dict[str, float]:
    """% of articles per venue type (journal/conference/workshop)."""
    corpus = corpus if corpus is not None else CORPUS
    if not corpus:
        raise ValueError("empty corpus")
    counts = Counter(a.venue_type.value for a in corpus)
    return _percentages(counts, len(corpus))


def distribution_by_publisher(
    corpus: Optional[List[Article]] = None,
) -> Dict[str, float]:
    """% of articles per publisher (IEEE/ACM/Springer/Elsevier/USENIX/Other)."""
    corpus = corpus if corpus is not None else CORPUS
    if not corpus:
        raise ValueError("empty corpus")
    counts = Counter(a.publisher.value for a in corpus)
    return _percentages(counts, len(corpus))


def taxonomy_coverage(corpus: Optional[List[Article]] = None) -> Dict[str, int]:
    """Article count per taxonomy category (an article may tag several)."""
    corpus = corpus if corpus is not None else CORPUS
    counts: Counter = Counter()
    for art in corpus:
        for cat in art.categories:
            find_node(cat)  # raises KeyError on stale tags
            counts[cat] += 1
    return dict(sorted(counts.items()))
