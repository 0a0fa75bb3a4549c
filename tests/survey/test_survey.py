"""Unit tests for the survey corpus, analysis and figure renderers."""

from collections import Counter

import pytest

from repro.cluster import tiny_cluster
from repro.survey import (
    CORPUS,
    Publisher,
    VenueType,
    articles_by_category,
    distribution_by_publisher,
    distribution_by_type,
    fig1_platform,
    fig2_stack,
    fig3_distribution,
    fig4_cycle,
    taxonomy_coverage,
)
from repro.survey.corpus import Article


class TestCorpus:
    def test_exactly_51_articles(self):
        assert len(CORPUS) == 51  # the paper's Sec. III-B count

    def test_all_years_in_survey_window(self):
        assert all(2015 <= a.year <= 2020 for a in CORPUS)

    def test_year_validation_enforced(self):
        with pytest.raises(ValueError):
            Article(
                key="x", ref=1, first_author="X", year=2013, venue="V",
                venue_type=VenueType.JOURNAL, publisher=Publisher.IEEE,
            )

    def test_unique_keys_and_refs(self):
        keys = [a.key for a in CORPUS]
        refs = [a.ref for a in CORPUS]
        assert len(set(keys)) == len(keys)
        assert len(set(refs)) == len(refs)

    def test_every_article_categorised(self):
        assert all(a.categories for a in CORPUS)

    def test_categories_resolve_in_taxonomy(self):
        # taxonomy_coverage raises on stale tags.
        coverage = taxonomy_coverage()
        assert coverage  # non-empty

    def test_articles_by_category_inverts(self):
        by_cat = articles_by_category()
        assert "modeling.predictive" in by_cat
        keys = {a.key for a in by_cat["modeling.predictive"]}
        assert "schmid2016ann" in keys and "sun2020automated" in keys


class TestDistributions:
    def test_type_distribution_sums_to_100(self):
        dist = distribution_by_type()
        assert sum(dist.values()) == pytest.approx(100.0)
        assert set(dist) <= {"journal", "conference", "workshop"}

    def test_conferences_dominate(self):
        # The reconstructed corpus is conference-heavy, as HPC venues are.
        dist = distribution_by_type()
        assert dist["conference"] > dist["journal"]
        assert dist["conference"] > dist["workshop"]

    def test_publisher_distribution_sums_to_100(self):
        dist = distribution_by_publisher()
        assert sum(dist.values()) == pytest.approx(100.0)
        assert dist["IEEE"] > 0 and dist["ACM"] > 0

    def test_ieee_is_largest_publisher(self):
        dist = distribution_by_publisher()
        assert dist["IEEE"] == max(dist.values())

    def test_year_distribution_covers_window(self):
        years = Counter(a.year for a in CORPUS)
        assert min(years) == 2015 and max(years) == 2020
        assert sum(years.values()) == 51

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            distribution_by_type([])

    def test_emerging_workloads_underrepresented(self):
        """The paper's Sec. VI finding: few studies of emerging workloads."""
        coverage = taxonomy_coverage()
        emerging = sum(v for k, v in coverage.items() if k.startswith("emerging."))
        traditional = sum(
            v for k, v in coverage.items() if k.startswith("monitoring.")
        )
        assert emerging < traditional


class TestFigures:
    def test_fig1_reflects_platform(self):
        text = fig1_platform(tiny_cluster())
        assert "Figure 1" in text
        assert "c0" in text
        assert "mds0" in text and "oss0" in text
        assert "burst buffer" in text

    def test_fig2_lists_stack_layers_in_order(self):
        text = fig2_stack()
        hdf5 = text.index("HDF5")
        mpiio = text.index("MPI-IO")
        posix = text.index("POSIX")
        assert hdf5 < mpiio < posix

    def test_fig3_mentions_types_and_publishers(self):
        text = fig3_distribution()
        assert "51" in text
        assert "conference" in text
        assert "IEEE" in text
        assert "%" in text

    def test_fig4_shows_three_phases_and_loop(self):
        text = fig4_cycle()
        assert "(1) Measurements" in text
        assert "(2) Modeling" in text
        assert "(3) Simulation" in text
        assert "feedback" in text

    def test_fig4_with_modules(self):
        text = fig4_cycle(show_modules=True)
        assert "repro." in text
