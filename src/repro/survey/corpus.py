"""The surveyed-article corpus.

The paper (Sec. III-B) reports including 51 research articles published
2015-2020, identified by keyword search; Fig. 3 shows their percentage
distribution by paper type and publisher.  The paper does not list the 51
articles explicitly, so this corpus is *reconstructed* from its reference
list: every 2015-2020 research article cited in the survey body (Secs.
IV-VI), trimmed to exactly 51 entries.  The reconstruction preserves the
properties the analysis depends on -- venue types, publishers, years, and
the taxonomy categories the text assigns -- and EXPERIMENTS.md records it
as an approximation of the (unpublished) exact set.

Taxonomy category tags use the node ids of
:data:`repro.core.taxonomy.TAXONOMY`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple


class VenueType(str, Enum):
    JOURNAL = "journal"
    CONFERENCE = "conference"
    WORKSHOP = "workshop"


class Publisher(str, Enum):
    IEEE = "IEEE"
    ACM = "ACM"
    SPRINGER = "Springer"
    ELSEVIER = "Elsevier"
    USENIX = "USENIX"
    OTHER = "Other"


@dataclass(frozen=True)
class Article:
    """One surveyed research article."""

    key: str
    ref: int  # reference number in the paper
    first_author: str
    year: int
    venue: str
    venue_type: VenueType
    publisher: Publisher
    categories: Tuple[str, ...] = ()

    def __post_init__(self):
        if not 2015 <= self.year <= 2020:
            raise ValueError(
                f"{self.key}: year {self.year} outside the survey window 2015-2020"
            )


def _a(key, ref, author, year, venue, vtype, pub, cats):
    return Article(
        key=key, ref=ref, first_author=author, year=year, venue=venue,
        venue_type=vtype, publisher=pub, categories=tuple(cats),
    )


_J, _C, _W = VenueType.JOURNAL, VenueType.CONFERENCE, VenueType.WORKSHOP
_IEEE, _ACM, _SPR = Publisher.IEEE, Publisher.ACM, Publisher.SPRINGER
_ELS, _USX, _OTH = Publisher.ELSEVIER, Publisher.USENIX, Publisher.OTHER

#: The reconstructed 51-article corpus.
CORPUS: List[Article] = [
    _a("herbein2016irregular", 11, "Herbein", 2016, "Parallel Computing", _J, _ELS,
       ["workloads.replication", "modeling.analysis.application"]),
    _a("dickson2016proxy", 12, "Dickson", 2016, "PDSW-DISCS", _W, _IEEE,
       ["workloads.replication", "modeling.analysis.application"]),
    _a("dickson2017portable", 13, "Dickson", 2017, "CUG", _C, _OTH,
       ["workloads.replication", "workloads.simulation"]),
    _a("logan2017skel", 14, "Logan", 2017, "CLUSTER", _C, _IEEE,
       ["workloads.replication"]),
    _a("hao2019autogen", 15, "Hao", 2019, "JPDC", _J, _ELS,
       ["workloads.replication", "monitoring.tracers", "modeling.replay"]),
    _a("luo2015extrap", 16, "Luo", 2015, "ESPT", _W, _ACM,
       ["workloads.replication", "monitoring.tracers", "modeling.replay",
        "simulation.trace"]),
    _a("luo2017scalaioextrap", 17, "Luo", 2017, "IPDPS", _C, _IEEE,
       ["workloads.replication", "monitoring.tracers", "modeling.replay",
        "simulation.trace"]),
    _a("haghdoost2017replay", 18, "Haghdoost", 2017, "FAST", _C, _USX,
       ["workloads.replication", "monitoring.tracers"]),
    _a("haghdoost2017hfplayer", 19, "Haghdoost", 2017, "ACM TOS", _J, _ACM,
       ["workloads.replication"]),
    _a("snyder2015iowa", 20, "Snyder", 2015, "PMBS", _W, _ACM,
       ["workloads.simulation", "modeling.generation", "simulation.des"]),
    _a("carothers2017durango", 21, "Carothers", 2017, "SIGSIM-PADS", _C, _ACM,
       ["workloads.simulation", "modeling.generation", "simulation.des"]),
    _a("xu2017dxt", 23, "Xu", 2017, "CUG", _C, _OTH,
       ["monitoring.profilers"]),
    _a("chien2020tfdarshan", 24, "Chien", 2020, "CLUSTER", _C, _IEEE,
       ["monitoring.profilers", "emerging.dl"]),
    _a("wang2020recorder2", 26, "Wang", 2020, "IPDPSW", _W, _IEEE,
       ["monitoring.tracers"]),
    _a("paul2017monitoring", 27, "Paul", 2017, "PDSW-DISCS", _W, _ACM,
       ["monitoring.storage"]),
    _a("paul2019fsmonitor", 28, "Paul", 2019, "CLUSTER", _C, _IEEE,
       ["monitoring.storage"]),
    _a("paul2017loadbalancing", 29, "Paul", 2017, "Big Data", _C, _IEEE,
       ["monitoring.server_side"]),
    _a("luu2015multiplatform", 30, "Luu", 2015, "HPDC", _C, _ACM,
       ["monitoring.profilers", "modeling.analysis.application",
        "monitoring.endtoend"]),
    _a("snyder2016darshan", 31, "Snyder", 2016, "ESPT", _W, _IEEE,
       ["monitoring.profilers", "monitoring.tracers"]),
    _a("rodrigo2017nersc", 32, "Rodrigo", 2017, "JPDC", _J, _ELS,
       ["modeling.analysis.system"]),
    _a("khetawat2019burstbuffer", 33, "Khetawat", 2019, "CLUSTER", _C, _IEEE,
       ["simulation.des", "modeling.analysis.application"]),
    _a("saif2018ioscope", 34, "Saif", 2018, "ISC Workshops", _W, _SPR,
       ["monitoring.tracers"]),
    _a("he2015pioneer", 35, "He", 2015, "CCGrid", _C, _IEEE,
       ["monitoring.tracers", "modeling.generation"]),
    _a("sangaiah2018synchrotrace", 36, "Sangaiah", 2018, "ACM TACO", _J, _ACM,
       ["simulation.trace", "modeling.replay"]),
    _a("azevedo2019fairness", 37, "Azevedo", 2019, "Euro-Par", _C, _SPR,
       ["simulation.des", "modeling.replay"]),
    _a("kunkel2018tools", 38, "Kunkel", 2018, "ISC High Performance", _C, _SPR,
       ["monitoring.storage"]),
    _a("vazhkudai2017guide", 39, "Vazhkudai", 2017, "SC", _C, _ACM,
       ["monitoring.storage", "modeling.analysis.system"]),
    _a("yildiz2016interference", 40, "Yildiz", 2016, "IPDPS", _C, _IEEE,
       ["modeling.analysis.application", "monitoring.storage"]),
    _a("di2017logaider", 41, "Di", 2017, "CCGRID", _C, _IEEE,
       ["monitoring.endtoend"]),
    _a("lockwood2018tokio", 42, "Lockwood", 2018, "CUG", _C, _OTH,
       ["monitoring.endtoend"]),
    _a("park2017loganalytics", 43, "Park", 2017, "CLUSTER", _C, _IEEE,
       ["monitoring.endtoend"]),
    _a("lockwood2017umami", 44, "Lockwood", 2017, "PDSW-DISCS", _W, _ACM,
       ["monitoring.endtoend"]),
    _a("yang2019endtoend", 45, "Yang", 2019, "NSDI", _C, _USX,
       ["monitoring.endtoend"]),
    _a("wadhwa2019iez", 46, "Wadhwa", 2019, "IPDPS", _C, _IEEE,
       ["monitoring.endtoend", "monitoring.server_side"]),
    _a("lockwood2018year", 47, "Lockwood", 2018, "SC", _C, _IEEE,
       ["modeling.analysis.application", "modeling.analysis.system"]),
    _a("luettgau2018workflows", 48, "Luettgau", 2018, "PDSW-DISCS", _W, _IEEE,
       ["modeling.analysis.application", "emerging.workflows"]),
    _a("wang2018iominer", 49, "Wang", 2018, "CLUSTER", _C, _IEEE,
       ["modeling.analysis.application", "monitoring.profilers"]),
    _a("xie2017predicting", 50, "Xie", 2017, "HPDC", _C, _ACM,
       ["modeling.analysis.application", "modeling.predictive"]),
    _a("obaida2018pypasst", 51, "Obaida", 2018, "SIGSIM-PADS", _C, _ACM,
       ["simulation.execution", "modeling.analysis.application"]),
    _a("gunasekaran2015comparative", 52, "Gunasekaran", 2015, "PDSW", _W, _ACM,
       ["modeling.analysis.system"]),
    _a("patel2019revisiting", 53, "Patel", 2019, "SC", _C, _ACM,
       ["modeling.analysis.system", "emerging.analytics"]),
    _a("paul2020systemlevel", 54, "Paul", 2020, "HiPC", _C, _IEEE,
       ["modeling.analysis.system"]),
    _a("dorier2016omniscio", 55, "Dorier", 2016, "IEEE TPDS", _J, _IEEE,
       ["modeling.predictive"]),
    _a("schmid2016ann", 56, "Schmid", 2016, "Supercomput. Front. Innov.", _J, _OTH,
       ["modeling.predictive"]),
    _a("sun2020automated", 57, "Sun", 2020, "IEEE TC", _J, _IEEE,
       ["modeling.predictive"]),
    _a("chowdhury2020emulating", 58, "Chowdhury", 2020, "PDSW", _W, _IEEE,
       ["modeling.predictive", "simulation.execution", "emerging.workflows"]),
    _a("liu2017nvm", 61, "Liu", 2017, "NAS", _C, _IEEE,
       ["simulation.execution"]),
    _a("xenopoulos2016bigdata", 65, "Xenopoulos", 2016, "Big Data", _C, _IEEE,
       ["emerging.analytics"]),
    _a("xuan2017twolevel", 66, "Xuan", 2017, "Parallel Computing", _J, _ELS,
       ["emerging.analytics"]),
    _a("chowdhury2019beegfs", 71, "Chowdhury", 2019, "ICPP", _C, _ACM,
       ["emerging.dl"]),
    _a("daley2020workflows", 72, "Daley", 2020, "FGCS", _J, _ELS,
       ["emerging.workflows"]),
]

# Exactly the paper's corpus size.
assert len(CORPUS) == 51, f"corpus has {len(CORPUS)} entries, expected 51"


def articles_by_category() -> Dict[str, List[Article]]:
    """Invert the corpus: taxonomy category -> articles."""
    out: Dict[str, List[Article]] = {}
    for art in CORPUS:
        for cat in art.categories:
            out.setdefault(cat, []).append(art)
    return out
