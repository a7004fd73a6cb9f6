"""Seeded inputs: the corpus, the query generator, amendment fragments.

Everything here is a function of the seed alone.  The program under
test only ever receives what these functions return, never the seed or
a workload name.
"""

import json
import random

from repro.core import AttributeCriteria, ObjectQuery, Op
from repro.grid import (
    CF_STANDARD_NAMES,
    MODELS,
    CorpusConfig,
    LeadCorpusGenerator,
    PlantedMarker,
)
from repro.grid.generator import PLACE_KEYWORDS
from repro.server import query_to_payload


def corpus(seed):
    """The E-series ``BASE_CONFIG`` shape (about 5.8 KB a document),
    with the corpus seed taken from the run's seed."""
    return LeadCorpusGenerator(CorpusConfig(
        seed=seed,
        themes=2,
        places=1,
        keys_per_theme=3,
        dynamic_groups=2,
        params_per_group=6,
        dynamic_depth=2,
        planted=[
            PlantedMarker("marker_sel_100", 100),
            PlantedMarker("marker_sel_20", 20),
            PlantedMarker("marker_sel_5", 5),
            PlantedMarker("marker_sel_2", 2),
        ],
    ))


def theme_fragment(key):
    """One more ``<theme>`` instance for ``add_attribute``."""
    return (f"<theme><themekt>curation</themekt>"
            f"<themekey>{key}</themekey></theme>")


def theme_key_query(key):
    theme = AttributeCriteria("theme").add_element("themekey", "", key, Op.EQ)
    return ObjectQuery().add_attribute(theme)


class QueryGenerator:
    """Fully-bound queries whose literals come from the seed.

    ``WorkloadGenerator.mixed`` cannot make a cold workload: its keyword
    and nested shapes have at most 40 distinct literals, so most of a
    long mix hits the result cache.  Here substrings and thresholds are
    drawn from the seed, :meth:`fresh` never returns the same query
    twice, and how much a stream repeats is the caller's choice.

    The four shapes come in the E2 proportions: keyword EQ/CONTAINS
    (40%), numeric range on a namelist parameter (30%), depth-2 nested
    (20%), keyword AND parameter (10%).  They come as a fixed cycle, not
    by lot: shapes differ several-fold in cost, and a sample whose
    share of each drifted would move the median for no reason in the
    program.  Any ten consecutive queries hold exactly 4/3/2/1.
    """

    SHAPES = "kpnkpknpkc"
    KEYWORDS = (("theme", "themekey", CF_STANDARD_NAMES, Op.CONTAINS),
                ("theme", "themekey", CF_STANDARD_NAMES, Op.EQ),
                ("place", "placekey", PLACE_KEYWORDS, Op.CONTAINS),
                ("theme", "themekey", CF_STANDARD_NAMES, Op.CONTAINS))

    def __init__(self, config, seed):
        self.config = config
        self.rng = random.Random(seed)
        self._seen = set()
        self._keywords = 0
        self._numeric = [
            (model, group, param, kind)
            for model in config.models
            for group, pool in MODELS[model].items()
            for param, kind in pool[:config.params_per_group]
            if kind != "str"
        ]
        self._groups = [
            (model, group) for model in config.models for group in MODELS[model]
        ]

    def _threshold(self, kind):
        if kind == "int":
            return self.rng.randint(0, 100)
        return round(self.rng.uniform(0.0, 5000.0), 3)

    def _keyword(self):
        rng = self.rng
        attribute, element, words, op = self.KEYWORDS[self._keywords % 4]
        self._keywords += 1
        value = rng.choice(words)
        if op is Op.CONTAINS:
            length = rng.randint(3, max(3, len(value) - 1))
            start = rng.randint(0, len(value) - length)
            value = value[start:start + length]
        return AttributeCriteria(attribute).add_element(element, "", value, op)

    def _parameter(self):
        model, group, param, kind = self.rng.choice(self._numeric)
        return AttributeCriteria(group, model).add_element(
            param, model, self._threshold(kind), self.rng.choice([Op.LE, Op.GE])
        )

    def _nested(self):
        model, group = self.rng.choice(self._groups)
        top = AttributeCriteria(group, model)
        section = AttributeCriteria(f"{group}-section-l1", model)
        section.add_element(
            f"{group}-param-l1", model, self._threshold("float"),
            self.rng.choice([Op.LE, Op.GE]),
        )
        top.add_attribute(section)
        return top

    def _draw(self):
        shape = self.SHAPES[len(self._seen) % len(self.SHAPES)]
        query = ObjectQuery()
        if shape in "kc":
            query.add_attribute(self._keyword())
        if shape in "pc":
            query.add_attribute(self._parameter())
        if shape == "n":
            query.add_attribute(self._nested())
        return query

    def fresh(self, count):
        """``count`` queries, each distinct from every query this
        generator has returned before."""
        out = []
        while len(out) < count:
            query = self._draw()
            key = json.dumps(query_to_payload(query), sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                out.append(query)
        return out

    def stream(self, count, repeat_share, window=64):
        """``count`` queries of which ``repeat_share`` re-issue one of
        the previous ``window`` (a result-cache hit while no write comes
        between); the others are fresh."""
        out = []
        for _ in range(count):
            if out and self.rng.random() < repeat_share:
                out.append(self.rng.choice(out[-window:]))
            else:
                out.extend(self.fresh(1))
        return out

    def zipf_indices(self, count, pool_size, s):
        """``count`` indices into a pool of ``pool_size``, rank ``r``
        drawn with weight ``r ** -s``."""
        weights = [rank ** -s for rank in range(1, pool_size + 1)]
        return self.rng.choices(range(pool_size), weights, k=count)
