"""Hyper-parameter search drivers.

The paper used Facebook's Adaptive Experimentation platform (Ax) together
with Nevergrad to explore BCPNN's comparatively large hyper-parameter space
(Section IV).  Neither package is available offline, so this package
provides the same *roles* with self-contained implementations:

* :class:`SearchSpace` — typed parameter-space specification,
* :class:`RandomSearch` / :class:`HaltonSearch` — (quasi-)random sampling,
* :class:`EvolutionarySearch` — a (mu + lambda) evolution strategy in the
  spirit of Nevergrad's default optimisers,
* :class:`ExperimentJournal` — persistent trial log (JSONL).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "space": [
            "SearchSpace",
            "FloatParameter",
            "LogFloatParameter",
            "IntParameter",
            "CategoricalParameter",
        ],
        "samplers": ["halton_sequence", "scrambled_halton"],
        "search": [
            "Trial",
            "SearchResult",
            "RandomSearch",
            "HaltonSearch",
            "EvolutionarySearch",
        ],
        "journal": ["ExperimentJournal"],
    },
)
