"""One options surface for every place an engine is born.

:class:`EngineOptions` is the frozen value accepted everywhere an engine
is constructed — ``Session.view``, ``make_engine``, ``Planner``, the
CLI, ``Server`` and the cluster wire — with

* per-field keyword arguments kept as sugar
  (``Session.view(..., backend="vectorized")``),
* mapping inputs (the cluster wire, journals) validated with
  did-you-mean suggestions — the same difflib pattern
  :mod:`repro.api.access` uses for binding typos,
* a stable wire form (:meth:`EngineOptions.to_wire`) so view
  registrations, the command journal and recovery replays pin the
  options an engine was originally built with.

It has one field.  ``backend`` selects which executors of the Theorem
3.2 update plans an engine carries:

* ``"python"`` — the per-tuple generated runners only;
* ``"vectorized"`` — the runners plus the batched numpy kernel over
  int-interned tuples (:mod:`repro.core.vectorized`), which
  ``apply_all`` picks for batches large enough to amortise it;
  requires numpy;
* ``"auto"`` (default) — vectorized when numpy is importable and the
  plan qualifies, python otherwise, with the fallback reason surfaced
  through ``plan_stats()`` / ``explain()``.

Preprocessing has no option: every engine bulk-loads through the one
generated loader of :func:`repro.core.plans.compile_relation_loader`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from difflib import get_close_matches
from typing import Any, Dict, Mapping, Optional

from repro.errors import EngineStateError

__all__ = ["EngineOptions", "BACKENDS"]

#: Legal values of ``EngineOptions.backend``.
BACKENDS = ("auto", "python", "vectorized")


@dataclass(frozen=True)
class EngineOptions:
    """Engine construction options (see module docstring)."""

    #: Update-plan execution backend: ``"auto" | "python" | "vectorized"``.
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            hint = get_close_matches(str(self.backend), BACKENDS, n=1, cutoff=0.6)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise EngineStateError(
                f"unknown backend {self.backend!r}{suggestion} "
                f"(choose from {', '.join(map(repr, BACKENDS))})"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def of(
        cls, options: Optional[object] = None, **overrides: Any
    ) -> "EngineOptions":
        """Coerce ``options`` (an :class:`EngineOptions`, a mapping, or
        ``None``) and apply keyword-argument sugar on top.

        Overrides with value ``None`` mean "not specified" and keep the
        base value — that is what lets surfaces expose
        ``backend=None`` defaults without clobbering an explicit
        ``options=``.  Unknown names get a did-you-mean error.
        """
        if options is None:
            base = cls()
        elif isinstance(options, cls):
            base = options
        elif isinstance(options, Mapping):
            base = cls._from_mapping(options)
        else:
            raise EngineStateError(
                f"options must be an EngineOptions or a mapping, "
                f"not {type(options).__name__}"
            )
        supplied = {
            name: value for name, value in overrides.items() if value is not None
        }
        if not supplied:
            return base
        cls._check_names(supplied)
        return replace(base, **supplied)

    @classmethod
    def _from_mapping(cls, mapping: Mapping[str, Any]) -> "EngineOptions":
        data = {str(key): value for key, value in mapping.items()}
        cls._check_names(data)
        return cls(**data)

    @classmethod
    def _check_names(cls, data: Mapping[str, Any]) -> None:
        known = [field.name for field in fields(cls)]
        for name in data:
            if name in known:
                continue
            hint = get_close_matches(name, known, n=1, cutoff=0.6)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise EngineStateError(
                f"unknown engine option {name!r}{suggestion} "
                f"(known: {', '.join(known)})"
            )

    # -- wire form ------------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """JSON-safe dict for registration ops and the journal."""
        return {"backend": self.backend}

    @classmethod
    def from_wire(cls, data: Optional[Mapping[str, Any]]) -> "EngineOptions":
        """Inverse of :meth:`to_wire`; ``None`` means defaults (old
        clients and journals that never carried options)."""
        if data is None:
            return cls()
        return cls._from_mapping(data)

    @property
    def is_default(self) -> bool:
        """Whether every field holds its default — callers skip the
        wire payload then, keeping old frames byte-identical."""
        return self == type(self)()
