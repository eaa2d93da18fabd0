"""Canonical content-addressed keys for the grammar-artifact cache.

LINGUIST-86's per-grammar build products — LALR tables, scanner DFA,
pass plans, subsumption decisions, generated pass-module text — are a
pure function of

* the **attribute-grammar model** (symbols, attributes, productions,
  semantic functions),
* the **scanner specification** of the described language,
* the **pass strategy** (first-pass direction, subsumption config,
  dead-attribute suppression, circularity checking), and
* the **cache format version** (so a format change can never replay a
  stale payload into newer code).

This module derives a canonical text for each ingredient and hashes it
with SHA-256.  Canonical means *serialization-order independent where
order is semantically irrelevant* and *order-sensitive where it is
not*:

* symbols and their attribute dictionaries are sorted by name (two
  programs declaring the same grammar in different symbol order
  collide);
* semantic functions within a production are sorted by their rendered
  text (attribute grammars are declarative — function order carries no
  meaning);
* productions keep their declared order (production indices feed the
  LALR construction, so reordering productions is a *different*
  grammar and must change the key);
* scanner rules keep their declared order (earlier rules win ties).

Two key levels exist:

* :func:`grammar_key` / :func:`scanner_key` — the content address of
  the canonical *model*; what the payload files are named after.
* :func:`source_key` — a cheap alias over the raw ``.ag`` source text
  + strategy, letting a warm start skip even parsing.  Alias entries
  only ever *point at* a model key (see ``store.py``), so differently
  formatted but equal grammars still share one payload.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import List, Optional, Union

from repro.ag.model import AttributeGrammar
from repro.evalgen.subsumption import SubsumptionConfig
from repro.passes.schedule import Direction

#: Bump whenever the payload layout, the generated-code shape, or the
#: canonicalization itself changes incompatibly.
#: 2: payloads carry fusion metadata; the strategy text gained the
#: pass-fusion flag (plans built under fusion are shaped differently).
#: 3: SUBSUME plan actions carry their subsumption group (needed by
#: provenance recording); older pickled plans lack it.
#: 4: ``SourceLocation`` (pickled inside the grammar model) is a
#: tuple; older payloads pickled it as a dataclass and no longer load.
#: 5: generated passes read and write node lists through the runtime's
#: ``get``/``put`` pair; cached text calling ``get_node`` no longer runs.
CACHE_FORMAT_VERSION = 5


# ---------------------------------------------------------------------------
# canonical texts
# ---------------------------------------------------------------------------


def canonical_grammar_text(ag: AttributeGrammar) -> str:
    """A canonical, serialization-order-independent rendering of the model."""
    lines: List[str] = [
        f"grammar {ag.name}",
        f"start {ag.start}",
    ]
    for sym in sorted(ag.symbols.values(), key=lambda s: s.name):
        attrs = ",".join(
            f"{a.name}:{a.kind.value}:{a.type_name}"
            for a in sorted(sym.attributes.values(), key=lambda a: a.name)
        )
        lines.append(f"symbol {sym.name} {sym.kind.value} [{attrs}]")
    for prod in ag.productions:
        lines.append(
            f"prod {prod.index} {prod.lhs} = {' '.join(prod.rhs)}"
            f" limb={prod.limb}"
        )
        # Semantic-function order within a production is semantically
        # irrelevant (the grammar is declarative): sort by rendered text.
        rendered = sorted(
            f"  fn {','.join(str(t) for t in fn.targets)} = {fn.expr}"
            + (" [implicit]" if fn.implicit else "")
            for fn in prod.functions
        )
        lines.extend(rendered)
    return "\n".join(lines)


def canonical_strategy_text(
    first_direction: Union[Direction, str] = Direction.R2L,
    subsumption: Optional[SubsumptionConfig] = None,
    dead_attribute_suppression: bool = True,
    check_circularity: bool = True,
    fuse_passes: bool = True,
) -> str:
    """Canonical rendering of the pass strategy (the build *recipe*)."""
    direction = (
        first_direction.value
        if isinstance(first_direction, Direction)
        else str(first_direction)
    )
    cfg = subsumption or SubsumptionConfig()
    cfg_text = ",".join(
        f"{name}={value!r}" for name, value in sorted(asdict(cfg).items())
    )
    return (
        f"direction={direction}"
        f" subsumption=({cfg_text})"
        f" deadness={bool(dead_attribute_suppression)}"
        f" circularity={bool(check_circularity)}"
        f" fusion={bool(fuse_passes)}"
    )


def canonical_scanner_text(spec) -> str:
    """Canonical rendering of a :class:`~repro.regex.generator.ScannerSpec`.

    Rule order is preserved (earlier rules win ties); the regex ASTs
    render through their deterministic ``repr``.  Keyword and kind sets
    are sorted.
    """
    lines: List[str] = []
    for kind, regex in spec.rules:
        lines.append(
            f"rule {kind} {regex!r}"
            f" skip={kind in spec.skip}"
            f" intern={kind in spec.intern_kinds}"
        )
    for lexeme in sorted(spec.keywords):
        lines.append(f"keyword {lexeme} -> {spec.keywords[lexeme]}")
    lines.append(f"keyword_kinds {sorted(spec.keyword_kinds)}")
    lines.append(f"intern_kinds {sorted(spec.intern_kinds)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def grammar_key(
    ag: AttributeGrammar,
    first_direction: Union[Direction, str] = Direction.R2L,
    subsumption: Optional[SubsumptionConfig] = None,
    dead_attribute_suppression: bool = True,
    check_circularity: bool = True,
    fuse_passes: bool = True,
) -> str:
    """Content address of the per-grammar build artifacts."""
    return _digest(
        "grammar-artifacts",
        f"format={CACHE_FORMAT_VERSION}",
        canonical_grammar_text(ag),
        canonical_strategy_text(
            first_direction,
            subsumption,
            dead_attribute_suppression,
            check_circularity,
            fuse_passes,
        ),
    )


def scanner_key(spec) -> str:
    """Content address of a generated scanner DFA."""
    return _digest(
        "scanner-dfa",
        f"format={CACHE_FORMAT_VERSION}",
        canonical_scanner_text(spec),
    )


def source_key(
    source: str,
    first_direction: Union[Direction, str] = Direction.R2L,
    subsumption: Optional[SubsumptionConfig] = None,
    dead_attribute_suppression: bool = True,
    check_circularity: bool = True,
    fuse_passes: bool = True,
) -> str:
    """Alias key over the raw ``.ag`` source text + strategy.

    Cheap to compute (no parsing); alias entries point at a
    :func:`grammar_key`, so equal grammars spelled differently still
    share one payload file.
    """
    return _digest(
        "source-alias",
        f"format={CACHE_FORMAT_VERSION}",
        source,
        canonical_strategy_text(
            first_direction,
            subsumption,
            dead_attribute_suppression,
            check_circularity,
            fuse_passes,
        ),
    )
