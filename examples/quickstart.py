#!/usr/bin/env python
"""Quickstart: from an attribute grammar to a running translator.

This walks the full LINGUIST-86 pipeline on Knuth's binary-number
grammar (the field's canonical example, shipped as ``binary.ag``):

1. feed the ``.ag`` source to :class:`repro.core.Linguist` — it parses,
   validates (inserting implicit copy-rules), checks noncircularity,
   assigns alternating passes, runs the dead-attribute and static-
   subsumption analyses, and generates one evaluator module per pass;
2. package scanner + LALR tables + generated evaluator into a
   :class:`Translator`;
3. translate inputs: the APT streams through intermediate files, read
   backwards between passes, and the answer appears as a synthesized
   attribute of the root.

Run:  python examples/quickstart.py
"""

from repro.core import Linguist
from repro.grammars import load_source
from repro.grammars.scanners import binary_scanner_spec
from repro.obs import MetricsRegistry


def main() -> None:
    source = load_source("binary")
    print("=== the attribute grammar (binary.ag) ===")
    print("\n".join(source.splitlines()[:14]))
    print("    ... ({} lines total)\n".format(len(source.splitlines())))

    # Overlay pipeline: .ag source -> analyses -> generated evaluators.
    linguist = Linguist(source)
    print("=== analysis ===")
    print(linguist.statistics.render())
    print()
    print("overlay times:")
    print(linguist.overlay_times.render())
    print()

    # The generated evaluator for pass 1, as the paper prints it.
    print("=== generated production-procedures (pass 1, Pascal) ===")
    pascal_src = linguist.pascal_artifacts[0].text
    print("\n".join(pascal_src.splitlines()[:24]))
    print("    ...\n")

    # Package and run the translator.  Passing a metrics registry also
    # measures the resident APT bytes (the paper's 48K-budget claim).
    translator = linguist.make_translator(binary_scanner_spec())
    for numeral in ("101.01", "1101.101", "0.0001", "11111111.1"):
        result = translator.translate(numeral, metrics=MetricsRegistry())
        print(f"value of {numeral:>12}  =  {result['VAL']}")

    driver = translator.last_driver
    print()
    print(
        f"evaluated in {len(driver.pass_times)} alternating passes; "
        f"{driver.accountant.records_read} node records read, "
        f"{driver.accountant.records_written} written; "
        f"peak resident APT: {driver.gauge.peak_bytes} bytes"
    )


if __name__ == "__main__":
    main()
