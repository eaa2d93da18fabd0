"""Command-line interface: the LINGUIST tool as a program.

Subcommands::

    python -m repro stats FILE.ag           grammar statistics + pass report
    python -m repro listing FILE.ag [-o F]  the listing file (overlay 6)
    python -m repro generate FILE.ag --language pascal|python [-o DIR]
    python -m repro run NAME INPUT [--exec] translate with a shipped grammar
    python -m repro selfcheck               the self-generation bootstrap
    python -m repro trace FILE.ag INPUT [--out F --format chrome|ndjson|summary]
                                            traced translation (obs subsystem)
    python -m repro profile FILE.ag [INPUT] per-overlay/per-pass time, I/O,
                                            and peak-memory tables
    python -m repro fsck SPOOL [--salvage OUT]
                                            verify an APT spool file or a
                                            provenance log; recover the valid
                                            prefix into OUT
    python -m repro debug why|history|step|summary DIR [...]
                                            time-travel queries over a recorded
                                            run (repro run ... --record DIR)
    python -m repro batch FILE.ag INPUTS... [-j N --cache-dir DIR --timeout S]
                                            translate many inputs through the
                                            persistent build cache, optionally
                                            across worker processes
    python -m repro serve FILE.ag [...] [--port P --workers N --journal DIR]
                                            long-lived fault-tolerant
                                            translation daemon (supervised
                                            workers, admission control,
                                            durable request journal)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.passes.schedule import Direction

_DIRECTIONS = {"r2l": Direction.R2L, "l2r": Direction.L2R, "auto": "auto"}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _build_linguist(args):
    from repro.core import Linguist

    return Linguist(
        _read(args.file),
        filename=args.file,
        first_direction=_DIRECTIONS[args.direction],
    )


def cmd_stats(args) -> int:
    from repro.passes.report import render_pass_report

    linguist = _build_linguist(args)
    print(linguist.statistics.render())
    print()
    print(render_pass_report(linguist.assignment))
    print()
    print("overlay times:")
    print(linguist.overlay_times.render())
    return 0


def cmd_listing(args) -> int:
    linguist = _build_linguist(args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(linguist.listing)
        print(f"listing written to {args.output}")
    else:
        print(linguist.listing)
    return 0


def cmd_generate(args) -> int:
    linguist = _build_linguist(args)
    artifacts = (
        linguist.pascal_artifacts
        if args.language == "pascal"
        else linguist.python_artifacts
    )
    ext = "pas" if args.language == "pascal" else "py"
    outdir = args.output or "."
    os.makedirs(outdir, exist_ok=True)
    for artifact in artifacts:
        path = os.path.join(outdir, f"pass{artifact.pass_k}.{ext}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(artifact.text)
        print(
            f"wrote {path}: {artifact.total_bytes} bytes "
            f"(husk {artifact.husk_bytes}, semantic {artifact.sem_bytes}, "
            f"{artifact.n_subsumed} copy-rules subsumed)"
        )
    sizes = linguist.code_sizes(args.language)
    print(sizes.render())
    return 0


def cmd_run(args) -> int:
    from repro.core import Linguist
    from repro.grammars import GRAMMAR_NAMES, library_for, load_source
    from repro.grammars import scanners

    if args.name not in GRAMMAR_NAMES:
        print(f"unknown shipped grammar {args.name!r}; have {GRAMMAR_NAMES}",
              file=sys.stderr)
        return 2
    spec_factory = {
        "binary": scanners.binary_scanner_spec,
        "calc": scanners.calc_scanner_spec,
        "pascal": scanners.pascal_scanner_spec,
    }.get(args.name)
    if spec_factory is None and args.name == "linguist":
        from repro.frontend.lexer import LEXICAL_SPEC

        spec = LEXICAL_SPEC
    else:
        spec = spec_factory()
    if args.resume and not (args.checkpoint_dir or args.record):
        print("--resume requires --checkpoint-dir or --record", file=sys.stderr)
        return 2
    linguist = Linguist(load_source(args.name))
    translator = linguist.make_translator(
        spec, library=library_for(args.name), backend=args.backend
    )
    text = _read(args.input) if os.path.exists(args.input) else args.input
    disk_budget = None
    if args.disk_budget is not None:
        from repro.governance import DiskBudget

        disk_budget = DiskBudget(args.disk_budget, label=args.name)
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry() if args.memo_dir else None
    result = translator.translate(
        text, checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        spool_memory_budget=args.spool_memory_budget, record=args.record,
        disk_budget=disk_budget, memo_dir=args.memo_dir, metrics=metrics,
    )
    if args.memo_dir:
        hits = metrics.counter("incremental.hits").value
        misses = metrics.counter("incremental.misses").value
        spliced = metrics.counter("incremental.spliced_records").value
        print(
            f"# incremental memo at {args.memo_dir}: {hits} subtree "
            f"hit(s) splicing {spliced} record(s), {misses} miss(es)",
            file=sys.stderr,
        )
    if args.record:
        print(
            f"# provenance recorded to {args.record} "
            f"(query it with `repro debug why {args.record} NODE.ATTR`)",
            file=sys.stderr,
        )
    elif args.checkpoint_dir:
        verb = "resumed from" if args.resume else "checkpointed to"
        print(f"# evaluation {verb} {args.checkpoint_dir}", file=sys.stderr)
    for line in render_root_attrs(result.root_attrs):
        print(line)
    if args.execute:
        if "CODE" not in result:
            print("--exec: grammar produces no CODE attribute", file=sys.stderr)
            return 2
        from repro.stackvm import execute

        outcome = execute(list(result["CODE"]))
        print(f"execution output: {outcome.output}")
    return 0


def _scanner_and_library(name: str):
    """Scanner spec + function library of a shipped grammar, or (None, None).

    ``trace``/``profile``/``batch`` accept any ``.ag`` file; translating
    an INPUT additionally needs the described language's scanner, which
    we only have for the shipped grammars (keyed by file stem or
    ``--grammar``).
    """
    from repro.grammars import scanner_and_library

    return scanner_and_library(name)


def render_root_attrs(root_attrs) -> List[str]:
    """Render root attributes exactly as ``repro run`` prints them —
    ``repro batch`` and the serve daemon reuse this (it lives in
    :mod:`repro.evalgen.runtime` now) so their output is byte-identical."""
    from repro.evalgen.runtime import render_root_attrs as _render

    return _render(root_attrs)


def _grammar_stem(args) -> str:
    if getattr(args, "grammar", None):
        return args.grammar
    return os.path.splitext(os.path.basename(args.file))[0]


def cmd_trace(args) -> int:
    from repro.core import Linguist
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs.export import chrome_trace_json, ndjson, summary

    name = _grammar_stem(args)
    spec, library = _scanner_and_library(name)
    if spec is None:
        print(
            f"error: no shipped scanner for grammar {name!r}; "
            "pass --grammar binary|calc|pascal|asm|linguist",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer()
    metrics = MetricsRegistry()
    linguist = Linguist(
        _read(args.file),
        filename=args.file,
        first_direction=_DIRECTIONS[args.direction],
        tracer=tracer,
        metrics=metrics,
    )
    # The interpretive backend is the default here: it runs node visits
    # through the runtime, so the trace shows the full overlay → pass →
    # node-visit → semantic-function hierarchy.  The generated backend
    # still yields overlay/pass spans and all spool/event instants.
    translator = linguist.make_translator(
        spec, library=library, backend=args.backend
    )
    text = _read(args.input) if os.path.exists(args.input) else args.input
    translator.translate(text, tracer=tracer, metrics=metrics)

    if args.format == "chrome":
        rendered = chrome_trace_json(tracer.records)
    elif args.format == "ndjson":
        rendered = ndjson(tracer.records)
    else:
        rendered = summary(tracer.records, metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(rendered + "\n")
        print(
            f"{args.format} trace written to {args.out} "
            f"({len(tracer.records)} records)"
        )
    else:
        print(rendered)
    return 0


def _render_metric(value) -> str:
    """One metric value on one line (histogram snapshots are dicts)."""
    if isinstance(value, dict):
        # Sorted so the summary table is deterministic (histogram
        # snapshots are plain dicts in observation-insertion order).
        inner = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(value.items())
        )
        return "{" + inner + "}"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def cmd_profile(args) -> int:
    from repro.core import Linguist
    from repro.core.overlays import OVERLAY_NAMES
    from repro.obs import MetricsRegistry

    cache = None
    if args.cache_dir:
        from repro.buildcache import BuildCache

        cache = BuildCache(args.cache_dir)
    metrics = MetricsRegistry()
    linguist = Linguist(
        _read(args.file),
        filename=args.file,
        first_direction=_DIRECTIONS[args.direction],
        metrics=metrics,
        cache=cache,
    )

    translated = False
    if args.input:
        name = _grammar_stem(args)
        spec, library = _scanner_and_library(name)
        if spec is None:
            print(
                f"error: no shipped scanner for grammar {name!r}; "
                "pass --grammar binary|calc|pascal|asm|linguist",
                file=sys.stderr,
            )
            return 2
        translator = linguist.make_translator(spec, library=library)
        text = _read(args.input) if os.path.exists(args.input) else args.input
        translator.translate(text, metrics=metrics, record=args.record)
        translated = True

    # Everything below renders from the live MetricsRegistry snapshot —
    # the same numbers the benchmarks consume.
    snap = metrics.snapshot()
    lines = [f"profile: {args.file} (grammar {linguist.ag.name!r})", ""]
    total = snap.get("overlay.total.seconds", 0.0) or 1e-12
    lines.append(
        f"{'overlay':<30} {'ms':>10} {'share':>7} {'io bytes':>10} "
        f"{'peak resident B':>16}"
    )
    for name in OVERLAY_NAMES:
        seconds = snap.get(f"overlay.{name}.seconds")
        if seconds is None:
            continue
        lines.append(
            f"{name:<30} {seconds * 1000:>10.1f} "
            f"{100 * seconds / total:>6.0f}% "
            f"{snap.get(f'overlay.{name}.io_bytes', 0):>10,} "
            f"{snap.get(f'overlay.{name}.peak_bytes', 0):>16,}"
        )
    lines.append(f"{'TOTAL':<30} {total * 1000:>10.1f} {'100':>6}%")

    if translated:
        lines.append("")
        lines.append(
            f"{'evaluation pass':<30} {'ms':>10} {'rec r/w':>11} "
            f"{'bytes r/w':>15} {'peak resident B':>16}"
        )
        for k in range(1, int(snap.get("pass.n_passes", 0)) + 1):
            lines.append(
                f"pass {k} ({snap.get(f'pass.{k}.direction', '?'):<13}) "
                f"{snap.get(f'pass.{k}.seconds', 0.0) * 1000:>10.1f} "
                f"{snap.get(f'pass.{k}.records_read', 0):>5}/"
                f"{snap.get(f'pass.{k}.records_written', 0):<5} "
                f"{snap.get(f'pass.{k}.bytes_read', 0):>7,}/"
                f"{snap.get(f'pass.{k}.bytes_written', 0):<7,} "
                f"{snap.get(f'pass.{k}.peak_bytes', 0):>16,}"
            )
        lines.append("")
        lines.append(
            f"totals: {snap.get('io.records_read', 0):,} records / "
            f"{snap.get('io.bytes_read', 0):,} bytes read, "
            f"{snap.get('io.records_written', 0):,} records / "
            f"{snap.get('io.bytes_written', 0):,} bytes written, "
            f"peak resident {snap.get('mem.peak_bytes', 0):,} B "
            f"({snap.get('mem.peak_nodes', 0)} nodes)"
        )
        lines.append(
            f"events: {snap.get('evt.copyrule_elided', 0)} copy-rules "
            f"elided, {snap.get('evt.subsume_saves', 0)} saves / "
            f"{snap.get('evt.subsume_restores', 0)} restores at "
            f"subsumption sites, {snap.get('evt.dead_attrs_skipped', 0)} "
            "dead attribute instances skipped"
        )
    for title, prefix in (
        ("fusion", "fusion."),
        ("spool codec", "spool.codec."),
        ("spool spill", "spool.spill."),
        ("robustness", "robust."),
        ("build cache", "cache."),
        ("batch", "batch."),
        ("serve", "serve."),
        ("provenance", "provenance."),
        ("debug", "debug."),
    ):
        section = {
            key: value
            for key, value in sorted(snap.items())
            if key.startswith(prefix) and not key.endswith(".peak")
        }
        if not section:
            continue
        lines.append("")
        lines.append(
            f"{title}: "
            + ", ".join(
                f"{key[len(prefix):]}={_render_metric(value)}"
                for key, value in section.items()
            )
        )
    print("\n".join(lines))
    if args.metrics:
        print()
        print(metrics.render())
    return 0


def _say(args):
    """``print``, or a no-op under ``--quiet`` (exit codes still talk).

    ``fsck --json`` also silences the human renderer: the JSON document
    is the whole report, so nothing else may touch stdout.
    """
    if getattr(args, "quiet", False) or getattr(args, "json", False):
        return lambda *a, **k: None
    return print


def _fsck_emit(args, report, fmt: str, code: int, **extra) -> int:
    """Common tail of every fsck path: emit the ``--json`` document
    (artifact path, format, verdict, loss count) and return the exit
    code unchanged — scripts keep branching on 0/1/2 either way."""
    if getattr(args, "json", False):
        import json

        doc = {
            "path": args.spool,
            "format": fmt,
            "verdict": ("clean" if code == 0 else
                        "salvaged-with-loss" if code == 2 else "corrupt"),
            "exit": code,
            "n_valid": getattr(report, "n_valid", None),
        }
        err = getattr(report, "error", None)
        if err is not None:
            doc["error"] = {"reason": err.reason, "locus": err.locus()}
        if getattr(args, "salvage", None):
            doc["salvaged_to"] = args.salvage
        doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    return code


def cmd_fsck(args) -> int:
    """Verify (and optionally salvage) a durable artifact file.

    The format is sniffed through ``repro doctor``'s format table (a
    spool unless a sealed-log header says otherwise; a directory names
    the first of its memo manifest, provenance log or request journal
    that exists).  Exit status: 0 clean, 1 corrupt (or missing),
    2 corrupt but the longest checksum-valid prefix was recovered via
    ``--salvage`` (salvaged with loss).  A clean *unsealed* journal —
    the daemon was killed rather than drained — exits 0.  ``--quiet``
    suppresses all output so scripts can branch on the code alone.
    """
    from repro.doctor import FORMATS, format_of
    from repro.errors import Diagnostic, Severity, SourceLocation
    from repro.obs import MetricsRegistry
    from repro.obs.provenance import LOG_NAME
    from repro.passes.incremental import MEMO_LOG
    from repro.serve.journal import JOURNAL_NAME

    say = _say(args)
    metrics = MetricsRegistry()
    target, problem = args.spool, None
    if not os.path.exists(target):
        problem = f"no such spool file: {target}"
    elif os.path.isdir(target):
        names = (MEMO_LOG, LOG_NAME, JOURNAL_NAME)
        found = [os.path.join(target, name) for name in names
                 if os.path.exists(os.path.join(target, name))]
        if found:
            target = found[0]
        else:
            problem = (f"no artifact in directory {target} "
                       f"(looked for {', '.join(names)})")
    if problem is not None:
        say(f"error: {problem}", file=sys.stderr)
        if getattr(args, "json", False):
            import json

            print(json.dumps({
                "path": args.spool, "format": None,
                "verdict": "missing", "exit": 1,
            }, sort_keys=True))
        return 1
    fmt = format_of(target)
    if fmt is None or fmt.tag is None:
        fmt = FORMATS[0]  # anything unrecognized is judged as a spool
    if args.salvage:
        report = fmt.salvage(target, args.salvage, metrics=metrics)
    else:
        report = fmt.scan(target, metrics=metrics)
    say(report.render())
    for line in fmt.notes(report):
        say(line)
    if args.salvage:
        say(f"salvaged {fmt.kept(report)} -> {args.salvage}")
    if args.metrics:
        say()
        say(metrics.render())
    if report.ok:
        return _fsck_emit(args, report, fmt.tag, 0, **fmt.extra(report))
    # A location-bearing diagnostic: the damaged region, named the same
    # way grammar errors name their source coordinates.
    err = report.error
    diag = Diagnostic(
        Severity.ERROR,
        f"{fmt.what} corrupt at {err.locus()} [{err.reason}]; "
        f"valid prefix: {fmt.prefix(report)}",
        SourceLocation(filename=args.spool),
    )
    say(str(diag), file=sys.stderr)
    return _fsck_emit(args, report, fmt.tag, 2 if args.salvage else 1,
                      **fmt.extra(report))


def cmd_doctor(args) -> int:
    """Sweep directories for crash debris across every durable format.

    Classifies every file (sealed / unsealed / unsealed-tmp / corrupt /
    orphaned / foreign); ``--repair`` salvages the valid prefixes in
    place, deletes what is safe to lose (corrupt cache entries, tmp
    debris, orphaned pass spools), and truncates damaged checkpoint
    manifests at the last verified pass.  Exit status:
    0 clean, 1 problems found (or remaining), 2 repaired with loss.
    """
    from repro.doctor import run_doctor
    from repro.obs import MetricsRegistry

    say = _say(args)
    metrics = MetricsRegistry()
    for d in args.dirs:
        if not os.path.isdir(d):
            say(f"error: no such directory: {d}", file=sys.stderr)
            return 1
    report = run_doctor(args.dirs, repair=args.repair, metrics=metrics)
    say(report.render())
    if args.metrics:
        say()
        say(metrics.render())
    if report.problems:
        return 1
    if args.repair and report.lossy:
        return 2
    return 0


def cmd_cache_gc(args) -> int:
    """Shrink the build cache to a byte cap, least-recently-used first."""
    from repro.buildcache import BuildCache, default_cache_root
    from repro.governance import evict_cache
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    root = args.cache_dir or default_cache_root()
    cache = BuildCache(root)
    kept, evicted = evict_cache(cache, args.max_bytes, metrics=metrics)
    print(f"cache gc: {root}")
    print(
        f"  kept {kept:,} byte(s); evicted {len(evicted)} entrie(s) "
        f"({sum(e.file_bytes for e in evicted):,} bytes)"
    )
    return 0


def cmd_debug(args) -> int:
    """Time-travel queries over a recorded run directory.

    All four queries read only sealed artifacts (the provenance log and
    the per-pass spools) — nothing is re-evaluated.  A damaged log
    surfaces as a typed :class:`~repro.errors.ProvenanceCorruptionError`
    naming the damaged record (exit 1 via the main handler).
    """
    from repro.obs import MetricsRegistry
    from repro.obs.provenance import DebugSession

    metrics = MetricsRegistry()
    with DebugSession(args.dir, metrics=metrics) as session:
        if args.query == "why":
            print(session.render_why(args.target, max_depth=args.max_depth))
        elif args.query == "history":
            print(session.render_history(args.target))
        elif args.query == "step":
            print(
                session.render_step(
                    at=args.at, count=args.count, backward=args.backward
                )
            )
        else:
            print(session.render_summary())
    if args.metrics:
        print()
        print(metrics.render())
    return 0


def cmd_batch(args) -> int:
    """Translate many inputs through the persistent build cache.

    The grammar is built (or cache-rehydrated) exactly once; with
    ``-j N`` the inputs fan out across ``N`` worker processes that
    rehydrate it from the cache just written.  Exit status: 0 when every input translated, 1 when
    any input failed (other inputs still complete — per-input
    isolation).
    """
    from repro.batch import WorkerSpec, build_batch_translator
    from repro.buildcache import default_cache_root
    from repro.obs import MetricsRegistry

    name = _grammar_stem(args)
    spec, _ = _scanner_and_library(name)
    if spec is None:
        print(
            f"error: no shipped scanner for grammar {name!r}; "
            "pass --grammar binary|calc|pascal|asm|linguist",
            file=sys.stderr,
        )
        return 2
    metrics = MetricsRegistry()
    worker_spec = WorkerSpec(
        source=_read(args.file),
        filename=args.file,
        grammar_name=name,
        direction=args.direction,
        cache_dir=args.cache_dir or default_cache_root(),
        backend=args.backend,
        memo_dir=args.memo_dir,
    )
    translator = build_batch_translator(worker_spec, metrics=metrics)
    texts = [
        _read(item) if os.path.exists(item) else item for item in args.inputs
    ]
    report = translator.translate_many(
        texts, jobs=args.jobs, metrics=metrics, timeout=args.timeout,
        pipeline_depth=args.pipeline_depth,
    )

    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
    for item in report.items:
        if item.ok:
            rendered = "\n".join(render_root_attrs(item.result.root_attrs))
            if args.output_dir:
                path = os.path.join(args.output_dir, f"{item.index:04d}.out")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(rendered + "\n")
            else:
                print(f"# input {item.index}: ok ({item.seconds * 1000:.1f} ms)")
                print(rendered)
        else:
            print(
                f"# input {item.index}: FAILED "
                f"{item.error_type}: {item.error}",
                file=sys.stderr,
            )
    print(
        f"# batch: {report.n_ok}/{len(report.items)} ok, "
        f"{report.n_failed} failed, jobs={report.jobs}, "
        f"{report.seconds * 1000:.1f} ms total"
        + (" [INTERRUPTED: partial report]" if report.interrupted else ""),
        file=sys.stderr,
    )
    if args.metrics:
        print()
        print(metrics.render())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run the fault-tolerant translation service daemon.

    Builds every grammar once through the persistent build cache (the
    warm instances), then serves ``POST /translate`` through a pool of
    supervised worker subprocesses with bounded queues, per-request
    deadlines, a circuit breaker per grammar, and a durable request
    journal.  SIGTERM/SIGINT drains gracefully (stop admitting, finish
    in-flight up to ``--drain-timeout``, seal the journal) and exits 0.
    See docs/serving.md.
    """
    import asyncio

    from repro.batch import WorkerSpec
    from repro.buildcache import default_cache_root
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, TranslationServer

    metrics = MetricsRegistry()
    cache_dir = args.cache_dir or default_cache_root()
    specs = {}
    for path in args.files:
        name = os.path.splitext(os.path.basename(path))[0]
        spec, _ = _scanner_and_library(name)
        if spec is None:
            print(
                f"error: no shipped scanner for grammar {name!r}; "
                "serve needs a scanner for every grammar file",
                file=sys.stderr,
            )
            return 2
        specs[name] = WorkerSpec(
            source=_read(path),
            filename=path,
            grammar_name=name,
            direction=args.direction,
            cache_dir=cache_dir,
            backend=args.backend,
            memo_dir=(
                os.path.join(args.memo_dir, name) if args.memo_dir else None
            ),
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        journal_dir=args.journal,
        heartbeat_timeout=args.heartbeat_timeout,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        backend=args.backend,
        fsync_every_done=args.fsync,
        disk_low_bytes=int(args.disk_low_mb * (1 << 20)),
        disk_high_bytes=int(args.disk_high_mb * (1 << 20)),
        governance_interval=args.governance_interval,
        cache_dir=cache_dir,
        cache_max_bytes=int(args.cache_max_mb * (1 << 20)),
        startup_doctor=not args.no_doctor,
    )
    return asyncio.run(_serve_main(specs, config, metrics))


async def _serve_main(specs, config, metrics) -> int:
    import asyncio
    import signal

    from repro.serve import TranslationServer
    from repro.serve.http import HttpFrontend

    server = TranslationServer(specs, config, metrics)
    await server.start()
    frontend = HttpFrontend(server, config.host, config.port or 0)
    host, port = await frontend.start()
    if server.journal is not None:
        print(f"# request journal: {server.journal.path}", flush=True)
    print(
        f"# repro serve: listening on http://{host}:{port} "
        f"(grammars: {', '.join(sorted(specs))}; "
        f"{config.workers} worker(s)/grammar)",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, server.request_shutdown)
    rc = await server.run()
    await frontend.stop()
    snap = metrics.snapshot()
    print(
        "# drained: "
        f"{snap.get('serve.admitted', 0)} admitted, "
        f"{snap.get('serve.completed', 0)} completed, "
        f"{snap.get('serve.rejected', 0)} rejected, "
        f"{snap.get('serve.timeouts', 0)} timeouts, "
        f"{snap.get('serve.worker_restarts', 0)} worker restart(s)",
        flush=True,
    )
    return rc


def cmd_selfcheck(args) -> int:
    from repro.core.selfgen import SelfGeneration

    selfgen = SelfGeneration()
    machine, hand = selfgen.bootstrap_check()
    print("self-generation bootstrap: OK")
    print(f"  {machine.n_syms} symbols, {machine.n_attrs} attributes, "
          f"{machine.n_prods} productions, {machine.n_funcs} functions, "
          f"{machine.n_copies} explicit copy-rules")
    print(f"  evaluated in {selfgen.linguist.n_passes} alternating passes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LINGUIST-86 reproduction: a translator-writing system "
        "based on attribute grammars",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="attribute grammar (.ag) source file")
        p.add_argument(
            "--direction", choices=sorted(_DIRECTIONS), default="r2l",
            help="first-pass direction (default r2l, the paper's choice)",
        )

    p_stats = sub.add_parser("stats", help="statistics and pass report")
    add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_listing = sub.add_parser("listing", help="produce the listing file")
    add_common(p_listing)
    p_listing.add_argument("-o", "--output", help="write to this file")
    p_listing.set_defaults(func=cmd_listing)

    p_gen = sub.add_parser("generate", help="write the generated evaluators")
    add_common(p_gen)
    p_gen.add_argument("--language", choices=["pascal", "python"],
                       default="pascal")
    p_gen.add_argument("-o", "--output", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="translate input with a shipped grammar")
    p_run.add_argument("name", help="shipped grammar (binary/calc/pascal/linguist)")
    p_run.add_argument("input", help="input text or a path to it")
    p_run.add_argument("--exec", dest="execute", action="store_true",
                       help="run the produced CODE on the stack machine")
    p_run.add_argument(
        "--checkpoint-dir",
        help="persist every completed evaluation pass (sealed spool + "
        "manifest) into this directory",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="resume a killed evaluation from the checkpoint manifest "
        "(requires --checkpoint-dir)",
    )
    p_run.add_argument(
        "--spool-memory-budget", type=int, default=None, metavar="BYTES",
        help="max bytes each intermediate APT spool keeps in memory "
        "before spilling to a sealed v3 disk spool (default 8 MiB; "
        "0 forces disk spooling throughout)",
    )
    p_run.add_argument(
        "--record", metavar="DIR",
        help="record attribute provenance into DIR (sealed NDJSON log + "
        "every pass's sealed spool); query it with `repro debug`",
    )
    p_run.add_argument(
        "--backend", choices=["interp", "generated"], default="generated",
        help="evaluator backend (default generated)",
    )
    p_run.add_argument(
        "--disk-budget", type=int, default=None, metavar="BYTES",
        help="cap the bytes this run may write durably (spool spills + "
        "checkpoint passes); the write that would overspend fails with "
        "a typed DiskBudgetExceeded before the bytes land",
    )
    p_run.add_argument(
        "--memo-dir", metavar="DIR",
        help="incremental re-translation: persist per-pass subtree memo "
        "entries (sealed MEMO1 manifest + splice-source spools) into DIR; "
        "a later run of edited input re-evaluates only the dirty spine "
        "and splices sealed output for clean subtrees, byte-identically",
    )
    p_run.set_defaults(func=cmd_run)

    p_debug = sub.add_parser(
        "debug",
        help="time-travel queries over a recorded run "
        "(see `repro run --record`)",
    )
    dsub = p_debug.add_subparsers(dest="query", required=True)

    def add_debug_common(p):
        p.add_argument("dir", help="record directory (from --record DIR)")
        p.add_argument(
            "--metrics", action="store_true",
            help="also dump the debug.* counters",
        )

    p_why = dsub.add_parser(
        "why",
        help="dependency-directed backward slice: the semantic-function "
        "instants (across passes) that produced NODE.ATTR's value",
    )
    add_debug_common(p_why)
    p_why.add_argument(
        "target",
        help="NODE.ATTR, e.g. root.OUT or root.1.2.VAL (positions are "
        "1-based child indices; 'limb' names a production's limb node)",
    )
    p_why.add_argument(
        "--max-depth", type=int, default=8, metavar="N",
        help="slice recursion depth (default 8)",
    )
    p_why.set_defaults(func=cmd_debug)

    p_hist = dsub.add_parser(
        "history",
        help="NODE.ATTR's value at every pass boundary, read out of the "
        "sealed spools",
    )
    add_debug_common(p_hist)
    p_hist.add_argument("target", help="NODE.ATTR (as in `debug why`)")
    p_hist.set_defaults(func=cmd_debug)

    p_step = dsub.add_parser(
        "step",
        help="replay recorded semantic-function instants around a cursor",
    )
    add_debug_common(p_step)
    p_step.add_argument(
        "--at", type=int, default=None, metavar="SEQ",
        help="cursor instant (default: first; with --backward: last)",
    )
    p_step.add_argument(
        "--count", type=int, default=10, metavar="N",
        help="instants to show (default 10)",
    )
    p_step.add_argument(
        "--backward", action="store_true",
        help="step backward from the cursor instead of forward",
    )
    p_step.set_defaults(func=cmd_debug)

    p_summ = dsub.add_parser(
        "summary", help="totals of the recorded run (events per pass, "
        "busiest productions and attributes)",
    )
    add_debug_common(p_summ)
    p_summ.set_defaults(func=cmd_debug)

    p_fsck = sub.add_parser(
        "fsck",
        help="verify an APT spool file's header, record/block checksums, "
        "name table, and sealed footer",
    )
    p_fsck.add_argument(
        "spool",
        help="path to a .spool file, a provenance .ndjson log, a request "
        "journal, an incremental memo manifest, or a directory holding "
        "one of the last three (format is sniffed)",
    )
    p_fsck.add_argument(
        "--salvage", metavar="OUT",
        help="recover the longest checksum-valid prefix into a fresh "
        "sealed spool at OUT (with the source's name table)",
    )
    p_fsck.add_argument(
        "--metrics", action="store_true",
        help="also dump the robustness counters",
    )
    p_fsck.add_argument(
        "--quiet", action="store_true",
        help="no output; exit status alone reports the verdict "
        "(0 clean, 1 corrupt/missing, 2 salvaged with loss)",
    )
    p_fsck.add_argument(
        "--json", action="store_true",
        help="emit a single machine-readable JSON report (artifact path, "
        "format, verdict, loss count) instead of the human rendering; "
        "exit codes are unchanged",
    )
    p_fsck.set_defaults(func=cmd_fsck)

    p_doctor = sub.add_parser(
        "doctor",
        help="sweep directories for crash debris across every durable "
        "format; classify each artifact and optionally --repair "
        "(see docs/robustness.md)",
    )
    p_doctor.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="directories to sweep recursively (journal dirs, "
        "checkpoint dirs, record dirs, cache roots)",
    )
    p_doctor.add_argument(
        "--repair", action="store_true",
        help="salvage valid prefixes in place, delete what is safe to "
        "lose (corrupt cache entries, *.tmp debris, orphaned pass "
        "spools), truncate damaged checkpoint manifests at the last "
        "verified pass",
    )
    p_doctor.add_argument(
        "--metrics", action="store_true",
        help="also dump the governance.doctor.* counters",
    )
    p_doctor.add_argument(
        "--quiet", action="store_true",
        help="no output; exit status alone reports the verdict "
        "(0 clean, 1 problems found/remaining, 2 repaired with loss)",
    )
    p_doctor.set_defaults(func=cmd_doctor)

    p_cache = sub.add_parser(
        "cache", help="build-cache maintenance (see `repro cache gc`)"
    )
    csub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    p_gc = csub.add_parser(
        "gc",
        help="shrink the build cache to a byte cap, evicting "
        "least-recently-used entries (store and load-hit both refresh "
        "an entry's clock)",
    )
    p_gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="BYTES",
        help="target size: entries are evicted LRU-first until the "
        "sealed entries fit",
    )
    p_gc.add_argument(
        "--cache-dir",
        help="cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-linguist86)",
    )
    p_gc.set_defaults(func=cmd_cache_gc)

    p_trace = sub.add_parser(
        "trace",
        help="translate INPUT under the telemetry subsystem and export "
        "the span/event trace",
    )
    add_common(p_trace)
    p_trace.add_argument("input", help="input text or a path to it")
    p_trace.add_argument(
        "--format", choices=["chrome", "ndjson", "summary"], default="chrome",
        help="chrome (chrome://tracing JSON, default), ndjson, or summary",
    )
    p_trace.add_argument("--out", help="write the trace to this file")
    p_trace.add_argument(
        "--backend", choices=["interp", "generated"], default="interp",
        help="evaluator backend (interp shows node-visit spans; default)",
    )
    p_trace.add_argument(
        "--grammar",
        help="shipped-grammar name for scanner/library (default: file stem)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="per-overlay (and, with INPUT, per-pass) time/I-O/memory "
        "tables from the metrics registry",
    )
    add_common(p_prof)
    p_prof.add_argument(
        "input", nargs="?", default=None,
        help="optional input text or path — adds the per-pass table",
    )
    p_prof.add_argument(
        "--grammar",
        help="shipped-grammar name for scanner/library (default: file stem)",
    )
    p_prof.add_argument(
        "--cache-dir",
        help="build through the persistent artifact cache at DIR (the "
        "cache.* counters then appear in the profile)",
    )
    p_prof.add_argument(
        "--record", metavar="DIR",
        help="record attribute provenance while translating INPUT (the "
        "provenance.* counters then appear in the profile)",
    )
    p_prof.add_argument(
        "--metrics", action="store_true",
        help="also dump the raw unified metrics snapshot",
    )
    p_prof.set_defaults(func=cmd_profile)

    p_batch = sub.add_parser(
        "batch",
        help="translate many inputs through the persistent build cache, "
        "optionally across worker processes (-j N)",
    )
    add_common(p_batch)
    p_batch.add_argument(
        "inputs", nargs="+",
        help="input texts or paths to them (each translated independently)",
    )
    p_batch.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default 1 = sequential in-process)",
    )
    p_batch.add_argument(
        "--grammar",
        help="shipped-grammar name for scanner/library (default: file stem)",
    )
    p_batch.add_argument(
        "--cache-dir",
        help="build-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-linguist86)",
    )
    p_batch.add_argument(
        "--output-dir", metavar="DIR",
        help="write each input's root attributes to DIR/NNNN.out instead "
        "of stdout",
    )
    p_batch.add_argument(
        "--backend", choices=["interp", "generated"], default="generated",
        help="evaluator backend (default generated)",
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-input deadline; a hung input is recorded as a failed "
        "item (TranslationTimeout) and its worker killed + restarted "
        "(implies supervised subprocess execution even with -j 1)",
    )
    p_batch.add_argument(
        "--pipeline-depth", type=int, default=None, metavar="N",
        help="inputs kept in flight per worker so scan of input N+1 "
        "overlaps evaluation of input N (default 2; --timeout forces 1 "
        "so a queued input's deadline clock never runs early)",
    )
    p_batch.add_argument(
        "--memo-dir", metavar="DIR",
        help="incremental re-translation memo root: inputs sharing "
        "subtrees with earlier ones splice their sealed output instead "
        "of re-evaluating (workers keep per-slot subdirectories)",
    )
    p_batch.add_argument(
        "--metrics", action="store_true",
        help="also dump the cache.*/batch.* metrics snapshot",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived fault-tolerant translation daemon: supervised "
        "workers, admission control, circuit breaker, durable request "
        "journal (see docs/serving.md)",
    )
    p_serve.add_argument(
        "files", nargs="+", metavar="FILE.ag",
        help="attribute grammar file(s) to serve (grammar name = file "
        "stem; each needs a shipped scanner)",
    )
    p_serve.add_argument(
        "--direction", choices=sorted(_DIRECTIONS), default="r2l",
        help="first-pass direction (default r2l, the paper's choice)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8674,
        help="TCP port (0 = kernel-assigned, printed at startup)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="supervised worker processes per grammar (default 2)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="bounded per-grammar queue; a full queue rejects with "
        "429 + Retry-After instead of buffering (default 16)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline (default 30); a request that "
        "outlives it is cancelled and its worker killed + restarted",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM, finish in-flight requests up to this long "
        "before failing the stragglers fast (default 10)",
    )
    p_serve.add_argument(
        "--journal", metavar="DIR",
        help="durable CRC-framed request journal in DIR (verify with "
        "`repro fsck DIR/requests.ndjson`)",
    )
    p_serve.add_argument(
        "--heartbeat-timeout", type=float, default=10.0, metavar="SECONDS",
        help="an idle worker silent for this long is declared hung and "
        "restarted (default 10)",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="re-dispatches of a request whose worker crashed "
        "(translation is pure, so re-dispatch is idempotent; default 1)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive infrastructure failures that open a "
        "grammar's circuit breaker (default 5)",
    )
    p_serve.add_argument(
        "--breaker-reset", type=float, default=5.0, metavar="SECONDS",
        help="how long an open breaker waits before a half-open probe "
        "(default 5; doubles on probe failure)",
    )
    p_serve.add_argument(
        "--cache-dir",
        help="build-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-linguist86)",
    )
    p_serve.add_argument(
        "--backend", choices=["interp", "generated"], default="generated",
        help="evaluator backend (default generated)",
    )
    p_serve.add_argument(
        "--memo-dir", metavar="DIR",
        help="warm-memo serving: root a per-grammar incremental memo "
        "at DIR/<grammar>/w<slot>; repeated or edited requests splice "
        "clean subtrees from the sealed memo instead of re-evaluating",
    )
    p_serve.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal after every completed request "
        "(machine-crash durability; default flushes per record, which "
        "survives process kill)",
    )
    p_serve.add_argument(
        "--disk-low-mb", type=float, default=0.0, metavar="MB",
        help="degrade every grammar (503 + Retry-After, journal "
        "suspended with an explicit gap marker) when free disk under "
        "the journal directory drops below this many MiB "
        "(0 disables free-space governance)",
    )
    p_serve.add_argument(
        "--disk-high-mb", type=float, default=0.0, metavar="MB",
        help="recover from low-disk degraded mode only once free disk "
        "climbs back above this many MiB (hysteresis; default: equal "
        "to --disk-low-mb)",
    )
    p_serve.add_argument(
        "--cache-max-mb", type=float, default=0.0, metavar="MB",
        help="on a low-disk trip, shrink the build cache to this many "
        "MiB (LRU eviction; 0 = never evict)",
    )
    p_serve.add_argument(
        "--governance-interval", type=float, default=0.5, metavar="SECONDS",
        help="free-space probe period of the governance loop "
        "(default 0.5)",
    )
    p_serve.add_argument(
        "--no-doctor", action="store_true",
        help="skip the startup `repro doctor --repair` sweep over the "
        "journal and cache directories",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_self = sub.add_parser("selfcheck", help="run the self-generation bootstrap")
    p_self.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
