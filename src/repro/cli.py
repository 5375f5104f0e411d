"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    repro table1 [--bw 20 --rtt 42 --buffer 100 --steps 4000 --json out.json]
    repro table2 [--packet] [--pcc-bound] [--batch]
    repro figure1 [--batch]
    repro claims
    repro emulab [--full]
    repro fct [--replications 3]
    repro run --backend {backends} --protocols reno cubic [--flows N]
    repro simulate --protocols "AIMD(1,0.5)" "CUBIC(0.4,0.8)" --steps 2000
    repro cache stats|clear|prune [--dir PATH] [--max-mb N] [--dry-run]
    repro serve [--host 127.0.0.1 --port 8273]
    repro report [--html out.html] [--summary FILE] [--baselines FILE]

Every subcommand prints to stdout. A paper driver's ``--json`` also
archives its structured result; the other subcommands have none, and
refuse the option. The global ``--timing`` prints a wall-time breakdown
to stderr after the run.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.backends import backend_names
from repro.model.link import Link
from repro.protocols import Protocol, make_protocol, presets

# The usage text's --backend line is derived from the backend table, so it
# can never drift from the parser's `choices=backend_names()` again.
if __doc__:  # pragma: no branch - absent only under python -OO
    __doc__ = __doc__.format(backends="{" + ",".join(backend_names()) + "}")


def _add_link_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bw", type=_positive, default=20.0, help="bandwidth in Mbps")
    parser.add_argument("--rtt", type=_positive, default=42.0, help="base RTT in ms")
    parser.add_argument("--buffer", type=_non_negative, default=100.0,
                        help="buffer in MSS")


def _link_from(args: argparse.Namespace) -> Link:
    return Link.from_mbps(args.bw, args.rtt, args.buffer)


def _global_options(**kwargs) -> argparse.ArgumentParser:
    """A parser of the options that go before the subcommand."""
    parser = argparse.ArgumentParser(**kwargs)
    parser.add_argument("--json", type=str, default=None,
                        help="also write the structured result to this path "
                        "(paper drivers only)")
    parser.add_argument("--markdown", action="store_true",
                        help="render tables as Markdown")
    parser.add_argument("--timing", action="store_true",
                        help="print a wall-time breakdown to stderr")
    parser.add_argument("--debug-checks", action="store_true",
                        help="enable runtime invariant assertions in the "
                        "simulators (same as REPRO_DEBUG_CHECKS=1)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'An Axiomatic Approach to Congestion Control' "
        "(HotNets 2017)",
        parents=[_global_options(add_help=False)],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    t1 = subparsers.add_parser("table1", help="protocol characterization (Table 1)")
    _add_link_arguments(t1)
    t1.add_argument("--steps", type=_count, default=4000)
    t1.add_argument("--senders", type=_senders, default=2)

    t2 = subparsers.add_parser(
        "table2", help="Robust-AIMD vs PCC TCP-friendliness (Table 2)"
    )
    t2.add_argument("--steps", type=_count, default=4000)
    t2.add_argument("--packet", action="store_true",
                    help="measure at packet level instead of the fluid model")
    t2.add_argument("--pcc-bound", action="store_true",
                    help="use the MIMD(1.01,0.99) aggressiveness bound as the "
                    "PCC stand-in")
    t2.add_argument("--batch", action="store_true",
                    help="evaluate compatible cells through the batched fluid "
                    "kernel (one NumPy pass per step for the whole grid)")

    fig1 = subparsers.add_parser(
        "figure1", help="Pareto frontier surface (Figure 1)"
    )
    fig1.add_argument("--batch", action="store_true",
                      help="evaluate the empirical grid through the batched "
                      "fluid kernel")

    claims = subparsers.add_parser(
        "claims", help="Claim 1 and Theorems 1-5 demonstrations"
    )
    _add_link_arguments(claims)
    claims.add_argument("--steps", type=_count, default=4000)

    emulab = subparsers.add_parser(
        "emulab", help="packet-level hierarchy validation (Section 5.1)"
    )
    emulab.add_argument("--full", action="store_true",
                        help="run the paper's full grid (slow)")
    emulab.add_argument("--duration", type=_positive, default=None,
                        help="seconds of simulated time per run (default: "
                        "run_emulab's horizon, 20)")

    fct = subparsers.add_parser(
        "fct", help="short-flow completion times vs background protocol"
    )
    _add_link_arguments(fct)
    fct.add_argument("--rate", type=_positive, default=1.5,
                     help="Poisson arrival rate of short flows per second")
    fct.add_argument("--mean-size", type=int, default=60,
                     help="mean short-flow size in MSS")
    fct.add_argument("--duration", type=_positive, default=40.0,
                     help="seconds of simulated time per run")
    fct.add_argument("--replications", type=int, default=1,
                     help="independent workload seeds pooled per background")
    fct.add_argument("--seed", type=_seed, default=42)

    run_p = subparsers.add_parser(
        "run", help="run one scenario spec through any simulation backend"
    )
    _add_link_arguments(run_p)
    run_p.add_argument("--backend", choices=backend_names(), default="fluid",
                       help="simulation backend (default: fluid)")
    run_p.add_argument("--protocols", nargs="+", type=_protocol, required=True,
                       help="protocol specs, e.g. 'AIMD(1,0.5)' reno cubic")
    run_p.add_argument("--steps", type=_count, default=2000,
                       help="horizon in RTT steps (ignored when --duration set)")
    run_p.add_argument("--duration", type=_positive, default=None,
                       help="horizon in seconds (overrides --steps)")
    run_p.add_argument("--loss", type=_loss_rate, default=0.0,
                       help="random (non-congestion) loss rate in [0, 1)")
    run_p.add_argument("--flows", type=_count, default=1,
                       help="flow multiplicity: each --protocols entry stands "
                       "for this many identical flows (a synchronized run of "
                       "stateless protocols steps them all at once on the "
                       "backend's batch kernel; the meanfield backend "
                       "simulates any count at fixed cost)")
    run_p.add_argument("--unsync-loss", action="store_true",
                       help="unsynchronized loss feedback (each flow notices "
                       "a lossy step with probability 1-(1-L)^x)")
    run_p.add_argument("--seed", type=_seed, default=0,
                       help="seed for randomized dynamics")
    run_p.add_argument("--slow-start", action="store_true",
                       help="give every flow a slow-start ramp")
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the unified trace cache")

    sim = subparsers.add_parser("simulate", help="run an ad-hoc fluid simulation")
    _add_link_arguments(sim)
    sim.add_argument("--protocols", nargs="+", type=_protocol, required=True,
                     help="protocol specs, e.g. 'AIMD(1,0.5)' reno cubic")
    sim.add_argument("--steps", type=_count, default=2000)

    char = subparsers.add_parser(
        "characterize",
        help="score one protocol on all eight axioms (plus extensions)",
    )
    _add_link_arguments(char)
    char.add_argument("--protocol", type=_protocol, required=True,
                      help="protocol spec or preset name")
    char.add_argument("--steps", type=_count, default=4000)
    char.add_argument("--senders", type=_senders, default=2)
    char.add_argument("--extensions", action="store_true",
                      help="also measure responsiveness and churn resilience")

    survey = subparsers.add_parser(
        "survey",
        help="characterize the full protocol zoo across link regimes",
    )
    survey.add_argument("--steps", type=_count, default=3000)
    survey.add_argument("--no-extensions", action="store_true",
                        help="skip the responsiveness/churn extension metrics")

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk simulation cache"
    )
    cache.add_argument("action", choices=("stats", "clear", "prune"))
    cache.add_argument("--dir", type=str, default=None,
                       help="cache directory (default: $REPRO_SIM_CACHE, else "
                       "~/.cache/repro/sim)")
    cache.add_argument("--max-mb", type=_non_negative, default=None,
                       help="with 'prune': evict oldest entries until the "
                       "cache fits in this many MB (default: "
                       "$REPRO_CACHE_MAX_MB)")
    cache.add_argument("--dry-run", action="store_true",
                       help="with 'prune': report what oldest-first "
                       "eviction would remove without deleting anything")

    serve = subparsers.add_parser(
        "serve",
        help="simulation-as-a-service: HTTP/JSON endpoint over the "
        "unified executor (POST /run, GET /stats)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=8273,
                       help="port to bind (default: 8273; 0 picks a free one)")

    report = subparsers.add_parser(
        "report", help="render benchmark results (text, or --html page)"
    )
    report.add_argument("--html", type=str, nargs="?",
                        const="benchmarks/results/report.html", default=None,
                        help="write a self-contained HTML page here "
                        "(default: benchmarks/results/report.html)")
    report.add_argument("--summary", type=str,
                        default="benchmarks/results/summary.json",
                        help="bench_all.py summary to render")
    report.add_argument("--baselines", type=str,
                        default="benchmarks/results/baselines.json",
                        help="baseline walls for the speedup column")
    return parser


def _finite(text: str, *, positive: bool, below: float = math.inf) -> float:
    """``text`` as a finite number under ``below``, positive or else
    non-negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    in_range = (value > 0 if positive else value >= 0) and value < below
    if not (math.isfinite(value) and in_range):
        kind = "positive" if positive else "non-negative"
        bound = "" if below == math.inf else f" below {below:g}"
        raise argparse.ArgumentTypeError(
            f"must be a finite, {kind} number{bound}, got {text!r}"
        )
    return value


def _non_negative(text: str) -> float:
    """A ``--max-mb`` or ``--buffer`` value: a finite, non-negative number.

    ``--max-mb`` follows the rule :func:`repro.perf.store.size_cap_bytes`
    applies to ``$REPRO_CACHE_MAX_MB``; a negative cap would evict every
    entry.
    """
    return _finite(text, positive=False)


def _positive(text: str) -> float:
    """A ``--duration``, ``--rate``, ``--bw`` or ``--rtt`` value: a finite,
    positive number.

    An infinite or NaN horizon never ends a packet run, and such an
    arrival rate never ends the Poisson workload; an infinite bandwidth
    or RTT makes the RTT inflation NaN.
    """
    return _finite(text, positive=True)


def _loss_rate(text: str) -> float:
    """A ``--loss`` value: a finite rate in ``[0, 1)``, the range
    :class:`~repro.backends.spec.ScenarioSpec` accepts."""
    return _finite(text, positive=False, below=1.0)


def _count(text: str, *, least: int = 1, most: int | None = None) -> int:
    """``text`` as an integer from ``least`` up to ``most``.

    With its defaults, the ``--steps`` and ``--flows`` type: a zero
    horizon or population is rejected here, not by a traceback from the
    engine.
    """
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if not (value >= least and (most is None or value <= most)):
        kind = "non-negative" if least == 0 else "positive"
        bound = f" of at least {least}" if least > 1 else ""
        bound += "" if most is None else f" up to {most}"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer{bound}, got {text!r}")
    return value


def _senders(text: str) -> int:
    """A ``--senders`` value: at least 2, since the fairness and
    friendliness estimators compare senders."""
    return _count(text, least=2)


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as NumPy's generators
    take (a negative one fails only once a run draws, without naming the
    option)."""
    return _count(text, least=0)


def _port(text: str) -> int:
    """A ``--port`` value: ``0`` (pick a free port) through ``65535``."""
    return _count(text, least=0, most=65535)


def _protocol(text: str) -> Protocol:
    """A ``--protocol(s)`` entry: a protocol spec or preset name, built.

    A spec that does not parse, or whose constructor rejects its
    parameters, is a usage error naming the option, not a traceback.
    """
    try:
        return make_protocol(text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _run_cache_command(args: argparse.Namespace) -> int:
    from repro.perf.cache import TraceCache
    from repro.perf.store import prune_cache, stats_by_kind

    cache = TraceCache(args.dir)
    by_kind = stats_by_kind(cache)
    if args.action == "prune":
        max_bytes = None
        if args.max_mb is not None:
            max_bytes = int(args.max_mb * 1024 * 1024)
        report = prune_cache(cache, max_bytes=max_bytes,
                             dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        reclaim = "would reclaim" if args.dry_run else "reclaimed"
        print(f"{verb} {report['removed']} cached trace(s), {reclaim} "
              f"{report['reclaimed_bytes']} bytes from {cache.directory}")
        print(f"remaining: {report['remaining_entries']} entries, "
              f"{report['remaining_bytes']} bytes")
        if report["stale_temp_files"]:
            print(f"{verb} {report['stale_temp_files']} stale temp file(s) "
                  "left by killed writers")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached trace(s) from {cache.directory}")
        for kind, kind_stats in by_kind.items():
            print(f"  {kind}: {kind_stats['entries']} entries, "
                  f"{kind_stats['bytes']} bytes")
        return 0
    from repro.perf.store import size_cap_bytes

    stats = cache.stats()
    print(f"cache directory: {stats['directory']}")
    print(f"entries: {stats['entries']}")
    print(f"size: {stats['bytes']} bytes")
    cap = size_cap_bytes()
    if cap is not None:
        print(f"size cap: {cap} bytes ($REPRO_CACHE_MAX_MB)")
    for kind, kind_stats in by_kind.items():
        print(f"  {kind}: {kind_stats['entries']} entries, "
              f"{kind_stats['bytes']} bytes")
    return 0


def _run_run_command(args: argparse.Namespace) -> int:
    from repro.backends import LoweringError, ScenarioSpec, run_specs

    link = _link_from(args)
    spec = ScenarioSpec(
        protocols=args.protocols,
        link=link,
        steps=args.steps,
        duration=args.duration,
        random_loss_rate=args.loss,
        slow_start=args.slow_start,
        seed=args.seed,
        flow_multiplicity=args.flows,
        unsynchronized_loss=args.unsync_loss,
    )
    # A batch of one: the kernel lanes step a large population at once,
    # and a spec they cannot express falls back to the serial engine.
    try:
        trace = run_specs(
            [spec], args.backend, batch=True, use_cache=not args.no_cache
        )[0]
    except LoweringError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    print(f"{link.describe()}, backend={args.backend}, "
          f"{trace.steps} steps (~{spec.horizon_seconds():g}s)")
    for key, value in trace.summary().items():
        print(f"  {key}: {value:.4f}")
    tail_means = trace.tail(0.5).mean_windows()
    if args.backend == "meanfield":
        # Mean-field columns are population-weighted flow classes (identical
        # entries merge), so report the per-flow mean of each class.
        for group, mean in zip(spec.lower_meanfield().groups, tail_means):
            print(f"  {group.protocol.name} x{group.population}: "
                  f"tail mean window {mean / group.population:.2f} MSS/flow")
    else:
        for i, protocol in enumerate(args.protocols):
            # With --flows > 1 the entry's copies are interchangeable;
            # report the first.
            mean = tail_means[i * args.flows]
            label = f" x{args.flows}" if args.flows > 1 else ""
            print(f"  {protocol.name}{label}: tail mean window {mean:.2f} MSS")
    from repro.perf.store import unified_key

    key = unified_key(args.backend, spec)
    if key is not None:
        print(f"  cache key: {args.backend}:{key[:16]}…")
    return 0


#: The subcommands that build a structured result for ``--json`` to write.
_RESULT_COMMANDS = frozenset(
    {"table1", "table2", "figure1", "claims", "emulab", "fct", "survey"}
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line, naming any unknown option before the subcommand.

    Left to itself, argparse takes such an option's value for the
    subcommand: ``repro --workers 2 claims`` would fail with "invalid
    choice: '2'". Reading the global options alone first finds the
    unknown ones, and the error names them (exit status 2). ``--json``
    with a subcommand that builds no structured result is an error too,
    raised before any work: the file would never be written.
    """
    parser = build_parser()
    head = _global_options(add_help=False, exit_on_error=False)
    head.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        unknown = head.parse_known_args(argv)[1]
    except argparse.ArgumentError:
        unknown = []  # a malformed global option: the full parser names it
    unknown = [arg for arg in unknown if arg not in ("-h", "--help")]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = parser.parse_args(argv)
    if args.json is not None and args.command not in _RESULT_COMMANDS:
        parser.error(f"--json: '{args.command}' writes no structured result")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.debug_checks:
        from repro import debug

        debug.enable()
    try:
        return _dispatch(args)
    finally:
        if args.timing:
            from repro.perf import REGISTRY

            print(REGISTRY.render(), file=sys.stderr)


def _run_report_command(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.report_html import (
        render_text,
        write_html_report,
    )

    summary_path = Path(args.summary)
    if not summary_path.is_file():
        print(f"no benchmark summary at {summary_path} "
              "(run benchmarks/bench_all.py first)", file=sys.stderr)
        return 1
    if args.html is not None:
        out = write_html_report(summary_path, args.html, args.baselines)
        print(f"benchmark report written to {out}")
        return 0
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    baselines = {}
    baselines_path = Path(args.baselines)
    if baselines_path.is_file():
        baselines = json.loads(baselines_path.read_text(encoding="utf-8"))
    print(render_text(summary, baselines))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "cache":
        return _run_cache_command(args)
    if args.command == "serve":
        from repro.exec.serve import serve_forever

        serve_forever(args.host, args.port)
        return 0
    if args.command == "report":
        return _run_report_command(args)
    if args.command == "run":
        return _run_run_command(args)
    # Each driver is imported by the branch that runs it, so no other
    # subcommand (serve above all) loads the drivers or the metrics.
    if args.command == "table1":
        from repro.core.metrics.base import EstimatorConfig
        from repro.experiments.table1 import render_table1, run_table1

        link = _link_from(args)
        result = run_table1(
            link,
            EstimatorConfig(steps=args.steps, n_senders=args.senders),
        )
        print(render_table1(result, markdown=args.markdown))
    elif args.command == "table2":
        from repro.experiments.table2 import render_table2, run_table2, run_table2_packet

        pcc = presets.pcc_bound() if args.pcc_bound else presets.pcc_like()
        if args.packet:
            result = run_table2_packet(pcc=pcc)
        else:
            result = run_table2(pcc=pcc, steps=args.steps, batch=args.batch)
        print(render_table2(result, markdown=args.markdown))
    elif args.command == "figure1":
        from repro.experiments.figure1 import render_figure1, run_figure1

        result = run_figure1(batch=args.batch)
        print(render_figure1(result, markdown=args.markdown))
    elif args.command == "claims":
        from repro.experiments.claims import render_claims, run_claims

        result = run_claims(_link_from(args), steps=args.steps)
        print(render_claims(result, markdown=args.markdown))
    elif args.command == "emulab":
        from repro.experiments.emulab import render_emulab, run_emulab

        # Without --duration the driver's own default horizon applies.
        options = {} if args.duration is None else {"duration": args.duration}
        if args.full:
            options.update(ns=(2, 3, 4), bandwidths_mbps=(20, 30, 60, 100),
                           buffers_mss=(10, 100))
        result = run_emulab(**options)
        print(render_emulab(result, markdown=args.markdown))
    elif args.command == "fct":
        from repro.experiments.fct import render_fct, run_fct_study

        try:
            result = run_fct_study(
                link=_link_from(args),
                rate_per_s=args.rate,
                mean_size=args.mean_size,
                arrival_window=args.duration * 0.75,
                duration=args.duration,
                seed=args.seed,
                replications=args.replications,
            )
        except ValueError as exc:
            print(f"repro fct: {exc}", file=sys.stderr)
            return 2
        print(render_fct(result, markdown=args.markdown))
    elif args.command == "simulate":
        from repro.backends import ScenarioSpec, run_spec

        link = _link_from(args)
        trace = run_spec(ScenarioSpec.from_fluid(link, args.protocols, args.steps))
        print(f"{link.describe()}, {args.steps} steps")
        for key, value in trace.summary().items():
            print(f"  {key}: {value:.4f}")
        for i, protocol in enumerate(args.protocols):
            mean = trace.tail(0.5).mean_windows()[i]
            print(f"  {protocol.name}: tail mean window {mean:.2f} MSS")
        return 0
    elif args.command == "characterize":
        from repro.core.characterization import characterize
        from repro.core.metrics.base import EstimatorConfig
        from repro.core.metrics.extensions import (
            estimate_churn_resilience,
            estimate_responsiveness,
        )

        link = _link_from(args)
        protocol = args.protocol
        characterization = characterize(
            protocol, link,
            EstimatorConfig(steps=args.steps, n_senders=args.senders),
        )
        print(f"{protocol.name} on {link.describe()}:")
        for metric, score in characterization.empirical.as_dict().items():
            theory = ""
            if characterization.theoretical is not None:
                theory = f"   (theory: {characterization.theoretical.score(metric):.4g})"
            print(f"  {metric:>18}: {score:.4f}{theory}")
        if args.extensions:
            responsiveness = estimate_responsiveness(protocol, link)
            churn = estimate_churn_resilience(protocol, link)
            print(f"  {'responsiveness':>18}: {responsiveness.score:.0f} steps "
                  "to reclaim a doubled link")
            print(f"  {'churn_resilience':>18}: {churn.score:.0f} steps for a "
                  "joiner to reach half share")
        return 0
    elif args.command == "survey":
        from repro.core.metrics.base import EstimatorConfig
        from repro.experiments.survey import render_survey, run_survey

        result = run_survey(
            config=EstimatorConfig(steps=args.steps, n_senders=2),
            include_extensions=not args.no_extensions,
        )
        print(render_survey(result, markdown=args.markdown))
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command}")

    if args.json is not None:
        from repro.experiments.results import save_result

        save_result(result, args.json)
        print(f"\nstructured result written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
