"""``python -m repro`` / ``repro`` — the command-line face of the runtime API.

Subcommands
-----------
* ``repro list`` — every registered algorithm with kind and summary.
* ``repro run <algorithm>`` — build a graph, run once, print the report
  summary (``--json`` emits the full RunReport envelope).
* ``repro sweep <algorithm>`` — grid over ``--ks`` / ``--seeds`` / ``--ns``
  with optional ``--processes`` fan-out; prints one line per grid point.
* ``repro bench list|run|compare`` — the benchmark subsystem: run
  registered scenario grids into ``BENCH_<name>.json`` artifacts and gate
  a fresh run against a committed baseline (see DESIGN.md, "Benchmarks &
  perf gating").
* ``repro scenarios list`` — the adversarial scenario registry; pair with
  ``repro run <algorithm> --scenario <name>`` to run any algorithm under
  faults, partition skew and worst-case inputs (DESIGN.md §7).
* ``repro serve`` — the always-on graph service: an asyncio server over a
  pool of warm Sessions with request coalescing (DESIGN.md §10).
* ``repro loadgen`` — drive a seeded deterministic request mix at a
  running server (or ``--spawn`` one in-process) and report latency
  percentiles plus coalescing hit rates.
* ``repro corpus list|gen|verify|info`` — the deterministic input corpus
  (docs/corpus.md): self-describing generator specs, materialization to
  memory-mapped npz entries, and digest/regeneration verification.
  ``repro run <alg> --corpus <entry>`` feeds a materialized entry to any
  algorithm.

Exit codes: 0 success; 1 domain failure (a verification answered False, a
perf gate regressed); 2 usage error (unknown name, invalid config).

Examples::

    python -m repro list
    python -m repro run connectivity --n 200 --k 4
    python -m repro run mst --n 500 --k 8 --seed 3 --json report.json
    python -m repro run verify --n 200 --param problem=cycle_containment
    python -m repro sweep connectivity --n 1000 --ks 2,4,8 --seeds 0,1,2
    python -m repro scenarios list
    python -m repro run connectivity --n 500 --scenario worst_case_storm
    python -m repro bench run --quick --all
    python -m repro bench compare . fresh-artifacts/ --wall-tolerance 1.0
    python -m repro serve --port 8642 --workers 2
    python -m repro loadgen --spawn --requests 40 --clients 4 --mix-seed 7
    python -m repro corpus gen "gnm n=4096 m=12288 weighted=true" --seed 3
    python -m repro corpus verify
    python -m repro run mst --corpus "gnm/d6b1429151d9_3"
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.corpus.families import sizeable_families
from repro.corpus.inputs import resolve_input
from repro.corpus.manager import CorpusManager
from repro.graphs.graph import Graph
from repro.runtime import (
    ClusterConfig,
    LogDiamConfig,
    RunConfig,
    Session,
    SketchConfig,
    get_algorithm,
    list_algorithms,
    resolve_seed,
)
from repro.runtime.config import HASH_FAMILIES

# Single source of truth for option defaults: the config dataclasses.
_SKETCH_DEFAULTS = SketchConfig()
_CLUSTER_DEFAULTS = ClusterConfig()

__all__ = ["main"]

def _scenario_of(args: argparse.Namespace):
    """The resolved --scenario (or None), via the scenario registry."""
    name = getattr(args, "scenario", None)
    if name is None:
        return None
    from repro.scenarios.registry import get_scenario

    return get_scenario(name)


def _input_graph(args: argparse.Namespace, seed: int, *, n: int | None = None) -> Graph:
    """The run's input graph (size overridable for sweeps).

    One call into :func:`~repro.corpus.inputs.resolve_input`, the resolver
    the service and ``Session`` share: ``--corpus`` > ``--graph`` >
    ``--scenario`` > ``gnm``, graph seed derived from ``--graph-seed`` or
    the run seed, and weights when ``--weighted`` asks or the algorithm
    requires them.  ``--m`` and ``--radius`` override the family's params.
    """
    overrides = {"m": args.m, "radius": args.radius}
    graph = resolve_input(
        n=int(args.n if n is None else n),
        seed=args.graph_seed if args.graph_seed is not None else seed,
        family=args.graph,
        scenario=args.scenario,
        corpus=args.corpus,
        weighted=args.weighted,
        algorithm=args.algorithm,
        params=dict(args.param or []),
        overrides={key: value for key, value in overrides.items() if value is not None},
        manager=CorpusManager(args.corpus_root),
    )
    if args.weighted and not graph.weighted:
        # Only a corpus entry comes back unweighted: its bytes are fixed,
        # so --weighted cannot overlay weights on it.
        raise ValueError(
            f"--weighted: corpus entry {args.corpus!r} is unweighted; "
            "materialize a weighted=true cell instead"
        )
    return graph


def _parse_param(text: str):
    """Parse one ``--param key=value`` item; values are JSON with str fallback."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"--param needs key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    logdiam = LogDiamConfig(space_bound=args.space_bound, doubling_budget=args.doubling_budget)
    config = RunConfig(
        seed=args.seed,
        sketch=SketchConfig(repetitions=args.repetitions, hash_family=args.hash_family),
        cluster=ClusterConfig(
            k=args.k,
            bandwidth_multiplier=args.bandwidth_multiplier,
            partition_seed=args.partition_seed,
        ),
        max_phases=args.max_phases,
        logdiam=None if logdiam.is_benign else logdiam,
        params=dict(args.param or []),
    ).validate()
    scenario = _scenario_of(args)
    if scenario is not None:
        config = scenario.apply(config)
    return config


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _add_run_options(p: argparse.ArgumentParser) -> None:
    graph = p.add_argument_group("graph construction")
    graph.add_argument(
        "--graph",
        choices=sizeable_families(),
        default=None,
        help="graph family, any sizeable corpus family (default gnm; overrides "
        "the --scenario family)",
    )
    graph.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run under a registered adversarial scenario (see 'repro scenarios list'): "
        "applies its partition scheme and fault plan, and supplies the input "
        "graph unless --graph is given",
    )
    graph.add_argument(
        "--corpus",
        default=None,
        metavar="ENTRY",
        help="run on a materialized corpus entry id (see 'repro corpus list "
        "--entries'); wins over --graph/--scenario input and ignores --n",
    )
    graph.add_argument(
        "--corpus-root",
        default=None,
        metavar="DIR",
        help="corpus directory (default: $REPRO_CORPUS_DIR or ./corpus)",
    )
    graph.add_argument("--n", type=int, default=1000, help="vertices (default 1000)")
    graph.add_argument("--m", type=int, default=None, help="edges for gnm (default 3n)")
    graph.add_argument(
        "--radius", type=float, default=None, help="radius for geometric (default 0.08)"
    )
    graph.add_argument(
        "--graph-seed",
        type=int,
        default=None,
        help="seed the graph seed derives from (default: the run seed)",
    )
    graph.add_argument(
        "--weighted",
        action="store_true",
        help="force unique edge weights on the input (a --corpus entry must carry them)",
    )
    cfg = p.add_argument_group("run configuration")
    cfg.add_argument(
        "--k", type=int, default=_CLUSTER_DEFAULTS.k, help=f"machines (default {_CLUSTER_DEFAULTS.k})"
    )
    cfg.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    cfg.add_argument(
        "--repetitions",
        type=int,
        default=_SKETCH_DEFAULTS.repetitions,
        help="sketch repetitions",
    )
    cfg.add_argument(
        "--hash-family",
        choices=HASH_FAMILIES,
        default=_SKETCH_DEFAULTS.hash_family,
        help="sketch hash family",
    )
    cfg.add_argument("--max-phases", type=int, default=None, help="phase budget override")
    cfg.add_argument(
        "--space-bound",
        type=int,
        default=None,
        help="per-vertex ball bound for connectivity_logdiam (default unbounded)",
    )
    cfg.add_argument(
        "--doubling-budget",
        type=int,
        default=None,
        help="doubling-iteration budget for connectivity_logdiam "
        "(default: --max-phases, else run to fixpoint)",
    )
    cfg.add_argument(
        "--bandwidth-multiplier",
        type=int,
        default=_CLUSTER_DEFAULTS.bandwidth_multiplier,
        help="per-link bandwidth scale",
    )
    cfg.add_argument(
        "--partition-seed", type=int, default=None, help="pin the vertex-partition seed"
    )
    cfg.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="KEY=VALUE",
        help="algorithm-specific extra (repeatable), e.g. --param output=strict",
    )
    p.add_argument("--json", metavar="PATH", help="write the RunReport JSON ('-' for stdout)")


def _emit_json(reports, path: str, *, as_array: bool) -> None:
    """``run`` always writes one object; ``sweep`` always writes an array,
    so consumers get a stable shape regardless of grid size."""
    if as_array:
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    else:
        text = reports[0].to_json(indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")


def _cmd_list(_args: argparse.Namespace) -> int:
    names = list_algorithms()
    width = max(len(n) for n in names)
    for name in names:
        spec = get_algorithm(name)
        weights = " [weighted]" if spec.needs_weights() else ""
        print(f"{name:<{width}}  {spec.kind:<8}  {spec.summary}{weights}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    graph = _input_graph(args, resolve_seed(None, config.seed))
    report = Session(graph, config=config).run(args.algorithm)
    print(report.summary())
    if args.json:
        _emit_json([report], args.json, as_array=False)
    # A False verification answer is a domain failure: scripts chaining
    # `repro run verify ...` must see it in the exit status, not just in
    # the printed envelope.
    if report.result.get("answer") is False:
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    seed = resolve_seed(None, config.seed)
    session = Session(config=config)
    if args.corpus is not None and args.ns:
        raise ValueError("--corpus pins one input; it cannot sweep --ns")
    if args.ns:
        reports = session.sweep(
            args.algorithm,
            seeds=args.seeds,
            ks=args.ks,
            ns=args.ns,
            graph_factory=lambda n: _input_graph(args, seed, n=n),
            processes=args.processes,
        )
    else:
        reports = session.sweep(
            args.algorithm,
            seeds=args.seeds,
            ks=args.ks,
            graph=_input_graph(args, seed),
            processes=args.processes,
        )
    for report in reports:
        print(report.summary())
    if args.json:
        _emit_json(reports, args.json, as_array=True)
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import get_scenario

    print(json.dumps(get_scenario(args.name).to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_scenarios_list(_args: argparse.Namespace) -> int:
    from repro.scenarios.registry import get_scenario, list_scenarios

    names = list_scenarios()
    width = max(len(n) for n in names)
    for name in names:
        sc = get_scenario(name)
        axes = []
        if sc.family is not None:
            axes.append(f"graph={sc.family}")
        if sc.partition.scheme != "uniform":
            axes.append(f"partition={sc.partition.scheme}")
        axes.extend(sc.sections())
        tag = ",".join(axes) or "benign"
        print(f"{name:<{width}}  {tag:<32}  {sc.summary}")
    return 0


def _cmd_corpus_list(args: argparse.Namespace) -> int:
    from repro.corpus import CORPUS_FAMILIES

    if args.entries:
        manager = CorpusManager(args.root)
        entries = manager.entries()
        for entry in entries:
            weights = "weighted" if entry.weighted else "unweighted"
            print(f"{entry.entry_id}  n={entry.n} m={entry.m} {weights}  {entry.describe()}")
        if not entries:
            print(f"(no materialized entries under {manager.root})")
        return 0
    for name in sorted(CORPUS_FAMILIES):
        fam = CORPUS_FAMILIES[name]
        print(fam.describe())
        if args.verbose:
            print(f"    {fam.summary}; default grid: {len(fam.grid) or 1} cell(s)")
    return 0


def _cmd_corpus_gen(args: argparse.Namespace) -> int:
    from repro.corpus import parse_spec

    manager = CorpusManager(args.root)
    if args.specs:
        entries = []
        for spec in args.specs:
            family, params = parse_spec(spec)
            for seed in args.seeds if args.seeds is not None else [0]:
                entries.append(manager.generate(family, params, seed, force=args.force))
    else:
        entries = []
        for seed in args.seeds if args.seeds is not None else [0]:
            entries.extend(manager.generate_grid(seed=seed))
    for entry in entries:
        print(f"{entry.entry_id}  n={entry.n} m={entry.m} digest={entry.digest[:12]}")
    print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} under {manager.root}")
    return 0


def _cmd_corpus_verify(args: argparse.Namespace) -> int:
    manager = CorpusManager(args.root)
    checked = failed = 0
    for entry_id, error in manager.verify_all(regenerate=not args.no_regenerate):
        checked += 1
        if error is None:
            print(f"ok    {entry_id}")
        else:
            failed += 1
            print(f"FAIL  {error}")
    if checked == 0:
        print(f"error: no corpus entries under {manager.root}", file=sys.stderr)
        return 2
    if failed:
        print(f"CORPUS VERIFY FAILED: {failed}/{checked} entries")
        return 1
    print(f"corpus ok: {checked} entries verified")
    return 0


def _cmd_corpus_info(args: argparse.Namespace) -> int:
    manager = CorpusManager(args.root)
    print(json.dumps(manager.info(args.entry), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import GraphService

    async def _amain() -> int:
        service = GraphService(
            workers=args.workers,
            max_clusters=args.max_clusters,
            graph_cache_size=args.graph_cache,
            max_requests=args.max_requests,
            corpus=CorpusManager(args.corpus_root),
        )
        host, port = await service.start(args.host, args.port)
        print(
            f"repro service listening on {host}:{port} "
            f"(workers={args.workers}, max_clusters={args.max_clusters})",
            flush=True,
        )
        if args.port_file:
            # Machine-readable bind address for wrappers that asked for an
            # ephemeral port (tests, CI smoke): "host port" on one line.
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{host} {port}\n")
        try:
            await service.wait_closed()
        finally:
            await service.aclose()
        print("repro service stopped")
        return 0

    try:
        return asyncio.run(_amain())
    except KeyboardInterrupt:
        print("\ninterrupted; repro service stopped")
        return 0


def _scenario_list_arg(text: str) -> list[str | None]:
    """Comma list of scenario names; ``none`` is the benign-gnm entry."""
    items: list[str | None] = []
    for part in text.split(","):
        part = part.strip()
        if part:
            items.append(None if part.lower() == "none" else part)
    return items


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.loadgen import (
        LoadgenOptions,
        MixSpec,
        run_loadgen,
        run_with_local_service,
    )

    mix = MixSpec(
        algorithms=tuple(args.algorithms),
        scenarios=tuple(args.scenarios),
        ns=tuple(args.ns),
        ks=tuple(args.ks),
        seeds=tuple(args.seeds),
        epochs=args.epochs,
        hot_fraction=args.hot_fraction,
    )
    options = LoadgenOptions(
        host=args.host,
        port=args.port,
        requests=args.requests,
        clients=args.clients,
        mode=args.mode,
        rate=args.rate,
        max_inflight=args.max_inflight,
        mix=mix,
        mix_seed=args.mix_seed,
        timeout=args.timeout,
        shutdown=args.shutdown,
    ).validate()
    try:
        if args.spawn:
            result = asyncio.run(
                run_with_local_service(
                    options, workers=args.workers, max_clusters=args.max_clusters
                )
            )
        else:
            result = asyncio.run(run_loadgen(options))
    except KeyboardInterrupt:
        print("\ninterrupted; no drive summary")
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: cannot drive {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    print(result.summary())
    if args.json:
        text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
    return 0 if result.errors == 0 else 1


def _cmd_bench_list(_args: argparse.Namespace) -> int:
    from repro.bench import get_benchmark, list_benchmarks

    names = list_benchmarks()
    width = max(len(n) for n in names)
    for name in names:
        spec = get_benchmark(name)
        grids = f"{len(spec.cells)} cells / {len(spec.quick_cells)} quick"
        print(f"{name:<{width}}  {spec.group:<10}  {grids:<20}  {spec.title}")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import list_benchmarks, run_all

    if args.all:
        names = list_benchmarks()
    elif args.names:
        names = args.names
    else:
        print("error: name at least one benchmark or pass --all", file=sys.stderr)
        return 2
    tier = "quick" if args.quick else "full"
    progress = None if args.quiet else print
    out_dir = args.out_dir
    profiling = args.profile or args.profile_out is not None
    if profiling:
        # Profiled walls include instrumentation overhead: dump the hot-path
        # report but never write artifacts a perf gate could mistake for a
        # clean baseline.
        out_dir = None
        print("profiling enabled: BENCH_*.json artifacts are NOT written")
        if args.profile_out is not None:
            print(f"raw cProfile dumps go to {args.profile_out}")
    results = run_all(
        names,
        tier=tier,
        seed=args.seed,
        out_dir=out_dir,
        progress=progress,
        force=args.force,
        profile_top=args.profile_top if profiling else None,
        profile_out=args.profile_out,
    )
    for result in results:
        print(result.summary())
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import Thresholds, compare_paths

    thresholds = Thresholds(
        metric_rel_tol=args.rel_tol, wall_rel_tol=args.wall_tolerance
    )
    comparisons = compare_paths(args.baseline, args.current, thresholds)
    failed = 0
    for cmp in comparisons:
        print(cmp.render())
        failed += 0 if cmp.ok else 1
    total = sum(c.cells_compared for c in comparisons)
    if failed:
        print(f"PERF GATE FAILED: {failed}/{len(comparisons)} benchmarks regressed")
        if args.report_only:
            print("(report-only: exit status not affected)")
            return 0
        return 1
    print(f"perf gate ok: {len(comparisons)} benchmarks, {total} cells compared")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's distributed graph algorithms and baselines "
        "through the unified runtime API.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered algorithms")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one algorithm on a generated graph")
    p_run.add_argument("algorithm", help="registry name (see 'repro list')")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a seed/k/n grid")
    p_sweep.add_argument("algorithm", help="registry name (see 'repro list')")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--ks", type=_int_list, default=None, help="comma list of k values")
    p_sweep.add_argument("--seeds", type=_int_list, default=None, help="comma list of seeds")
    p_sweep.add_argument(
        "--ns", type=_int_list, default=None, help="comma list of graph sizes (n)"
    )
    p_sweep.add_argument(
        "--processes", type=int, default=None, help="process-pool width (default: sequential)"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser("scenarios", help="adversarial scenario registry")
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    ps_list = scen_sub.add_parser("list", help="list registered scenarios")
    ps_list.set_defaults(func=_cmd_scenarios_list)
    ps_show = scen_sub.add_parser(
        "show", help="dump one scenario's full plan JSON (for reproducibility reports)"
    )
    ps_show.add_argument("name", help="scenario name (see 'scenarios list')")
    ps_show.set_defaults(func=_cmd_scenarios_show)

    p_serve = sub.add_parser(
        "serve", help="run the always-on graph service (asyncio, warm Session pool)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    p_serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral; default 8642)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="session workers; traffic is key-affine (default 2)"
    )
    p_serve.add_argument(
        "--max-clusters",
        type=int,
        default=32,
        help="per-worker cluster-cache bound (LRU; default 32)",
    )
    p_serve.add_argument(
        "--graph-cache",
        type=int,
        default=16,
        metavar="N",
        help="per-worker input-graph cache bound (LRU; default 16)",
    )
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="stop after serving N requests (default: serve until shutdown)",
    )
    p_serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound 'host port' to PATH once listening "
        "(for wrappers using --port 0)",
    )
    p_serve.add_argument(
        "--corpus-root",
        default=None,
        metavar="DIR",
        help="corpus directory for corpus-entry requests "
        "(default: $REPRO_CORPUS_DIR or ./corpus); shared across workers",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="drive a seeded request mix at a graph service"
    )
    target = p_load.add_argument_group("target")
    target.add_argument("--host", default="127.0.0.1", help="server address")
    target.add_argument("--port", type=int, default=8642, help="server port")
    target.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process server on an ephemeral port instead of "
        "connecting out (self-contained offline mode)",
    )
    target.add_argument(
        "--workers", type=int, default=2, help="workers for --spawn (default 2)"
    )
    target.add_argument(
        "--max-clusters", type=int, default=32, help="cluster-cache bound for --spawn"
    )
    drive = p_load.add_argument_group("drive")
    drive.add_argument("--requests", type=int, default=40, help="mix size (default 40)")
    drive.add_argument(
        "--clients", type=int, default=4, help="closed-loop concurrent connections"
    )
    drive.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed-loop (next request on completion) or open-loop (fixed "
        "arrival schedule)",
    )
    drive.add_argument(
        "--rate", type=float, default=50.0, help="open-loop arrivals per second"
    )
    drive.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="open-loop cap on concurrent dispatches (default 256); latency is "
        "measured from the scheduled arrival, so queueing at this gate is "
        "reported, not hidden",
    )
    drive.add_argument(
        "--timeout", type=float, default=120.0, help="per-exchange timeout seconds"
    )
    drive.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown op after the drive (stops the target server)",
    )
    mixg = p_load.add_argument_group("mix (deterministic in --mix-seed)")
    mixg.add_argument("--mix-seed", type=int, default=0, help="mix seed (default 0)")
    mixg.add_argument(
        "--algorithms",
        type=lambda t: [p.strip() for p in t.split(",") if p.strip()],
        default=["connectivity"],
        metavar="A,B",
        help="algorithm population (default connectivity)",
    )
    mixg.add_argument(
        "--scenarios",
        type=_scenario_list_arg,
        default=[None],
        metavar="S,S",
        help="scenario population; 'none' is benign gnm (default none)",
    )
    mixg.add_argument("--ns", type=_int_list, default=[192, 256], help="graph sizes")
    mixg.add_argument("--ks", type=_int_list, default=[4], help="machine counts")
    mixg.add_argument("--seeds", type=_int_list, default=[0, 1], help="run seeds")
    mixg.add_argument(
        "--epochs", type=int, default=1, help="partition epochs to spread over"
    )
    mixg.add_argument(
        "--hot-fraction",
        type=float,
        default=0.75,
        help="probability a request revisits an issued cluster key (default 0.75)",
    )
    p_load.add_argument(
        "--json", metavar="PATH", help="write the drive accounting JSON ('-' for stdout)"
    )
    p_load.set_defaults(func=_cmd_loadgen)

    p_corpus = sub.add_parser(
        "corpus", help="deterministic input corpus (list/gen/verify/info)"
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    pc_list = corpus_sub.add_parser(
        "list", help="list family specs (or materialized entries with --entries)"
    )
    pc_list.add_argument(
        "--entries", action="store_true", help="list materialized entries instead"
    )
    pc_list.add_argument(
        "--verbose", action="store_true", help="include family summaries and grid sizes"
    )
    pc_list.add_argument("--root", default=None, metavar="DIR", help="corpus directory")
    pc_list.set_defaults(func=_cmd_corpus_list)

    pc_gen = corpus_sub.add_parser(
        "gen", help="materialize corpus entries (default: every family's grid)"
    )
    pc_gen.add_argument(
        "specs",
        nargs="*",
        metavar="SPEC",
        help="family specs like 'gnm n=4096 m=12288 weighted=true' "
        "(exactly the 'corpus list' output format); none = all default grids",
    )
    pc_gen.add_argument(
        "--seeds", type=_int_list, default=None, metavar="S,S", help="seeds (default 0)"
    )
    pc_gen.add_argument(
        "--force", action="store_true", help="regenerate entries that already exist"
    )
    pc_gen.add_argument("--root", default=None, metavar="DIR", help="corpus directory")
    pc_gen.set_defaults(func=_cmd_corpus_gen)

    pc_verify = corpus_sub.add_parser(
        "verify", help="re-digest and regenerate every entry; fail on drift"
    )
    pc_verify.add_argument(
        "--no-regenerate",
        action="store_true",
        help="only re-digest stored arrays (skip the generator-drift gate)",
    )
    pc_verify.add_argument("--root", default=None, metavar="DIR", help="corpus directory")
    pc_verify.set_defaults(func=_cmd_corpus_verify)

    pc_info = corpus_sub.add_parser("info", help="print one entry's manifest JSON")
    pc_info.add_argument("entry", help="entry id, e.g. gnm/d6b1429151d9_0")
    pc_info.add_argument("--root", default=None, metavar="DIR", help="corpus directory")
    pc_info.set_defaults(func=_cmd_corpus_info)

    p_bench = sub.add_parser("bench", help="benchmark subsystem (list/run/compare)")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    pb_list = bench_sub.add_parser("list", help="list registered benchmarks")
    pb_list.set_defaults(func=_cmd_bench_list)

    pb_run = bench_sub.add_parser(
        "run", help="run benchmarks and write BENCH_<name>.json artifacts"
    )
    pb_run.add_argument("names", nargs="*", help="benchmark names (see 'bench list')")
    pb_run.add_argument("--all", action="store_true", help="run every registered benchmark")
    pb_run.add_argument(
        "--quick", action="store_true", help="run the CI-sized quick tier instead of full"
    )
    pb_run.add_argument("--seed", type=int, default=None, help="override the spec's base seed")
    pb_run.add_argument(
        "--out-dir",
        default=".",
        help="directory for BENCH_<name>.json artifacts (default: current directory)",
    )
    pb_run.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    pb_run.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting an existing artifact recorded at a different tier",
    )
    pb_run.add_argument(
        "--profile",
        action="store_true",
        help="cProfile every cell and print its top functions by cumulative "
        "time (diagnostic; artifacts are not written — profiler overhead "
        "would poison the recorded wall times)",
    )
    pb_run.add_argument(
        "--profile-top",
        type=int,
        default=12,
        metavar="N",
        help="rows of the per-cell profile table (default 12)",
    )
    pb_run.add_argument(
        "--profile-out",
        default=None,
        metavar="DIR",
        help="with --profile: also write raw per-cell cProfile dumps to DIR "
        "as <bench>__<cell>.prof (implies --profile)",
    )
    pb_run.set_defaults(func=_cmd_bench_run)

    pb_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH_*.json files (or artifact directories)"
    )
    pb_cmp.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    pb_cmp.add_argument("current", help="current BENCH_*.json file or directory")
    pb_cmp.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="relative tolerance on numeric metrics (default 0.0 = exact match)",
    )
    pb_cmp.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        help="allowed relative wall-time growth per cell, e.g. 0.5 = +50%% "
        "(default: wall time ignored)",
    )
    pb_cmp.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but always exit 0 (advisory mode — used "
        "by CI's wall-time trend artifact, where the metrics gate stays a "
        "separate hard step)",
    )
    pb_cmp.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early; not an error.
        return 0
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
