"""Command-line interface: generate → build → query → serve → evaluate.

A downstream user can drive the whole pipeline without writing Python::

    python -m repro gen --family er --n 128 --weights uniform --seed 1 -o net.edges
    python -m repro stats net.edges
    python -m repro build net.edges --scheme tz --k 3 --mode distributed \
        --seed 2 -o sketches.jsonl
    python -m repro query net.edges sketches.jsonl --pairs 0:100 5:17
    python -m repro eval net.edges sketches.jsonl --eps 0.25
    python -m repro build net.edges --scheme tz --k 3 --format binary \
        --shards 4 -o index.rpix
    python -m repro serve index.rpix --addr 0.0.0.0:7111 --memory mmap
    python -m repro query --connect tcp://serving-box:7111 --pairs 0:100 5:17
    python -m repro serve net.edges --updateable --scheme tz --k 3 --seed 2 \
        --addr 127.0.0.1:7111
    python -m repro build net.edges --scheme tz --k 3 --seed 2 \
        --apply-updates changes.jsonl -o sketches.jsonl
    python -m repro schemes --markdown

Serving speed is measured by the ``bench/`` tree at the repository root
(``python3 bench/run.py --workload NAME``), not by a subcommand.

Sketches travel as the JSON-lines format of
:mod:`repro.oracle.serialization`; graphs as the edge-list format of
:mod:`repro.graphs.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ReproError

#: the ``--scheme`` choices: the keys of
#: :data:`repro.oracle.schemes.SCHEMES`, spelled out so that parsing a
#: command line never imports the registry's builders (a test pins the two)
SCHEME_NAMES = ("cdg", "graceful", "stretch3", "tz")


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _reject_mmap(args, path: str) -> None:
    """``--memory mmap`` is how an RPIX file is opened; any other source
    is parsed into heap arrays, so asking to map it is a usage error."""
    if args.memory == "mmap":
        raise ReproError(
            f"--memory mmap maps a binary index container, and {path} is "
            f"not one (write one with `repro build --format binary`)")


def _cmd_gen(args) -> int:
    from repro.graphs import (assign_exponential_weights,
                              assign_uniform_weights, barabasi_albert,
                              erdos_renyi, grid2d, random_geometric, ring,
                              star_path, write_edgelist)

    family = args.family
    if family == "er":
        g = erdos_renyi(args.n, seed=args.seed)
    elif family == "ba":
        g = barabasi_albert(args.n, seed=args.seed)
    elif family == "geo":
        g = random_geometric(args.n, seed=args.seed)
    elif family == "grid":
        side = max(1, int(round(args.n ** 0.5)))
        g = grid2d(side, max(1, args.n // side))
    elif family == "ring":
        g = ring(args.n)
    elif family == "star_path":
        g = star_path(args.n)
    else:  # pragma: no cover - argparse enforces choices
        raise ReproError(f"unknown family {family}")
    if args.weights == "uniform":
        assign_uniform_weights(g, seed=None if args.seed is None
                               else args.seed + 1)
    elif args.weights == "exponential":
        assign_exponential_weights(g, seed=None if args.seed is None
                                   else args.seed + 1)
    write_edgelist(g, args.output)
    print(f"wrote {g.n} nodes / {g.m} edges to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from repro.graphs import graph_stats, read_edgelist

    st = graph_stats(read_edgelist(args.graph))
    print(json.dumps({
        "n": st.n, "m": st.m, "hop_diameter": st.hop_diameter,
        "shortest_path_diameter": st.shortest_path_diameter,
        "weighted_diameter": st.weighted_diameter,
        "max_weight": st.max_weight,
    }, indent=2))
    return 0


def _scheme_flags(args, names=("k", "eps")) -> dict:
    """The scheme flags given on the command line: a build refuses even
    a None it does not read."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _cmd_build(args) -> int:
    from repro.graphs import read_edgelist
    from repro.oracle.api import build_sketches
    from repro.oracle.serialization import save_index_binary, save_sketch_set

    # flag errors before the (possibly expensive) build, not after
    if args.format != "binary" and args.shards is not None:
        raise ReproError(
            "--shards only applies to --format binary (a JSON-lines "
            "sketch set has no shard layout; `repro serve --shards` "
            "takes it at load time instead)")
    if args.shards is not None and args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")

    g = read_edgelist(args.graph)
    built = build_sketches(g, scheme=args.scheme, mode=args.mode,
                           seed=args.seed,
                           **_scheme_flags(args, ("k", "eps", "sync", "S")))
    print(built.describe())
    if "build" in built.extras:
        from repro.tz.centralized import describe_build

        print(describe_build(built.extras["build"]))
    if built.metrics is not None:
        print(f"cost: {built.metrics.describe()}")
        for ph in built.metrics.phases:
            print(f"  {ph.name}: {ph.rounds} rounds, {ph.messages} messages, "
                  f"{ph.words} words")
    shards = 1 if args.shards is None else args.shards
    sketches, index = built.sketches, None
    if args.apply_updates is not None:
        from repro.service.updates import load_changes_jsonl

        upd = built.updateable(num_shards=shards)
        report = upd.apply(load_changes_jsonl(args.apply_updates))
        print(f"applied {report.changes} changes from "
              f"{args.apply_updates}: mode={report.mode} "
              f"dirty={report.dirty}/{report.n} epoch={report.epoch}")
        sketches, index = upd.sketches, upd.index
    if args.format == "binary":
        if index is None:
            from repro.service import build_index

            index = build_index(sketches, num_shards=shards)
        save_index_binary(index, args.output)
        print(f"wrote a binary {type(index).__name__} "
              f"({index.nnz()} entries, {shards} shards) to {args.output}")
    else:
        save_sketch_set(sketches, args.output)
        print(f"wrote {len(sketches)} sketches to {args.output}")
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise ReproError(f"bad pair {text!r}; expected 'u:v'") from None


def _query_fn(sketches):
    from repro.service.index import checked_pair

    def query(u: int, v: int) -> float:
        u, v = checked_pair(u, v, len(sketches))
        return sketches[u].estimate_to(sketches[v])

    return query


def _cmd_query(args) -> int:
    from repro.graphs import apsp, read_edgelist
    from repro.service.index import checked_pair

    client = None
    if args.connect is not None:
        if args.sketches is not None:
            raise ReproError(
                "--connect queries a live server; drop the sketches "
                "argument (the server owns the index)")
        from repro.service.client import connect

        client = connect(args.connect)
        query = client.dist
    else:
        if args.graph is None or args.sketches is None:
            raise ReproError(
                "query wants GRAPH and SKETCHES files, or --connect SPEC")
        from repro.oracle.serialization import load_sketch_set

        query = _query_fn(load_sketch_set(args.sketches))
    d = None
    if args.exact:
        if args.graph is None:
            raise ReproError("--exact needs the GRAPH argument")
        d = apsp(read_edgelist(args.graph))
    try:
        for text in args.pairs:
            u, v = _parse_pair(text)
            est = query(u, v)
            if d is not None:
                u, v = checked_pair(u, v, len(d))
                print(f"{u}:{v} estimate={est:g} exact={d[u, v]:g} "
                      f"stretch={est / d[u, v] if d[u, v] else 1.0:.3f}")
            else:
                print(f"{u}:{v} estimate={est:g}")
    finally:
        if client is not None:
            client.close()
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import OracleServer

    if not args.updateable and args.rebuild_threshold is not None:
        raise ReproError("--rebuild-threshold tunes the live update "
                         "path; it needs --updateable")
    if args.updateable:
        from repro.graphs import read_edgelist
        from repro.service.updates import UpdateableIndex

        _reject_mmap(args, args.source)
        source = UpdateableIndex(read_edgelist(args.source),
                                 scheme=args.scheme, seed=args.seed,
                                 num_shards=(args.shards or 1),
                                 rebuild_threshold=args.rebuild_threshold,
                                 **_scheme_flags(args))
        shards = None  # baked into the updateable's stores
    else:
        from repro.oracle.serialization import (is_binary_index,
                                                load_index_binary,
                                                load_sketch_set)

        if is_binary_index(args.source):
            source = load_index_binary(args.source, backing=args.memory)
            shards = args.shards  # validated against the baked layout
        else:
            _reject_mmap(args, args.source)
            source = load_sketch_set(args.source)
            shards = args.shards
    addr = args.addr
    if args.port is not None:
        addr = f"{addr.rsplit(':', 1)[0]}:{args.port}"
    server = OracleServer(source, num_shards=shards,
                          cache_size=args.cache_size)
    host, port = server.serve(addr, block=False,
                              handlers=args.handlers)
    print(f"serving {server.scheme or '?'} n={server.n} "
          f"shards={server.num_shards} "
          f"memory={args.memory} epoch={server.epoch} "
          f"updateable={'yes' if server.updateable else 'no'} "
          f"on tcp://{host}:{port}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        server.close()
    return 0


def _cmd_scenario(args) -> int:
    from repro.graphs import read_edgelist
    from repro.service.scenario import (Trace, generate_trace,
                                        run_named_scenario,
                                        served_subprocess)

    if (args.trace is None) == (args.load_trace is None):
        raise ReproError("pick exactly one trace source: --trace NAME "
                         "to generate, or --load-trace FILE to replay")
    graph = read_edgelist(args.graph)
    if args.load_trace is not None:
        trace = Trace.load_jsonl(args.load_trace)
    else:
        trace = generate_trace(
            args.trace, graph,
            seed=args.seed if args.trace_seed is None else args.trace_seed,
            rounds=args.rounds)
    if args.save_trace is not None:
        trace.save_jsonl(args.save_trace)

    def _replay(endpoint: str):
        return run_named_scenario(
            trace.name, graph, scheme=args.scheme, seed=args.seed,
            endpoint=endpoint, num_shards=args.shards,
            query_threads=args.threads, oracle=not args.no_oracle,
            trace=trace, **_scheme_flags(args))

    if args.spawn:
        with served_subprocess(args.graph, scheme=args.scheme,
                               seed=args.seed or 0, shards=args.shards,
                               k=args.k, eps=args.eps) as addr:
            result = _replay(addr)
    else:
        result = _replay(args.connect)
    print(json.dumps(result.summary(), indent=2, sort_keys=True))
    if not result.ok:
        print(f"error: oracle found {len(result.violations)} "
              f"violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_schemes(args) -> int:
    from repro.oracle.schemes import scheme_support_matrix, schemes_markdown

    if args.markdown:
        print(schemes_markdown())
    else:
        print(json.dumps(scheme_support_matrix(), indent=2))
    return 0


def _cmd_eval(args) -> int:
    from repro.graphs import apsp, read_edgelist
    from repro.oracle.evaluation import evaluate_stretch
    from repro.oracle.serialization import load_sketch_set

    g = read_edgelist(args.graph)
    sketches = load_sketch_set(args.sketches)
    if len(sketches) != g.n:
        raise ReproError(f"{len(sketches)} sketches for a {g.n}-node graph")
    rep = evaluate_stretch(apsp(g), _query_fn(sketches), eps=args.eps,
                           max_pairs=args.max_pairs, seed=args.seed)
    print(json.dumps({
        "pairs": rep.pairs,
        "max_stretch": rep.max_stretch,
        "mean_stretch": rep.mean_stretch,
        "p95_stretch": rep.p95_stretch,
        "exact_fraction": rep.exact_fraction,
        "underestimates": rep.underestimates,
    }, indent=2))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Distributed distance sketches (Das Sarma-Dinitz-"
                    "Pandurangan, SPAA 2012) — build, query, evaluate.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a workload graph")
    g.add_argument("--family", choices=["er", "ba", "geo", "grid", "ring",
                                        "star_path"], default="er")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--weights", choices=["unit", "uniform", "exponential"],
                   default="unit")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("stats", help="D, S, and size of a graph")
    s.add_argument("graph")
    s.set_defaults(func=_cmd_stats)

    b = sub.add_parser("build", help="build sketches for every node")
    b.add_argument("graph")
    b.add_argument("--scheme", choices=SCHEME_NAMES, default="tz")
    b.add_argument("--mode", choices=["centralized", "distributed"],
                   default="centralized")
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--eps", type=float, default=None)
    b.add_argument("--sync", choices=["oracle", "known_smax", "echo"],
                   default=None)
    b.add_argument("--S", type=int, default=None)
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--format", choices=["json", "binary"], default="json",
                   help="json = per-node sketches as JSON lines; binary = "
                        "a pre-built index as the mmap-loadable container "
                        "(serve detects either)")
    b.add_argument("--shards", type=int, default=None,
                   help="landmark shard count baked into a --format binary "
                        "index (layout only; answers are identical; "
                        "rejected with --format json)")
    b.add_argument("--apply-updates", metavar="CHANGES.JSONL", default=None,
                   help="after building, apply this edge-change stream "
                        "(see repro.service.updates) through the "
                        "incremental-repair path and write the updated "
                        "sketches/index instead (centralized builds of "
                        "updateable schemes only)")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="estimate distances from sketches "
                                     "or a live server")
    q.add_argument("graph", nargs="?", default=None)
    q.add_argument("sketches", nargs="?", default=None)
    q.add_argument("--connect", metavar="SPEC", default=None,
                   help="query a live server (tcp://host:port) instead "
                        "of local sketch files")
    q.add_argument("--pairs", nargs="+", required=True, metavar="u:v")
    q.add_argument("--exact", action="store_true",
                   help="also compute exact distances for comparison "
                        "(needs the GRAPH argument)")
    q.set_defaults(func=_cmd_query)

    sv = sub.add_parser("serve",
                        help="host an oracle over TCP (the frame-protocol "
                             "daemon repro.service.client sessions "
                             "connect to)")
    sv.add_argument("source",
                    help="what to serve: a sketch set (.jsonl), a binary "
                         "index (.rpix), or — with --updateable — a "
                         "graph edge list to build a live index from")
    sv.add_argument("--addr", default="127.0.0.1:0", metavar="HOST:PORT",
                    help="listen address (port 0 picks a free one; the "
                         "bound tcp://host:port is printed on stdout "
                         "before serving)")
    sv.add_argument("--port", type=int, default=None,
                    help="override the port of --addr (--port 0 picks a "
                         "free one and prints it)")
    sv.add_argument("--memory", choices=["heap", "mmap"], default="heap",
                    help="how a binary index (.rpix) source is opened: "
                         "heap = read into arrays; mmap = memory-mapped, "
                         "zero parse (any other source is an error)")
    sv.add_argument("--shards", type=int, default=None,
                    help="landmark shard count when building from "
                         "sketches or a graph (default 1; layout only, "
                         "answers are identical; a binary index bakes "
                         "its own in)")
    sv.add_argument("--cache-size", type=int, default=65536,
                    help="result-cache slots, one answer and 24 bytes "
                         "each, direct-mapped (0 disables)")
    sv.add_argument("--handlers", type=int, default=2,
                    help="request-handler threads multiplexing the "
                         "connections (default 2)")
    sv.add_argument("--updateable", action="store_true",
                    help="treat SOURCE as a graph edge list and serve a "
                         "live UpdateableIndex — clients can push edge "
                         "changes (apply_updates) and every connected "
                         "session hot-swaps epochs without reconnecting")
    sv.add_argument("--scheme", choices=SCHEME_NAMES, default="tz",
                    help="scheme for --updateable builds")
    sv.add_argument("--k", type=int, default=None)
    sv.add_argument("--eps", type=float, default=None)
    sv.add_argument("--seed", type=int, default=None)
    sv.add_argument("--rebuild-threshold", type=float, default=None,
                    help="dirty fraction above which the live index "
                         "(--updateable only) rebuilds instead of "
                         "repairing (default 0.25)")
    sv.set_defaults(func=_cmd_serve)

    sn = sub.add_parser("scenario",
                        help="replay a churn+query scenario trace against "
                             "a live endpoint with the correctness oracle "
                             "armed")
    sn.add_argument("graph",
                    help="edge list the trace, the served index, and the "
                         "oracle twin are built from")
    sn.add_argument("--trace", default=None, metavar="NAME",
                    help="named scenario to generate (flash-crowd, "
                         "rolling-churn, weight-flap, disconnect-heal, "
                         "steady-mix)")
    sn.add_argument("--load-trace", default=None, metavar="TRACE.JSONL",
                    help="replay a saved trace instead of generating one")
    sn.add_argument("--save-trace", default=None, metavar="TRACE.JSONL",
                    help="persist the replayed trace (exact JSONL "
                         "round-trip; replays are reproducible)")
    sn.add_argument("--rounds", type=int, default=None,
                    help="trace length (default: the scenario's own)")
    sn.add_argument("--trace-seed", type=int, default=None,
                    help="trace-generator seed (default: --seed)")
    sn.add_argument("--connect", metavar="SPEC", default="inproc://",
                    help="endpoint to drive: inproc:// (default), "
                         "tcp://host:port (a live repro serve "
                         "--updateable daemon built from GRAPH with the "
                         "same scheme/seed), or bare tcp:// to serve a "
                         "loopback listener in-process")
    sn.add_argument("--spawn", action="store_true",
                    help="spawn a `python -m repro serve GRAPH "
                         "--updateable` subprocess on a free port and run "
                         "against it (overrides --connect)")
    sn.add_argument("--scheme", choices=SCHEME_NAMES, default="tz")
    sn.add_argument("--k", type=int, default=None)
    sn.add_argument("--eps", type=float, default=None)
    sn.add_argument("--seed", type=int, default=0)
    sn.add_argument("--shards", type=int, default=1)
    sn.add_argument("--threads", type=int, default=2,
                    help="reader sessions the query events fan out across")
    sn.add_argument("--no-oracle", action="store_true",
                    help="skip the post-hoc correctness verification "
                         "(measurement-only replay)")
    sn.set_defaults(func=_cmd_scenario)

    sc = sub.add_parser("schemes",
                        help="the scheme capability matrix (from the "
                             "SCHEMES registry)")
    sc.add_argument("--markdown", action="store_true",
                    help="print a GitHub-flavored markdown table instead "
                         "of JSON")
    sc.set_defaults(func=_cmd_schemes)

    e = sub.add_parser("eval", help="stretch report against exact APSP")
    e.add_argument("graph")
    e.add_argument("sketches")
    e.add_argument("--eps", type=float, default=None,
                   help="restrict to eps-far pairs (slack semantics)")
    e.add_argument("--max-pairs", type=int, default=None)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_eval)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
