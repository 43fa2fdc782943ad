"""Command-line interface: generate → build → query → serve → evaluate.

A downstream user can drive the whole pipeline without writing Python::

    python -m repro gen --family er --n 128 --weights uniform --seed 1 -o net.edges
    python -m repro stats net.edges
    python -m repro build net.edges --scheme tz --k 3 --mode distributed \
        --seed 2 -o idx.rpix
    python -m repro query net.edges idx.rpix --pairs 0:100 5:17
    python -m repro eval net.edges idx.rpix --eps 0.25
    python -m repro serve idx.rpix --addr 0.0.0.0:7111 --memory mmap
    python -m repro query --connect tcp://serving-box:7111 --pairs 0:100 5:17
    python -m repro serve net.edges --updateable --scheme tz --k 3 --seed 2 \
        --addr 127.0.0.1:7111
    python -m repro build net.edges --scheme tz --k 3 --seed 2 \
        --apply-updates changes.jsonl -o idx.rpix
    python -m repro schemes --markdown

Serving speed is measured by the ``bench/`` tree at the repository root
(``python3 bench/run.py --workload NAME``), not by a subcommand.

Sketches travel as the RPIX store container of
:mod:`repro.oracle.serialization` (``query``, ``eval`` and ``serve``
answer through the store it holds, one landmark shard); graphs as the
edge-list format of :mod:`repro.graphs.io`.  A file that cannot be
read or written is a usage error: one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
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


def _writable_folder(path: str) -> None:
    """Raise the error writing ``path`` would raise later when its
    folder is missing or read-only — before any work is spent."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _cmd_build(args) -> int:
    from repro.graphs import read_edgelist
    from repro.oracle.api import build_sketches
    from repro.oracle.serialization import save_index_binary

    _writable_folder(args.output)
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
    if args.apply_updates is not None:
        from repro.service.updates import load_changes_jsonl

        upd = built.updateable()
        report = upd.apply(load_changes_jsonl(args.apply_updates))
        print(f"applied {report.changes} changes from "
              f"{args.apply_updates}: mode={report.mode} "
              f"dirty={report.dirty}/{report.n} epoch={report.epoch}")
        index = upd.index
    else:
        from repro.service import build_index

        index = build_index(built.sketches)
    save_index_binary(index, args.output)
    print(f"wrote a binary {type(index).__name__} "
          f"({index.nnz()} entries, {index.num_shards} shards) to "
          f"{args.output}")
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise ReproError(f"bad pair {text!r}; expected 'u:v'") from None


def _cmd_query(args) -> int:
    from repro.service.index import checked_pair

    client = None
    if args.connect is not None:
        if args.index is not None:
            raise ReproError(
                "--connect queries a live server; drop the INDEX "
                "argument (the server owns the index)")
        from repro.service.client import connect

        client = connect(args.connect)
        query = client.dist
    else:
        if args.graph is None or args.index is None:
            raise ReproError(
                "query wants GRAPH and INDEX files, or --connect SPEC")
        from repro.oracle.serialization import load_index_binary

        query = load_index_binary(args.index).estimate
    exact = None
    try:
        if args.exact:
            if args.graph is None:
                raise ReproError("--exact needs the GRAPH argument")
            # the graph side loads scipy: only a query that asks for it
            from repro.graphs import read_edgelist
            from repro.graphs.metrics import distance_rows

            g = read_edgelist(args.graph)
            sources = sorted({checked_pair(*_parse_pair(text), g.n)[0]
                              for text in args.pairs})
            exact = dict(zip(sources, distance_rows(g, sources)))
        for text in args.pairs:
            u, v = _parse_pair(text)
            est = query(u, v)
            if exact is not None:
                d = exact[u][v]
                print(f"{u}:{v} estimate={est:g} exact={d:g} "
                      f"stretch={est / d if d else 1.0:.3f}")
            else:
                print(f"{u}:{v} estimate={est:g}")
    finally:
        if client is not None:
            client.close()
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import OracleServer

    if args.updateable:
        from repro.graphs import read_edgelist
        from repro.service.updates import UpdateableIndex

        if args.memory == "mmap":
            raise ReproError(
                f"--memory mmap maps a binary index container, and "
                f"{args.source} is a graph (write a container with "
                f"repro build)")
        source = UpdateableIndex(read_edgelist(args.source),
                                 scheme=args.scheme, seed=args.seed,
                                 **_scheme_flags(args))
    else:
        from repro.oracle.serialization import load_index_binary

        source = load_index_binary(args.source, backing=args.memory)
    addr = args.addr
    if args.port is not None:
        addr = f"{addr.rsplit(':', 1)[0]}:{args.port}"
    server = OracleServer(source, cache_size=args.cache_size)
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
    from repro.oracle.serialization import load_index_binary

    g = read_edgelist(args.graph)
    store = load_index_binary(args.index)
    if store.n != g.n:
        raise ReproError(f"{store.n} sketches for a {g.n}-node graph")
    rep = evaluate_stretch(apsp(g), store.estimate, eps=args.eps,
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

    b = sub.add_parser("build", help="build every node's sketch and write "
                                     "them as an RPIX index")
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
    b.add_argument("--apply-updates", metavar="CHANGES.JSONL", default=None,
                   help="after building, apply this edge-change stream "
                        "(see repro.service.updates) — stretch3 repairs, "
                        "the other schemes rebuild — and write the "
                        "updated index instead (centralized builds "
                        "only)")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="estimate distances from an RPIX "
                                     "index or a live server")
    q.add_argument("graph", nargs="?", default=None)
    q.add_argument("index", nargs="?", default=None,
                   help="an RPIX index written by repro build")
    q.add_argument("--connect", metavar="SPEC", default=None,
                   help="query a live server (tcp://host:port) instead "
                        "of a local index file")
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
                    help="what to serve: an RPIX index written by repro "
                         "build, or — with --updateable — a graph edge "
                         "list to build a live index from")
    sv.add_argument("--addr", default="127.0.0.1:0", metavar="HOST:PORT",
                    help="listen address (port 0 picks a free one; the "
                         "bound tcp://host:port is printed on stdout "
                         "before serving)")
    sv.add_argument("--port", type=int, default=None,
                    help="override the port of --addr (--port 0 picks a "
                         "free one and prints it)")
    sv.add_argument("--memory", choices=["heap", "mmap"], default="heap",
                    help="how the RPIX source is opened: heap = read "
                         "into arrays; mmap = memory-mapped, zero parse "
                         "(an error with --updateable)")
    sv.add_argument("--cache-size", type=int, default=None,
                    help="result-cache slots, one answer and 24 bytes "
                         "each, direct-mapped (0 disables; default: the "
                         "store's own, 0 for tz and cdg, 65536 for "
                         "stretch3 and graceful)")
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
    sv.set_defaults(func=_cmd_serve)

    sc = sub.add_parser("schemes",
                        help="the scheme capability matrix (from the "
                             "SCHEMES registry)")
    sc.add_argument("--markdown", action="store_true",
                    help="print a GitHub-flavored markdown table instead "
                         "of JSON")
    sc.set_defaults(func=_cmd_schemes)

    e = sub.add_parser("eval", help="stretch report against exact APSP")
    e.add_argument("graph")
    e.add_argument("index", help="an RPIX index written by repro build")
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
    except OSError as exc:
        # a missing GRAPH / INDEX / changes file, an unwritable -o
        text = (exc if exc.filename is None
                else f"{exc.filename}: {exc.strerror}")
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
