"""Command-line front end: solve, bench, certify, gen.

Exit codes: 0 success, 2 validation, 3 I/O, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from . import bcm, certify, escape, manifold, problem
from .errors import NumericalError, ParseError, ValidationError, check_count


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(__file__))   # bmcut's, not the caller's
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def parse_gen_spec(spec: str) -> problem.ProblemInstance:
    """Build an instance from "gaussian:n=500,seed=1" or
    "er:n=100,edges=300,sign=-1,seed=2"; any other key is refused."""
    try:
        kind, _, rest = spec.partition(":")
        kv = {}
        if rest:
            for item in rest.split(","):
                key, _, val = map(str.strip, item.partition("="))
                if key in kv:
                    raise ValidationError(f"--gen names {key!r} twice")
                kv[key] = val
        if kind == "gaussian":
            make, vals = problem.gen_gaussian, (kv.pop("n"), kv.pop("seed", 0))
        elif kind == "er":
            make, vals = problem.gen_erdos_renyi, (
                kv.pop("n"), kv.pop("edges"), kv.pop("sign", -1),
                kv.pop("seed", 0))
        else:
            raise ValidationError(f"unknown generator {kind!r}")
        if kv:
            raise ValidationError(f"{kind} takes no key {min(kv)!r}")
        return make(*map(int, vals))
    except KeyError as exc:   # from a required key's pop
        raise ValidationError(
            f"bad generator spec {spec!r}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None


def _load_from_args(args) -> problem.ProblemInstance:
    sources = [s for s in (args.gen, args.edge_list, args.mtx) if s]
    if len(sources) != 1:
        raise ValidationError("give exactly one of --gen, --edge-list, --mtx")
    if args.gen:
        return parse_gen_spec(args.gen)
    if args.edge_list:
        return problem.load_instance(args.edge_list, "edge-list")
    return problem.load_instance(args.mtx, "matrix-market")


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("--gen", help="generator spec, e.g. gaussian:n=500,seed=1 "
                                 "or er:n=100,edges=300,sign=-1,seed=2")
    p.add_argument("--edge-list", help="edge-list file ('i j w', 1-based)")
    p.add_argument("--mtx", help="Matrix Market file")


def _rank(args, instance: problem.ProblemInstance) -> int:
    """--r, by default ceil(sqrt(2n)); bcm.start_point checks it."""
    if args.r is not None:
        return args.r
    return max(2, math.ceil(math.sqrt(2 * instance.n)))


def cmd_solve(args) -> int:
    instance = _load_from_args(args)
    r = _rank(args, instance)
    solver = bcm.SolverConfig(rule=args.rule, max_epochs=args.max_epochs,
                              grad_tol=args.grad_tol, seed=args.seed)
    t0 = time.perf_counter()
    if args.method == "bcm":
        point, trace = bcm.run(instance, solver, r=r)
    else:
        esc = escape.EscapeConfig(epsilon=args.epsilon, delta=args.delta,
                                  seed=args.seed)
        point, trace = escape.run_bcm2(instance, solver, esc, r=r)
    wall = time.perf_counter() - t0
    trace.header["git"] = _git_describe()
    trace.header["argv_config"] = _config_echo(args)
    if args.trace:
        trace.write(args.trace, include_timing=args.timings)
    if args.point_out:
        manifold.save_point(point, args.point_out)
    final = trace.final()
    print(f"method={args.method} status={trace.status} epochs={final.epoch}")
    print(f"f_raw={final.f_raw!r} f_total={final.f_total!r}")
    print(f"grad_metric_sq={final.grad_metric_sq!r}")
    print(f"wall_time={wall:.3f}s")
    return 0


def _config_echo(args) -> dict:
    # output destinations do not affect the solve and would break
    # byte-identical reruns that only differ in where they write
    skip = {"func", "trace", "point_out", "timings", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_bench(args) -> int:
    rules = [x for x in (args.rules or "").split(",") if x]
    if not rules:
        raise ValidationError("bench needs at least one rule via --rules")
    for k, rule in enumerate(rules):
        if rule in rules[:k]:
            raise ValidationError(f"--rules names {rule!r} twice")
    configs = [bcm.SolverConfig(rule=rule, max_epochs=args.epochs,
                                grad_tol=0.0, seed=args.seed) for rule in rules]
    instance = _load_from_args(args)
    r = _rank(args, instance)
    rng = np.random.default_rng(args.seed)
    shared = manifold.random_point(instance.n, r, rng)
    init_checksum = hashlib.sha256(shared.sigma.tobytes()).hexdigest()

    traces = {cfg.rule: bcm.run(instance, cfg, initial=shared)[1]
              for cfg in configs}

    lines = [f"# schema=bench_v1 git={_git_describe()}",
             f"# instance_checksum={instance.checksum()}",
             f"# init_checksum={init_checksum}",
             f"# n={instance.n} r={r} seed={args.seed} epochs={args.epochs}"]
    cols = ["epoch"]
    for rule in rules:
        cols += [f"f_{rule}", f"grad_{rule}"]
    lines.append(",".join(cols))
    depth = max(len(t.records) for t in traces.values())
    for k in range(depth):
        row = [str(k)]
        for rule in rules:
            recs = traces[rule].records
            rec = recs[min(k, len(recs) - 1)]  # converged runs hold their value
            row += [repr(rec.f_raw), repr(rec.grad_metric_sq)]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_certify(args) -> int:
    check_count("seed", args.seed, 0)
    check_count("trials", args.trials, 0)
    instance = _load_from_args(args)
    epsilon = certify.report_epsilon(instance.n, args.epsilon)   # at every rank
    point = manifold.load_point(args.point)
    cert = certify.dual_upper_bound(instance, point,
                                    bcm.init_cache(instance, point))
    print(json.dumps(cert.as_dict(), sort_keys=True))
    if point.r >= 2:   # approx_report refuses r = 1
        print(json.dumps(certify.approx_report(instance, point, cert, epsilon),
                         sort_keys=True))
    if args.trials:
        rng = np.random.default_rng(args.seed)
        cut = certify.round_cut(instance, point, args.trials, rng)
        out = cut.as_dict() | {"value_total": cut.value + instance.trace_offset}
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_gen(args) -> int:
    instance = parse_gen_spec(args.gen)
    if args.out.endswith((".mtx", ".mm")):
        problem.write_matrix_market(instance, args.out)
    else:
        problem.write_edge_list(instance, args.out)
    print(f"wrote {args.out}: n={instance.n} nnz={instance.nnz} "
          f"one_norm={instance.one_norm!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bmcut",
        description="Low-rank coordinate-ascent solver for diagonally "
                    "constrained SDPs, with certificates and rounding")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the solver on one instance")
    _add_instance_args(sp)
    sp.add_argument("--method", choices=("bcm", "bcm2"), default="bcm")
    sp.add_argument("--rule", choices=bcm.RULES, default=bcm.SolverConfig.rule,
                    help="coordinate rule (bcm2 always uses greedy internally)")
    sp.add_argument("--r", type=int, default=None,
                    help="factor rank; default ceil(sqrt(2n))")
    sp.add_argument("--seed", type=int, default=bcm.SolverConfig.seed)
    sp.add_argument("--max-epochs", type=int, default=bcm.SolverConfig.max_epochs)
    sp.add_argument("--grad-tol", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None,
                    help="accuracy target for bcm2; default auto from the "
                         "dual bound")
    sp.add_argument("--delta", type=float, default=escape.EscapeConfig.delta)
    sp.add_argument("--trace", help="trace output (.jsonl or .csv)")
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock in traces (breaks byte-level "
                         "reproducibility)")
    sp.add_argument("--point-out", help="final point output (.bin or .csv)")
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("bench", help="compare coordinate rules from a shared start")
    _add_instance_args(bp)
    bp.add_argument("--rules", help="comma-separated rules to compare")
    bp.add_argument("--r", type=int, default=None)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--epochs", type=int, default=100)
    bp.add_argument("--out", help="wide CSV output path (default stdout)")
    bp.set_defaults(func=cmd_bench)

    cp = sub.add_parser("certify", help="certificate and report for a saved point")
    _add_instance_args(cp)
    cp.add_argument("--point", required=True, help="point file (.bin or .csv)")
    cp.add_argument("--epsilon", type=float, default=0.0)
    cp.add_argument("--trials", type=int, default=0,
                    help="hyperplane rounding trials")
    cp.add_argument("--seed", type=int, default=0)
    cp.set_defaults(func=cmd_certify)

    gp = sub.add_parser("gen", help="generate an instance file")
    gp.add_argument("--gen", required=True)
    gp.add_argument("--out", required=True,
                    help="Matrix Market for .mtx or .mm, else an edge list")
    gp.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
