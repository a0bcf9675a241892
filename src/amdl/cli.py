"""Command-line front end: gen, measure, run, sweep, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from numbers import Real

from .complexity import (DEFAULT_VC_CAP, disagreement_coefficient, star_number,
                         star_number_unqualified, vc_dimension)
from .core import ContractViolation, best_nu, check_int, load_instance, save_instance
from .families import FAMILIES, PARAM_TYPES, FamilySpec
from .harness import (ALGORITHMS, PROFILES, RunConfig, records_to_csv, report,
                      run_trials, sweep, sweep_from_csv, sweep_to_csv)


def _parse_knobs(pairs: list[str]) -> dict:
    out = {}
    for p in pairs or []:
        key, eq, val = p.partition("=")
        try:
            if not eq:
                raise ValueError
            out[key] = float(val)
        except ValueError:
            raise ContractViolation(f"--knob expects key=number, got {p!r}") from None
    return out


def _write(text: str, out: str | None) -> None:
    """`text` to the file `out`, or to standard output without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(*paths: str | None) -> None:
    """Refuse, untouched and before any work, a directory or a path whose "dir/." is unwritable."""
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.access(os.path.join(os.path.dirname(path), "."), os.W_OK):
            raise ContractViolation(f"cannot open {path}: a directory, or not in a writable one")


def _cmd_gen(args) -> int:
    params = {name: getattr(args, name) for name in PARAM_TYPES
              if getattr(args, name) is not None}
    inst = FamilySpec(args.family, params).generate()
    save_instance(inst, args.out)
    print(f"wrote {args.out} (family={args.family}, m={inst.m}, k={inst.k}, "
          f"|H|={len(inst.hypothesis_class)})")
    return 0


def _cmd_measure(args) -> int:
    _check_out(args.out)
    inst = load_instance(args.instance)
    cls = inst.hypothesis_class
    h_best, nu = best_nu(inst)
    ref_idx = (cls.index_of(h_best) if args.hstar is None
               else check_int("--hstar (an index into the class)", args.hstar, 0, len(cls)))
    ref = cls[ref_idx]
    vc = vc_dimension(cls, cap=args.cap)
    st = star_number(cls, ref)
    st_any = star_number_unqualified(cls)
    lines = [
        f"m={inst.m}", f"k={inst.k}", f"class_size={len(cls)}",
        f"nu={nu!r}",
        f"vc_dimension={vc.value}", f"vc_lower_bound_only={int(vc.lower_bound_only)}",
        f"star_reference_index={ref_idx}",
        f"star_number={st.value}", f"star_lower_bound_only={int(st.lower_bound_only)}",
        # the unqualified value is reported as the max over in-class references
        f"star_number_unqualified={st_any.value}",
        f"star_unqualified_lower_bound_only={int(st_any.lower_bound_only)}",
    ]
    thetas = [disagreement_coefficient(d, cls, ref, args.r0) for d in inst.distributions]
    lines.extend(f"theta_{i}={theta!r}" for i, theta in enumerate(thetas))
    lines.append(f"theta_max={max(thetas)!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    if args.trace and not args.out:
        raise ContractViolation("--trace writes the transcript to <out>.transcript; give --out")
    transcript = f"{args.out}.transcript" if args.trace else None
    _check_out(transcript, args.out)
    cfg = RunConfig(alg=args.alg, eps=args.eps, delta=args.delta,
                    trials=args.trials, base_seed=args.seed,
                    profile=args.profile, knobs=_parse_knobs(args.knob),
                    instance=load_instance(args.instance), transcript_path=transcript,
                    workers=args.workers)
    p = cfg.plan()
    for warning in dict.fromkeys(p.warnings):
        sys.stderr.write(f"warning: {warning}\n")
    _write(records_to_csv(run_trials(cfg, p), timing=args.timing), args.out)
    return 0


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ContractViolation(f"sweep config {args.config} is not valid JSON: {exc}") from exc
    _write(sweep_to_csv(sweep(config)), args.out)
    return 0


def _cmd_report(args) -> int:
    with open(args.sweep) as fh:
        rows = sweep_from_csv(fh.read())
    outputs = report(rows)
    os.makedirs(args.outdir, exist_ok=True)
    for name, text in outputs.items():
        with open(os.path.join(args.outdir, name), "w") as fh:
            fh.write(text)
    print(f"wrote {', '.join(sorted(outputs))} to {args.outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="amdl",
                                 description="active multi-distribution learning lab")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance file")
    g.add_argument("--family", required=True, choices=FAMILIES)
    for name, kind in PARAM_TYPES.items():     # a flag per generator parameter
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            g.add_argument(flag, action="store_true", default=None)
        else:
            g.add_argument(flag, type=float if kind is Real else kind)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    m = sub.add_parser("measure", help="exact complexity measures of an instance")
    m.add_argument("--instance", required=True)
    m.add_argument("--hstar", type=int, default=None,
                   help="reference hypothesis index (default: the minimax optimum)")
    m.add_argument("--r0", type=float, default=0.05)
    m.add_argument("--cap", type=int, default=DEFAULT_VC_CAP)
    m.add_argument("--out")
    m.set_defaults(fn=_cmd_measure)

    r = sub.add_parser("run", help="metered trials of one algorithm on one instance")
    r.add_argument("--instance", required=True)
    r.add_argument("--alg", required=True, choices=ALGORITHMS)
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--delta", type=float, default=0.1)
    r.add_argument("--trials", type=int, default=1)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--profile", default="desk", choices=sorted(PROFILES))
    r.add_argument("--knob", action="append", metavar="KEY=VALUE")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--timing", action="store_true",
                   help="emit measured wall_ms (breaks byte determinism)")
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_run)

    s = sub.add_parser("sweep", help="grid of runs from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="pivot a sweep CSV into plot-data series")
    p.add_argument("--sweep", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:      # a file named on the command line: refuse it by name
        if exc.filename is None:
            raise
        raise ContractViolation(f"cannot open {exc.filename}: {exc.strerror}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
