#!/usr/bin/env python3
"""Self-test of the output checks: real outputs pass, perturbed outputs fail.

    python3 perfbench/selftest.py

Runs one request of every checked kind through ``fhpt.cli.main`` in this
process, confirms ``oracle.check`` accepts it, then alters the output in
small ways (one value by a relative 1e-8 or less, a dropped row, a wrong
echo, a flipped pass flag) and confirms each alteration is rejected.  Exits 1
if any real output is rejected or any perturbed output is accepted.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def _json_edit(fn):
    def apply(out: str) -> str:
        d = json.loads(out)
        fn(d)
        return json.dumps(d)
    return apply


def _row_edit(row: int, col: int, factor: float):
    def fn(d):
        d["rows"][row][col] *= factor
    return _json_edit(fn)


def _peak_row(out: str, col: int) -> int:
    rows = json.loads(out)["rows"]
    return max(range(len(rows)), key=lambda i: abs(rows[i][col]))


def _set(path, value):
    def fn(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return _json_edit(fn)


def _drop_last_row(d):
    d["rows"].pop()


def _csv_bump_first_row(out: str) -> str:
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    n, value = lines[header + 1].split(",")
    lines[header + 1] = f"{n},{float(value) * (1.0 + 1e-9)!r}"
    return "\n".join(lines) + "\n"


def _verify_edit(fn):
    return _json_edit(lambda d: fn(d["checks"]))


def cases():
    """(argv, known_fault, [(label, output transform, exit-code override or None)])."""
    fault_argv = ["verify", "--format", "json", "--A", repr(workloads.a_from_nu(workloads.fault_nu(0)))]
    spec = ["spectrum", "--A", "2.7", "--nmax", "40", "--format", "json"]
    wave = ["wavefunction", "--A", "3.3", "--n", "100", "--samples", "400", "--interval", "half", "--format", "json"]
    coh = ["coherent", "--A", "1.7", "--z", "300.0@2.5", "--format", "json"]
    exp = ["expect", "--A", "4.2", "--z", "350.0@-1.0", "--format", "json"]
    ver = ["verify", "--format", "json", "--A", "3.0"]
    return [
        (["spectrum", "--A", "2.7", "--nmax", "12"], False, [
            ("csv momentum +1e-9", _csv_bump_first_row, None),
        ]),
        (spec, False, [
            ("momentum x(1+1e-13 x 5)", _row_edit(40, 1, 1.0 + 5e-13), None),
            ("dropped last level", _json_edit(_drop_last_row), None),
            ("a_prime off", _json_edit(lambda d: d["summary"].update(a_prime=d["summary"]["a_prime"] + 1e-9)), None),
            ("A echo", _json_edit(lambda d: d["config"].update(A=2.70001)), None),
        ]),
        (wave, False, [
            ("peak psi x(1+1e-10)", lambda o: _row_edit(_peak_row(o, 1), 1, 1.0 + 1e-10)(o), None),
            ("sign flipped", _json_edit(lambda d: [r.__setitem__(1, -r[1]) for r in d["rows"]]), None),
            ("dropped sample", _json_edit(_drop_last_row), None),
            ("tau shifted", _json_edit(lambda d: d["rows"][7].__setitem__(0, d["rows"][7][0] + 1e-9)), None),
        ]),
        (coh, False, [
            ("peak weight x(1+1e-9)", lambda o: _row_edit(_peak_row(o, 1), 1, 1.0 + 1e-9)(o), None),
            ("phase +1e-6", lambda o: _json_edit(
                lambda d: d["rows"][_peak_row(o, 1)].__setitem__(2, d["rows"][_peak_row(o, 1)][2] + 1e-6))(o), None),
            ("truncated early", _json_edit(lambda d: [d["rows"].pop() for _ in range(300)]), None),
            ("mean_level off", _json_edit(lambda d: d["summary"].update(mean_level=d["summary"]["mean_level"] * (1 + 1e-9))), None),
        ]),
        (exp, False, [
            ("level_mean x(1+1e-10)", _row_edit(0, 1, 1.0 + 1e-10), None),
            ("level_variance x(1+1e-7)", _row_edit(1, 1, 1.0 + 1e-7), None),
            ("raising mean not conjugated", _row_edit(5, 1, -1.0), None),
            ("momentum_mean x(1+1e-7)", _row_edit(3, 1, 1.0 + 1e-7), None),
            ("weight_sum off", _json_edit(lambda d: d["rows"][6].__setitem__(1, d["rows"][6][1] + 1e-11)), None),
        ]),
        (ver, False, [
            ("one check failing", _verify_edit(lambda c: c[5].update({"pass": False, "residual": 1.0})), None),
            ("check missing", _verify_edit(lambda c: c.pop(9)), None),
            ("pass flag disagrees", _verify_edit(lambda c: c[0].update({"residual": 1.0})), None),
            ("A echo", _set(("config", "A"), 3.5), None),
            ("exit code", lambda o: o, 1),
        ]),
        (fault_argv, True, [
            ("Gram checks pass", _verify_edit(lambda c: [x.update({"pass": True, "residual": 0.0}) for x in c[2:4]]), None),
            ("exit code 0", lambda o: o, 0),
        ]),
    ]


def main() -> int:
    cli = run.locate_program()
    bad = 0
    for argv, known_fault, perturbations in cases():
        rc, _, out, err = run.request(cli, argv)
        reason = oracle.check(argv, rc, out, err, known_fault=known_fault)
        if reason is not None:
            print(f"FAIL real output rejected: {' '.join(argv)}: {reason}")
            bad += 1
            continue
        print(f"ok   accepted: {' '.join(argv)}")
        for label, transform, rc_override in perturbations:
            reason = oracle.check(argv, rc if rc_override is None else rc_override, transform(out), err,
                                  known_fault=known_fault)
            if reason is None:
                print(f"FAIL perturbation accepted: {label}")
                bad += 1
            else:
                print(f"ok   rejected {label}: {reason}")
    print("self-test " + ("passed" if not bad else f"failed ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
