"""The byte-identity corpus: argv families whose output bytes are pinned.

    PYTHONPATH=src python3 tests/corpus.py check [FAMILY ...]
    PYTHONPATH=src python3 tests/corpus.py record FAMILY ...

Each family is a deterministic list of argv.  Every argv runs in process
through `valsweep.cli.main` and gives one line: the argv as JSON, the exit
code, the sha256 of stdout and the sha256 of stderr without its
`timing_ms` line.  A family's digest is the sha256 of its sorted lines.
`corpus_digests.json` holds one digest per family.

`check` replays the named families (all by default) and exits 1 if a
digest differs.  `record` rewrites the digests of the named families: a
change that alters output on purpose records only the families it alters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Callable

from valsweep.cli import STEPS_MAX, main
from valsweep.qfield import TAU_A_MAX
from valsweep.quotient import ORDER_MAX, is_prime
from valsweep.toric import CHAIN_MAX, SNF_N_MAX

DIGESTS = Path(__file__).with_name("corpus_digests.json")

FORMATS = (["--format", "json"], ["--format", "text"])
# a valid value for every flag, for the argv that need one
VALID = {"--q": "11", "--p": "13", "--m": "3", "--n": "3", "--steps": "5", "--a": "3",
         "--b": "2", "--order": "7", "--matrix": "1,0,2,5", "--corrupt-step": "2"}
# each subcommand's own flags: required, then optional
OWN = {
    "tau": (["--a"], []),
    "convergents": (["--a"], ["--steps"]),
    "value": (["--a", "--matrix"], []),
    "transform": (["--a"], ["--steps"]),
    "snf": (["--matrix"], []),
    "hilbert": (["--matrix"], []),
    "regularity": (["--matrix"], []),
    "lemma5": (["--order", "--a", "--b"], []),
    "counterexample": (["--q", "--p"], ["--m", "--n", "--steps", "--corrupt-step"]),
}
MALFORMED = ["", "x", "1.5", "-", "--", "1e3", "0x10", "+5", "-0", " 7 ", "٣", "nan"]
# a token 100 digits past the interpreter's int/str conversion limit (4300 by default)
LONG_TOKEN = "7" * 4400
# the same past the limit with digit groups joined by underscores, as int() reads them
GROUPED_TOKEN = "_".join("7" * 4401)
# a long token that is no integer at all, echoed only in part
JUNK_TOKEN = "x" * 5000
# a long flag that names none, echoed only in part
JUNK_FLAG = "--" + "x" * 4998


def _both_formats(argvs: list[list[str]]) -> list[list[str]]:
    return [argv + fmt for argv in argvs for fmt in FORMATS]


def _matrix(entries) -> str:
    return ",".join(map(str, entries))


def _small_matrices(seed: int, count: int, sizes: range, bound: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        out.append(_matrix(rng.randint(-bound, bound) for _ in range(n * n)))
    return out


def admissible_pairs(q_below: int) -> list[tuple[int, int]]:
    return [(q, p) for q in range(5, q_below) if is_prime(q)
            for p in range(q + 1, 2 * q - 4) if is_prime(p)]


def least_mn(q: int, p: int) -> int:
    """The least odd m = n that exceeds the chart bound p - q."""
    return p - q + 1 if (p - q) % 2 == 0 else p - q + 2


def own_tau() -> list[list[str]]:
    return _both_formats([["tau", "--a", str(a)] for a in [*range(-3, 61), 999979]])


def own_convergents() -> list[list[str]]:
    steps = [[]] + [["--steps", str(s)] for s in (-1, 0, 1, 2, 10, 37)]
    return _both_formats([["convergents", "--a", str(a), *s]
                          for a in range(1, 13) for s in steps])


def own_value() -> list[list[str]]:
    supports = ["0,0", "1,2", "1,2,3,4", "2,0,0,3,1,1", "-1,0,0,0", "1,2,3", "5,0,0,5,1,1,2,2",
                "0,1,1,0,2,2,3,3,4,4"]
    return _both_formats([["value", "--a", str(a), f"--matrix={s}"]
                          for a in range(1, 6) for s in supports])


def own_transform() -> list[list[str]]:
    steps = [[]] + [["--steps", str(s)] for s in (-2, -1, 0, 1, 2, 10, 37)]
    return _both_formats([["transform", "--a", str(a), *s]
                          for a in range(1, 13) for s in steps])


def _matrix_command(command: str, matrices: list[str]) -> list[list[str]]:
    return _both_formats([[command, f"--matrix={m}"] for m in matrices])


def own_snf() -> list[list[str]]:
    return _matrix_command("snf", _small_matrices(1, 400, range(1, 5), 9)
                           + ["0", "7,9,2,1", "2,4,4,6,0,0,0,0,9"])


def own_hilbert() -> list[list[str]]:
    return _matrix_command("hilbert", _small_matrices(2, 300, range(2, 3), 5)
                           + ["1,0,-1,1000003", "1,0,2,5", "1,0,0,0", "3"])


def own_regularity() -> list[list[str]]:
    return _matrix_command("regularity", _small_matrices(3, 300, range(2, 3), 5)
                           + ["7,9,2,1", "1,0,1,0", "0,0,0,0", "1,0,0,1,0,0,0,0,1"])


def own_lemma5() -> list[list[str]]:
    return _both_formats([["lemma5", "--order", str(order), "--a", str(a), "--b", str(b)]
                          for order in (-1, 0, 1, 4, 9, 37, 211)
                          for a, b in ((1, 2), (0, 3), (5, -1))])


def own_counterexample() -> list[list[str]]:
    argvs = []
    for mn in ([], ["--m", "1"], ["--m", "5", "--n", "5"], ["--n", "4"]):
        for steps in ([], ["--steps", "0"], ["--steps", "3"]):
            for corrupt in ([], ["--corrupt-step", "0"], ["--corrupt-step", "2"]):
                argvs.append(["counterexample", "--q", "11", "--p", "13", *mn, *steps,
                              *corrupt])
    for q, p in ((4, 13), (11, 19), (13, 11), (11, 11), (9, 13), (11, 15), (17, 23)):
        argvs.append(["counterexample", "--q", str(q), "--p", str(p)])
    return _both_formats(argvs)


def caps() -> list[list[str]]:
    steps, a = str(STEPS_MAX + 1), str(TAU_A_MAX + 1)
    order = str(ORDER_MAX + 1)
    return _both_formats([
        ["convergents", "--a", "7", "--steps", steps],
        ["transform", "--a", "7", "--steps", steps],
        ["counterexample", "--q", "11", "--p", "13", "--steps", steps],
        ["tau", "--a", a], ["convergents", "--a", a], ["transform", "--a", a],
        ["value", "--a", a, "--matrix=1,2"],
        ["lemma5", "--order", order, "--a", "1", "--b", "2"],
        ["counterexample", "--q", order, "--p", "13"],
        ["counterexample", "--q", "11", "--p", order],
        ["snf", "--matrix=" + _matrix([1] * (SNF_N_MAX + 1) ** 2)],
        ["hilbert", f"--matrix=1,0,1,{CHAIN_MAX + 1}"],
        ["regularity", f"--matrix={CHAIN_MAX + 1},-1,0,1"],
    ])


def chains() -> list[list[str]]:
    """Long Hirzebruch-Jung chains.  `regularity` counts them off their
    runs, with no cap: at |det| 1, at `CHAIN_MAX` +- 1, at 2000000 and at a
    Fibonacci ratio of 4200 digits.  `hilbert` lists up to 10^4 generators
    in runs of 2s, with both orientations of each cone, and refuses a chain
    past the cap."""
    fib, limit = [1, 1], 10 ** 4199
    while fib[-1] < limit:
        fib.append(fib[-1] + fib[-2])
    regularity = ["1,0,0,1", f"{CHAIN_MAX - 1},-1,0,1", f"{CHAIN_MAX + 1},-1,0,1",
                  "2000000,-1,0,1", f"{fib[-1]},-{fib[-2]},0,1"]
    # D/k = [1; 3000, 1, 3000, 1, 3000] has the runs (2, 3000), (3, 3000), (3, 3000);
    # the third cone is the second moved by the unimodular (x, y) -> (2x + y, x + y)
    dd, k = 3000, 1
    for a in (1, 3000, 1, 3000, 1):
        dd, k = a * dd + k, dd
    cones = [((1, 0), (1, 9999)), ((1, 0), (dd - k, dd)), ((2, 1), (3 * dd - 2 * k, 2 * dd - k))]
    hilbert = [_matrix(v + w) for v, w in cones] + [_matrix(w + v) for v, w in cones]
    return (_matrix_command("regularity", regularity)
            + _matrix_command("hilbert", hilbert + [f"1,0,1,{CHAIN_MAX + 1}"]))


def malformed() -> list[list[str]]:
    argvs = [[], ["-h"], ["--help"], ["bogus"], [""], ["tau", "--a", "3", "--format", "xml"],
             ["tau", "--a", "3", "extra"], ["tau", "--a", "3", "--bogus"], ["tau", "--a"],
             ["tau", "--a=--"], ["snf", "--matrix", "--format", "-1,0,0,1"]]
    for command, (required, optional) in OWN.items():
        argvs.append([command, "-h"])
        for missing in required:
            argvs.append([command, *(x for flag in required if flag != missing
                                     for x in (flag, VALID[flag]))])
        for flag in required + optional:
            base = [x for other in required if other != flag for x in (other, VALID[other])]
            argvs += [[command, *base, flag, token] for token in MALFORMED]
            argvs.append([command, *base, f"{flag}=--"])
    for command in ("snf", "hilbert", "regularity"):
        argvs += [[command, f"--matrix={m}"]
                  for m in ["1,,2,3", "a,b,c,d", "1,2,3", "-1,0,0,1", "1, 2 ,3,4"] + MALFORMED]
    return _both_formats(argvs)


def pairs() -> list[list[str]]:
    argvs = []
    for q, p in admissible_pairs(80):
        least = least_mn(q, p)
        for mn in ([], ["--m", str(least), "--n", str(least)]) if least != 3 else ([],):
            for steps in (0, 1, 25):
                for corrupt in (None, 0, steps, -1, steps + 1):
                    argv = ["counterexample", "--q", str(q), "--p", str(p), *mn,
                            "--steps", str(steps)]
                    if corrupt is not None:
                        argv += ["--corrupt-step", str(corrupt)]
                    argvs.append(argv)
    return argvs


def lemma5() -> list[list[str]]:
    return [["lemma5", "--order", str(order), "--a", str(a), "--b", str(b)]
            for order in range(2, 32) if is_prime(order)
            for a in range(order) for b in range(order)]


def long_sweep() -> list[list[str]]:
    return _both_formats([["counterexample", "--q", "11", "--p", "13", "--steps", "1000"],
                          ["counterexample", "--q", "11", "--p", "13", "--steps", "1000",
                           "--corrupt-step", "1000"]])


def foreign() -> list[list[str]]:
    """Each subcommand with its required flags and one flag it does not read."""
    argvs = []
    for command, (required, optional) in OWN.items():
        base = [x for flag in required for x in (flag, VALID[flag])]
        argvs += [[command, *base, flag, VALID[flag]] for flag in VALID
                  if flag not in required + optional]
    return argvs


def long_token() -> list[list[str]]:
    """The token past the digit limit as a --matrix entry, and as the value
    of each int flag in a subcommand that reads it; its underscore-grouped
    form, and a long token that is no integer: as an int flag, an entry, the
    subcommand, a stray argument and --format's value, and as an unknown flag."""
    flags = []
    for command, (required, optional) in OWN.items():
        for flag in required + optional:
            if flag != "--matrix":
                base = [x for other in required if other != flag for x in (other, VALID[other])]
                flags.append([command, *base, flag, LONG_TOKEN])
    return _both_formats([["snf", f"--matrix={LONG_TOKEN},1,1,1"],
                          ["hilbert", f"--matrix=1,{LONG_TOKEN},1,1"],
                          ["regularity", f"--matrix=1,1,{LONG_TOKEN},1"],
                          ["value", "--a", "3", f"--matrix=1,-{LONG_TOKEN}"],
                          ["tau", "--a", GROUPED_TOKEN],
                          ["value", "--a", "3", f"--matrix={GROUPED_TOKEN},1"],
                          ["tau", "--a", JUNK_TOKEN],
                          ["snf", f"--matrix={JUNK_TOKEN},1,1,1"], [JUNK_TOKEN, "--a", "3"],
                          ["tau", "--a", "3", JUNK_TOKEN], ["tau", "--a", "3", JUNK_FLAG],
                          ["tau", "--a", "3", "--format", JUNK_TOKEN], *flags])


def blocks() -> list[list[str]]:
    """Record lists one row short of, at, and one row past a multiple of
    `cli._BLOCK_ROWS` (512), the rows the report joins per block."""
    argvs = [["transform", "--a", "1", "--steps", str(s)] for s in (510, 511, 512, 1023, 1024)]
    argvs += [["convergents", "--a", "1", "--steps", str(s)]
              for s in (511, 512, 513, 1024, 1025)]
    argvs += [["counterexample", "--q", "11", "--p", "13", "--steps", str(s)]
              for s in (255, 256, 511, 512)]
    argvs += [["hilbert", f"--matrix=1,0,1,{n}"] for n in (510, 511, 512, 1023, 1024)]
    argvs += [["lemma5", "--order", str(order), "--a", "1", "--b", "2"]
              for order in (509, 521, 1021, 1031)]
    argvs += [["value", "--a", "3", "--matrix=" + _matrix(x for k in range(pairs)
                                                          for x in (k, pairs - k))]
              for pairs in (511, 512, 513)]
    return _both_formats(argvs)


def corrupt_grid() -> list[list[str]]:
    """(11, 13) at steps 0..40 with every --corrupt-step from -2 to steps + 2:
    the steps inside the sweep falsify (exit 2), the rest exit 1."""
    return [["counterexample", "--q", "11", "--p", "13", "--steps", str(steps),
             "--corrupt-step", str(corrupt)]
            for steps in range(41) for corrupt in range(-2, steps + 3)]


def refusals() -> list[list[str]]:
    """Refusals that no other family sends, each exit 1 with empty stdout:
    an --n below the chart bound, a negative --steps, a duplicate support
    point and a repeated flag; and a result past the digit limit, though
    every input is within it: a convergent numerator, a Smith invariant
    and a determinant in the report, each of about 4400 digits."""
    half = "7" * 2200
    return [["counterexample", "--q", "11", "--p", "13", "--n", "1"],
            ["counterexample", "--q", "11", "--p", "13", "--steps", "-1"],
            ["value", "--a", "1", "--matrix=1,1,1,1"],
            ["tau", "--a", "1", "--a", "2"],
            ["convergents", "--a", "1000000", "--steps", "2000"],
            ["snf", f"--matrix={half},1,0,{half}"],
            ["regularity", f"--matrix={half},1,1,{half}"]]


FAMILIES: dict[str, Callable[[], list[list[str]]]] = {
    "own-tau": own_tau, "own-convergents": own_convergents, "own-value": own_value,
    "own-transform": own_transform, "own-snf": own_snf, "own-hilbert": own_hilbert,
    "own-regularity": own_regularity, "own-lemma5": own_lemma5,
    "own-counterexample": own_counterexample, "caps": caps, "chains": chains,
    "malformed": malformed,
    "pairs": pairs, "lemma5": lemma5, "long-sweep": long_sweep, "foreign": foreign,
    "long-token": long_token, "blocks": blocks, "corrupt-grid": corrupt_grid,
    "refusals": refusals,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def line(argv: list[str]) -> str:
    """argv, exit code, sha256 of stdout, sha256 of stderr without `timing_ms`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = "".join(x for x in err.getvalue().splitlines(keepends=True)
                     if not x.startswith("timing_ms: "))
    return "\t".join([json.dumps(argv), str(code), _sha(out.getvalue()), _sha(stderr)])


def argvs(name: str) -> list[list[str]]:
    """The family's distinct argv, in generation order."""
    return [list(argv) for argv in dict.fromkeys(map(tuple, FAMILIES[name]()))]


def digest(family: list[list[str]]) -> str:
    return _sha("\n".join(sorted(map(line, family))))


def family_digest(name: str) -> str:
    return digest(argvs(name))


def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def _main(argv: list[str]) -> int:
    action, *names = argv or [""]
    unknown = sorted(set(names) - set(FAMILIES))
    if action not in ("check", "record") or unknown or (action == "record" and not names):
        print(__doc__.split("\n\n")[1] + f"\nfamilies: {', '.join(FAMILIES)}",
              file=sys.stderr)
        return 1
    data = recorded() if DIGESTS.exists() else {"families": {}}
    failed = 0
    for name in names or FAMILIES:
        family = argvs(name)
        found = digest(family)
        if action == "record":
            data["families"][name] = found
        ok = found == data["families"].get(name)
        failed += not ok
        print(f"{name}: {len(family)} argv, {'ok' if ok else 'DIFFERS'}")
    if action == "record":
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
