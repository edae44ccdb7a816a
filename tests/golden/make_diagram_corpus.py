"""Regenerate diagram_corpus.json: CLI argv lists with output digests.

The corpus covers `diagram sample --mod 2..8 --seed 0..4`, `diagram check`
and `diagram limit` (text and --json) on each sample, `suite run all
--seed 0..2`, and `check ab5` for rings 1..4 x sets 1, 3, 4, w x both
theories, text and --json.  It also covers the ordinal calculator on
nested exponents (`ordinal add/sub/cmp` on every ordered pair of ORDINALS,
`ordinal fmt/points` on each), and `check limterm`, `limterm build` and
`sumterm build` on LIMTERM_ALPHAS x LIMTERM_MODULES, text and --json.
The parser rows run `term parse` on the `limterm build`/`sumterm build`
spelling of each of ORDINALS, and `term eval`, `limterm eval` and
`sumterm eval` on FAMILIES, whose bounds nest exponents and carry blanks,
text and --json.  `sumterm restrict` sums each of FAMILIES inside its own
length, a longer index and the overhung index 1, and `check refute` runs
on --mod 1..4 x REFUTE_ALPHAS with and without a candidate term, text and
--json.  FREE_FAMILIES runs `term eval`, `limterm eval`, `sumterm eval` and
`sumterm restrict` over free modules, and `term eval` under the identity
assignment `[0,w)->idx`, text and --json.

Each entry is an argv list plus the sha256 of the JSON text of
[exit code, stdout, stderr] that `translim.cli.main(argv)` produces.  An
argv item of the form "@sample:<mod>:<seed>" stands for a file holding the
stdout of `diagram sample --mod <mod> --seed <seed>`.

Run from the repository root after an intentional output change:

    PYTHONPATH=src python3 tests/golden/make_diagram_corpus.py

and review the diff before committing.  tests/test_diagram_corpus.py
replays the corpus in process.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from translim.cli import main

CORPUS = pathlib.Path(__file__).with_name("diagram_corpus.json")
SAMPLE = "@sample:"

# Ordinals with nested exponents; "3+w^(w+1)+w^(w+1)*2" is a non-canonical
# spelling that must normalize.
ORDINALS = ["0", "5", "w*2+3", "w^(w+1)*2+5", "w^(w^2+1)+w^w*3",
            "w^(w^(w+2)*3)+w^7*2+1", "w^w^w", "w^(w+1)*2+w^w",
            "w^(w^2+1)+w^(w+1)", "3+w^(w+1)+w^(w+1)*2"]
LIMTERM_ALPHAS = ["w", "w+1", "w*2", "w^2", "w^2+3", "w^w"]
LIMTERM_MODULES = ["Z/2", "Z/4", "Z/2 x Z/2"]
# (alpha, family over alpha in Z/4, a term over alpha): ordinal bounds with
# parenthesized exponents and blanks where the grammar allows them
FAMILIES = [
    ("5", "[0,2)->1; [ 2 , 5 )->2", "(+ x4 (- x0))"),
    ("w*2+3", "[0,w)->0;[w,w+2)->1;[w+2,w*2+3)->0",
     "(sum w*2+3 [0,3)->idx [3,w*2+3)->x0)"),
    ("w^(w+1)*2+5",
     "[0,w^(w+1))->0; [w^(w+1), w^(w+1)+1)->2; [w^(w+1)+1,w^(w+1)*2)->0;"
     " [w^(w+1)*2,w^(w+1)*2+5)->3",
     "(+ xw^(w+1) (- xw^(w+1)*2+4))"),
    ("w^(w^2+1)+w^w*3",
     "[ 0 , 3 ) -> 1 ; [3, w^( w^2 + 1 ) + w^w * 3 ) -> 0",
     "(lim w^(w^2+1)+w^w*3 [0, w^(w^2+1))->idx [w^(w^2+1),"
     "w^( w^2+1 )+w^w*3)->(scal 3 x2))"),
    ("w^(w^(w+2)*3)+w^7*2+1",
     "[0,w^(w^(w+2)*3))->0;[w^(w^(w+2)*3),w^(w^(w+2)*3)+w^7*2)->0;"
     "[w^(w^(w+2)*3)+w^7*2,w^(w^(w+2)*3)+w^7*2+1)->1",
     "(sum w^(w^(w+2)*3)+w^7*2+1 [0,1)->idx [1,w^(w^(w+2)*3)+w^7*2+1)->zero)"),
    ("w^w^w", "[0, w^w)->1; [w^w , w^w^w)->3", "(- xw^w)"),
    ("3+w^(w+1)+w^(w+1)*2",
     "[0,w^(w+1)*2)->0; [ w^(w+1)*2 , w^(w+1)*2+2 ) -> 2;"
     "[w^(w+1)*2+2,w^(w+1)*3)->0",
     "(lim w^(w+1)*3 [0,w^(w+1)*3)->idx)"),
]
# (module, alpha, family over alpha, a term over alpha) over free modules:
# explicit generators and at most four nonzero points, because a formal sum
# through limits doubles in size with each nonzero point before a limit
FREE_FAMILIES = [
    ("free(add-inf mod 2, w)", "w", "[0,1)->x0; [1,3)->(+ x1 x2); [3,w)->zero",
     "(+ x0 (scal 3 x1))"),
    ("free(add-inf mod 3, w*2)", "w*2",
     "[0,2)->x0; [2,w)->zero; [w,w+1)->(scal 2 xw); [w+1,w*2)->zero",
     "(sum w*2 [0,3)->idx [3,w*2)->(- xw))"),
]
# a finitary limit term exists at successor indices, and at limit indices
# only over the zero ring (--mod 1)
REFUTE_ALPHAS = ["1", "3", "w", "w+1", "w*2", "w^w"]


def built(head, alpha):
    """The `limterm build`/`sumterm build` spelling of the term over alpha."""
    return f"({head} {alpha})" if alpha == "0" else \
        f"({head} {alpha} [0,{alpha})->idx)"


def argv_lists():
    runs = []
    for mod in range(2, 9):
        for seed in range(5):
            runs.append(["diagram", "sample", "--mod", str(mod),
                         "--seed", str(seed)])
            ref = f"{SAMPLE}{mod}:{seed}"
            for verb in ("check", "limit"):
                runs.append(["diagram", verb, ref])
                runs.append(["diagram", verb, ref, "--json"])
    for seed in range(3):
        runs.append(["suite", "run", "all", "--seed", str(seed)])
    for ring in range(1, 5):
        for index in ("1", "3", "4", "w"):
            for theory in ("inf-add", "fin-add"):
                argv = ["check", "ab5", "--ring", str(ring), "--set", index,
                        "--theory", theory]
                runs += [argv, argv + ["--json"]]
    for op in ("add", "sub", "cmp"):
        for a in ORDINALS:
            for b in ORDINALS:
                argv = ["ordinal", op, a, b]
                runs += [argv, argv + ["--json"]]
    for op in ("fmt", "points"):
        for a in ORDINALS:
            argv = ["ordinal", op, a]
            runs += [argv, argv + ["--json"]]
    for alpha in LIMTERM_ALPHAS:
        for module in LIMTERM_MODULES:
            argv = ["check", "limterm", "--alpha", alpha, "--module", module,
                    "--trials", "30", "--seed", "3"]
            runs += [argv, argv + ["--json"]]
        for verb in ("limterm", "sumterm"):
            argv = [verb, "build", "--alpha", alpha]
            runs += [argv, argv + ["--json"]]
    for a in ORDINALS:
        for head in ("lim", "sum"):
            argv = ["term", "parse", built(head, a)]
            runs += [argv, argv + ["--json"]]
    for alpha, seq, expr in FAMILIES:
        for argv in (["term", "eval", expr],
                     ["term", "eval", built("lim", alpha)],
                     ["limterm", "eval", "--alpha", alpha],
                     ["sumterm", "eval", "--alpha", alpha]):
            argv += ["--module", "Z/4", "--seq", seq]
            runs += [argv, argv + ["--json"]]
        for ambient in (alpha, f"{alpha}+w", "1"):
            argv = ["sumterm", "restrict", "--alpha", ambient,
                    "--module", "Z/4", "--seq", seq]
            runs += [argv, argv + ["--json"]]
    for mod in range(1, 5):
        for alpha in REFUTE_ALPHAS:
            for term in ([], ["--term", "(+ x0 (scal 2 x0))"]):
                argv = ["check", "refute", "--mod", str(mod),
                        "--alpha", alpha, *term]
                runs += [argv, argv + ["--json"]]
    for module, alpha, seq, expr in FREE_FAMILIES:
        for argv in (["term", "eval", expr],
                     ["term", "eval", built("lim", alpha)],
                     ["limterm", "eval", "--alpha", alpha],
                     ["sumterm", "eval", "--alpha", alpha],
                     *(["sumterm", "restrict", "--alpha", ambient]
                       for ambient in (alpha, f"{alpha}+w", "1"))):
            argv += ["--module", module, "--seq", seq]
            runs += [argv, argv + ["--json"]]
    # [0,w)->idx is the identity assignment, so the term comes back
    argv = ["term", "eval", "(+ x0 (scal 3 x1))", "--module",
            "free(add-inf mod 2, w)", "--seq", "[0,w)->idx"]
    runs += [argv, argv + ["--json"]]
    return runs


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(result):
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def expand(argv, workdir):
    """argv with every sample reference replaced by a written sample file."""
    out = []
    for arg in argv:
        if arg.startswith(SAMPLE):
            mod, seed = arg[len(SAMPLE):].split(":")
            path = pathlib.Path(workdir) / f"sample_{mod}_{seed}.json"
            if not path.exists():
                code, text, _ = run(["diagram", "sample", "--mod", mod,
                                     "--seed", seed])
                if code != 0:
                    raise RuntimeError(f"diagram sample failed for {arg}")
                path.write_text(text, encoding="utf-8")
            arg = str(path)
        out.append(arg)
    return out


def build():
    with tempfile.TemporaryDirectory() as workdir:
        return [{"argv": argv, "sha256": digest(run(expand(argv, workdir)))}
                for argv in argv_lists()]


if __name__ == "__main__":
    entries = build()
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries)
                      + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
