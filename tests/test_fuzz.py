"""Seeded fuzz test of the CLI: mutants of the fixture sessions (a line
dropped, duplicated or swapped, a token replaced, the text truncated) run
in process through ``cli.main`` and must end the way every input must end,
with exit code 0, 2, 3 or 4 and at most one line on stderr, never with a
traceback.  Each fixture is drawn equally often, except that the at2
fixture, whose run takes about 0.2 s against a few ms for the others, is
drawn a tenth as often, so that the whole test stays under 1.5 s."""

import contextlib
import io
import pathlib
import random
import re
import time

from paramjet.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MUTANTS = 300
# tokens a replacement may bring in besides those of the fixtures: numbers at
# and past the limits, stray operators, keywords out of place
EXTRA_TOKENS = ["0", "-1", "1/0", "257", "99999999999", "(", ")", "^", "/", "*", ",", "end", "command", "matrix", "x", "t", "q", ""]
TOKEN = re.compile(r"\w+|[^\w\s]")
WEIGHT = {"rational_gauge_at2": 1}  # the others weigh 10


def mutate(rng: random.Random, text: str, pool: list[str]) -> str:
    lines = text.splitlines()
    kind = rng.randrange(5)
    i = rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        spans = [m.span() for m in TOKEN.finditer(lines[i])]
        if spans:
            a, b = rng.choice(spans)
            lines[i] = lines[i][:a] + rng.choice(pool) + lines[i][b:]
    else:
        return text[: rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


def test_fuzz_mutants_end_with_a_documented_exit(tmp_path):
    rng = random.Random(90210)
    paths = sorted(FIXTURES.glob("*.session"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    weights = [WEIGHT.get(p.stem, 10) for p in paths]
    pool = sorted({tok for text in texts for tok in TOKEN.findall(text)}) + EXTRA_TOKENS
    path, out = tmp_path / "mutant.session", tmp_path / "mutant.jsonl"
    start = time.perf_counter()
    for k in range(MUTANTS):
        (text,) = rng.choices(texts, weights)
        text = mutate(rng, text, pool)
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--quiet", "--out", str(out), "--degree-bound", "1"])
        message = err.getvalue()
        assert code in (0, 2, 3, 4), (k, code, text)
        assert len(message.splitlines()) <= 1 and "Traceback" not in message, (k, message, text)
    assert time.perf_counter() - start < 1.5
