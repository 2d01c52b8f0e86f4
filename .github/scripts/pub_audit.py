#!/usr/bin/env python3
"""Report public functions that no non-test code outside their own file names.

A `pub fn` under `crates/` (shims excluded) or `src/` counts as called when
its name appears as a whole word in the non-test code of another file there,
or anywhere in `benchmark/src/`: the benchmark is a frozen caller, and its own
tests must keep building. Files under a `tests/` directory, items behind
`#[cfg(test)]` and comments are not callers. A function kept for an open
ROADMAP item says so in a comment just above it ("ROADMAP item N"), and so
does one that stays public only because tests in another crate or under
`tests/` call it ("Public for the tests ..."; `#[cfg(test)]` cannot reach
them). Those are listed apart. The report gates nothing: it always exits 0.

Run from the repository root: `python3 .github/scripts/pub_audit.py`.
"""
import re
import subprocess

ROOTS = ("crates", "src", "benchmark/src")
DEF = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+)*fn\s+(\w+)")
KEPT = re.compile(r"ROADMAP item (\d+[a-z]?)|Public for the tests")


def sources():
    out = subprocess.run(
        ["git", "ls-files", "--", *(f"{r}/*.rs" for r in ROOTS)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return [p for p in out if not p.startswith("crates/shims/")]


def strip_line_comment(line):
    # Good enough for this codebase: no `//` appears inside a string literal
    # on a line that also defines or calls a public function.
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def product_lines(path):
    """The file's lines with `#[cfg(test)]` items blanked out."""
    lines = open(path, encoding="utf-8").read().split("\n")
    keep = [True] * len(lines)
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        depth, opened, j = 0, False, i
        while j < len(lines):
            code = strip_line_comment(lines[j])
            keep[j] = False
            if j > i and not opened and code.rstrip().endswith(";"):
                break
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if opened and depth <= 0:
                break
            j += 1
        i = j + 1
    return [line if k else "" for line, k in zip(lines, keep)]


def main():
    files = sources()
    code = {}
    defs = []
    for path in files:
        frozen = path.startswith("benchmark/")
        lines = open(path, encoding="utf-8").read().split("\n") if frozen else product_lines(path)
        code[path] = "\n".join(strip_line_comment(l) for l in lines)
        if frozen or "/tests/" in f"/{path}":
            continue
        for n, line in enumerate(lines):
            m = DEF.match(line)
            if not m:
                continue
            note = None
            k = n - 1
            while k >= 0 and re.match(r"^\s*(//|#\[)", lines[k]):
                hit = KEPT.search(lines[k])
                if hit:
                    note = f"item {hit.group(1)}" if hit.group(1) else "tests"
                k -= 1
            defs.append((path, n + 1, m.group(1), note))
    callers = {p: t for p, t in code.items() if "/tests/" not in f"/{p}"}
    orphans = []
    for path, line, name, note in defs:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(t) for p, t in callers.items() if p != path):
            orphans.append((path, line, name, note))
    items = [o for o in orphans if o[3] and o[3] != "tests"]
    tests = [o for o in orphans if o[3] == "tests"]
    bare = [o for o in orphans if not o[3]]
    print(f"pub fns named by no non-test code outside their own file: {len(orphans)} "
          f"({len(items)} kept for an open ROADMAP item, {len(tests)} public only for "
          f"tests outside their crate, {len(bare)} unmarked)")
    for path, line, name, note in items + tests:
        print(f"  kept ({note}): {path}:{line} {name}")
    for path, line, name, _ in bare:
        print(f"  unmarked: {path}:{line} {name}")


if __name__ == "__main__":
    main()
