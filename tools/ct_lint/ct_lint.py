#!/usr/bin/env python3
"""ct_lint — secret-taint static analysis for the crypto sources.

Walks the crypto translation units and flags code where secret data can
reach a timing side channel:

  branch   a branch/loop/switch condition depends on a tainted value
  index    a memory access is indexed by a tainted value
  divmod   a variable-time operator (/ or %) has a tainted operand
  call     a tainted value is passed to a function that is neither
           certified nor itself under analysis
  wipe     a local holding raw secret bytes is never secure_wipe()d
  annot    a definition shares its name with an annotated function but
           carries no annotation itself: callees are vetted by bare name,
           so such an overload (or same-named method) would be trusted
           without its body ever being analyzed

Taint sources
  * parameters named in a `// ct-lint: secret(a, b)` annotation on the
    function definition;
  * the result of any `expose_secret()` call (the only accessor of
    `ct::secret<T>`, src/crypto/ct.hpp).

Taint propagates through assignments, compound assignments, out-params of
certified primitives, `memcpy`, and method calls (a tainted argument
taints the receiver object).  It is *removed* by `declassify…` calls and
by calls to functions annotated `public-return` (their bodies declassify
internally — the annotation is checked where the function is defined).

Annotations (in a `//` comment):
  ct-lint: certified [secret(p, ...)] [public-return]
      on a function definition: the function is a certified constant-time
      primitive; tainted arguments may flow into it.  Its own body is
      still analyzed, with the `secret(...)` parameters seeded as tainted.
  ct-lint: secret(p, ...) [public-return]
      as above minus the "certified" claim: the function is analyzed and
      may receive taint, but is not part of the certified core.
  ct-lint: allow(rule, ...) -- suppress findings of those rules on the
      same source line.  Keep every use justified in an adjacent comment.

Known-audited callees live in certified.txt next to this script; the
committed baseline.txt (empty for the sign path) lists tolerated
findings as `file:function:rule` globs.

Usage:
  ct_lint.py [--repo DIR] [--baseline FILE] [--certified FILE] [files...]
  ct_lint.py --self-test
Exit codes: 0 clean, 1 findings outside the baseline, 2 usage/self-test
failure.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import re
import sys

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "alignof", "decltype", "defined", "new", "delete", "else", "do",
    "static_assert", "noexcept", "assert", "typedef", "using", "template",
}

ANNOT_RE = re.compile(r"//\s*ct-lint:\s*(.*?)\s*$")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CALL_RE = re.compile(r"\b([A-Za-z_][\w:]*)\s*\(")
TMPL_CALL_RE = re.compile(r"\b([A-Za-z_][\w:]*)\s*<[^;(){}=]*>\s*\(")
INDEX_RE = re.compile(r"\b[A-Za-z_][\w.]*\s*\[([^\]]+)\]")
DIVMOD_RE = re.compile(r"(\w+)(?:\[[^\]]*\])?\s*([/%])(?!=?\s*[/*])\s*(\w+)")
ASSIGN_RE = re.compile(
    r"([A-Za-z_][\w.]*)\s*(?:\[[^\]]*\])?\s*"
    r"(=|\+=|-=|\*=|\|=|&=|\^=|<<=|>>=)(?!=)\s*(.+)$",
    re.S,
)
DECL_INIT_RE = re.compile(
    r"(?:const\s+)?([A-Za-z_][\w:<>,\s]*?)\s*(&{0,2})\s*"
    r"\b([A-Za-z_]\w*)\s*[({=]\s*(.*)$",
    re.S,
)
WIPE_RE = re.compile(r"secure_wipe\s*\(\s*([A-Za-z_][\w.]*)")
METHOD_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(\w+)\s*\(")
WIPE_TYPES_RE = re.compile(
    r"^(?:const\s+)?(U256|Digest|auto|std::array<\s*(?:std::)?uint8_t[^;=]*>)\s*$")


# Calls whose tainted arguments taint every other argument (out-params).
OUT_PARAM_CALLEES = {
    "memcpy", "ct_mul64", "ct_adc", "ct_sbb", "ct_swap", "mul64", "adc64",
    "sbb64", "_addcarry_u64", "_subborrow_u64",
}


class Annotation:
    def __init__(self) -> None:
        self.certified = False
        self.public_return = False
        self.secret_params: list[str] = []
        self.allow: set[str] = set()

    @staticmethod
    def parse(text: str) -> "Annotation":
        a = Annotation()
        if re.search(r"\bcertified\b", text):
            a.certified = True
        if re.search(r"\bpublic-return\b", text):
            a.public_return = True
        m = re.search(r"\bsecret\s*\(([^)]*)\)", text)
        if m:
            a.secret_params = [p.strip() for p in m.group(1).split(",") if p.strip()]
        m = re.search(r"\ballow\s*\(([^)]*)\)", text)
        if m:
            a.allow = {p.strip() for p in m.group(1).split(",") if p.strip()}
        return a

    def merge(self, other: "Annotation") -> None:
        self.certified |= other.certified
        self.public_return |= other.public_return
        self.secret_params += other.secret_params
        self.allow |= other.allow


class Function:
    def __init__(self, name: str, path: str, header: str, start_line: int,
                 annotation: Annotation) -> None:
        self.name = name
        self.path = path
        self.header = header
        self.start_line = start_line
        self.annotation = annotation
        # (line_number, statement_text, allowed_rules)
        self.statements: list[tuple[int, str, set[str]]] = []
        self.params = self._parse_params(header)

    @staticmethod
    def _parse_params(header: str) -> list[str]:
        lparen = header.find("(")
        if lparen < 0:
            return []
        depth = 0
        end = -1
        for i in range(lparen, len(header)):
            if header[i] == "(":
                depth += 1
            elif header[i] == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end < 0:
            return []
        inner = header[lparen + 1:end]
        params = []
        depth = 0
        chunk = ""
        for ch in inner:
            if ch in "<([":
                depth += 1
            elif ch in ">)]":
                depth -= 1
            if ch == "," and depth == 0:
                params.append(chunk)
                chunk = ""
            else:
                chunk += ch
        if chunk.strip():
            params.append(chunk)
        names = []
        for p in params:
            p = p.split("=")[0].strip()
            idents = IDENT_RE.findall(p)
            if idents:
                names.append(idents[-1])
        return names


def strip_line(raw: str) -> tuple[str, Annotation | None]:
    """Remove comments/strings from one line; return (code, annotation)."""
    annotation = None
    if raw.lstrip().startswith("#"):
        return "", None  # preprocessor directive: not code to analyze
    m = ANNOT_RE.search(raw)
    if m:
        annotation = Annotation.parse(m.group(1))
    # Strip string and char literals so their contents can't confuse us.
    code = re.sub(r'"(\\.|[^"\\])*"', '""', raw)
    code = re.sub(r"'(\\.|[^'\\])*'", "''", code)
    # Line comments.
    code = re.sub(r"//.*$", "", code)
    return code, annotation


def parse_functions(path: pathlib.Path) -> list[Function]:
    """Split a C++ source into functions with per-statement bodies.

    Token-level, not a real parser: good enough for this codebase's style
    (clang-format, one statement per line or clean multi-line statements),
    and locked down by the fixture self-test.
    """
    text = path.read_text()
    # Erase block comments but keep line structure.
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    lines = text.split("\n")

    functions: list[Function] = []
    pending = Annotation()       # annotations awaiting the next function
    stack: list[Function | None] = []
    current: Function | None = None
    header_acc = ""              # accumulated text since last statement end
    header_start = 0
    stmt_acc = ""
    stmt_start = 0
    stmt_allow: set[str] = set()
    depth = 0
    fn_depth = -1

    def flush_statement(line_no: int) -> None:
        nonlocal stmt_acc, stmt_allow
        if current is not None and stmt_acc.strip():
            current.statements.append((stmt_start, stmt_acc.strip(), stmt_allow))
        stmt_acc = ""
        stmt_allow = set()

    for idx, raw in enumerate(lines, start=1):
        code, annot = strip_line(raw)
        if annot is not None:
            if annot.allow and not (annot.certified or annot.secret_params):
                stmt_allow |= annot.allow
            else:
                pending.merge(annot)
        i = 0
        while i < len(code):
            ch = code[i]
            if ch == "{":
                depth += 1
                if current is None:
                    # header_acc already holds this line's chars up to i
                    # (appended char-by-char below).
                    header_text = header_acc.strip()
                    name = _function_name(header_text)
                    if name is not None:
                        current = Function(name, str(path), header_text,
                                           idx, pending)
                        pending = Annotation()
                        fn_depth = depth - 1
                        stack.append(None)
                        header_acc = ""
                        stmt_acc = ""
                        stmt_start = idx
                    else:
                        header_acc = ""
                else:
                    # Control-flow block inside a function: the header
                    # (e.g. `if (...)`) is a statement of its own.
                    if stmt_acc.strip():
                        flush_statement(idx)
            elif ch == "}":
                depth -= 1
                if current is not None and depth == fn_depth:
                    flush_statement(idx)
                    functions.append(current)
                    current = None
                    fn_depth = -1
                    header_acc = ""
                elif current is not None:
                    flush_statement(idx)
            elif ch == ";":
                if current is not None:
                    flush_statement(idx)
                else:
                    header_acc = ""
            else:
                if current is None:
                    if not header_acc:
                        header_start = idx
                    header_acc += ch
                else:
                    if not stmt_acc.strip():
                        stmt_start = idx
                    stmt_acc += ch
            i += 1
        # newline between accumulated fragments
        if current is None:
            header_acc += " "
        else:
            stmt_acc += " "

    return functions


def _function_name(header: str) -> str | None:
    """The function name from a header like `Type ns::name(args) const`."""
    lparen = header.find("(")
    if lparen <= 0:
        return None
    before = header[:lparen].strip()
    m = re.search(r"([A-Za-z_~][\w:~]*)\s*$", before)
    if not m:
        return None
    name = m.group(1).split("::")[-1].lstrip("~")
    if not name or name in CONTROL_KEYWORDS:
        return None
    # Reject obvious non-functions: lambdas assigned, macro-ish all-caps.
    if name in {"operator"}:
        return None
    return name


def base_name(qualified: str) -> str:
    return qualified.split("::")[-1]


def load_list(path: pathlib.Path) -> set[str]:
    entries: set[str] = set()
    if not path.exists():
        return entries
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            entries.add(line)
    return entries


class Finding:
    def __init__(self, path: str, line: int, rule: str, function: str,
                 message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.function = function
        self.message = message

    def key(self) -> str:
        return f"{pathlib.Path(self.path).name}:{self.function}:{self.rule}"

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{self.function}: {self.message}")


def tainted_in(text: str, tainted: set[str]) -> set[str]:
    return {t for t in IDENT_RE.findall(text) if t in tainted}


def callees(stmt: str) -> list[tuple[str, str]]:
    """All (name, args) pairs for calls in a statement, template or plain."""
    out = []
    for m in list(TMPL_CALL_RE.finditer(stmt)) + list(CALL_RE.finditer(stmt)):
        name = m.group(1)
        if base_name(name) in CONTROL_KEYWORDS:
            continue
        # Extract the argument text up to the matching close paren.
        start = stmt.find("(", m.end(1))
        if start < 0:
            continue
        depth = 0
        args = ""
        for ch in stmt[start:]:
            if ch == "(":
                depth += 1
                if depth == 1:
                    continue
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            args += ch
        out.append((name, args))
    return out


def analyze(functions: list[Function], analyzed_names: set[str],
            certified_names: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    ok_callees = analyzed_names | certified_names

    for fn in functions:
        tainted: set[str] = set(fn.annotation.secret_params)
        has_source = bool(tainted) or any(
            "expose_secret" in stmt for _, stmt, _ in fn.statements)
        if not has_source:
            continue

        wiped: set[str] = set()
        returned: set[str] = set()
        # declaration line of wipe-relevant tainted locals
        wipe_candidates: dict[str, int] = {}

        # Fixpoint taint propagation over the statement list.
        for _ in range(8):
            changed = False
            for line_no, stmt, _allow in fn.statements:
                sanitized = ("declassify" in stmt) or any(
                    base_name(n) in analyzed_names
                    and _public_return(base_name(n))
                    for n, _ in callees(stmt))
                m = ASSIGN_RE.search(stmt)
                if m:
                    lhs = m.group(1).split(".")[0]
                    rhs = m.group(3)
                    rhs_tainted = bool(tainted_in(rhs, tainted)) or \
                        "expose_secret" in rhs
                    if rhs_tainted and not sanitized and lhs not in tainted:
                        tainted.add(lhs)
                        changed = True
                else:
                    dm = DECL_INIT_RE.match(stmt)
                    if dm:
                        rhs = dm.group(4)
                        rhs_tainted = bool(tainted_in(rhs, tainted)) or \
                            "expose_secret" in rhs
                        if rhs_tainted and not sanitized and \
                                dm.group(3) not in tainted:
                            tainted.add(dm.group(3))
                            changed = True
                # memcpy / certified out-params: a tainted argument taints
                # every other identifier argument of the same call.
                for name, args in callees(stmt):
                    bn = base_name(name)
                    if bn in OUT_PARAM_CALLEES:
                        if tainted_in(args, tainted):
                            for ident in IDENT_RE.findall(args):
                                if ident not in tainted and \
                                        not ident.isdigit() and \
                                        ident not in CONTROL_KEYWORDS and \
                                        "." not in ident:
                                    # only plain local names
                                    if re.search(
                                            rf"(?<![\w.]){ident}\s*[,)]",
                                            args) or re.search(
                                            rf"(?<![\w.]){ident}\s*\.",
                                            args):
                                        tainted.add(ident)
                                        changed = True
                # method call with tainted argument taints the receiver
                for mm in METHOD_CALL_RE.finditer(stmt):
                    recv, meth = mm.group(1), mm.group(2)
                    start = stmt.find("(", mm.end(2) - 1)
                    args = stmt[start + 1:stmt.find(")", start) if
                                stmt.find(")", start) > 0 else len(stmt)]
                    if tainted_in(args, tainted) and recv not in tainted:
                        tainted.add(recv)
                        changed = True
            if not changed:
                break

        # Track wipes / returns / wipe-relevant declarations.
        for line_no, stmt, _allow in fn.statements:
            for wm in WIPE_RE.finditer(stmt):
                wiped.add(wm.group(1).split(".")[0])
            if stmt.strip().startswith("return"):
                returned |= set(IDENT_RE.findall(stmt))
            dm = DECL_INIT_RE.match(stmt)
            if dm and dm.group(3) in tainted and not dm.group(2):
                if WIPE_TYPES_RE.match(dm.group(1).strip()):
                    wipe_candidates.setdefault(dm.group(3), line_no)

        # ---- rule checks ----
        for line_no, stmt, allow in fn.statements:
            allow = allow | fn.annotation.allow

            def report(rule: str, message: str) -> None:
                if rule not in allow:
                    findings.append(Finding(fn.path, line_no, rule,
                                            fn.name, message))

            s = stmt.strip()
            # branch: control-flow condition on tainted data
            cm = re.match(r"(?:\}?\s*else\s+)?(if|while|switch|for)\b(.*)$",
                          s, re.S)
            if cm and not s.startswith("if constexpr"):
                cond = cm.group(2)
                hits = tainted_in(cond, tainted)
                if hits and "declassify" not in cond:
                    report("branch",
                           f"condition depends on secret value(s) "
                           f"{sorted(hits)}")
            if "?" in s and ":" in s and not s.startswith("case"):
                q = s.split("?")[0]
                hits = tainted_in(q, tainted)
                if hits and "declassify" not in s:
                    report("branch",
                           f"ternary condition depends on secret value(s) "
                           f"{sorted(hits)}")
            # index: tainted array subscript
            for im in INDEX_RE.finditer(s):
                hits = tainted_in(im.group(1), tainted)
                if hits:
                    report("index",
                           f"memory index depends on secret value(s) "
                           f"{sorted(hits)}")
            # divmod: variable-time operator with tainted operand
            for dm2 in DIVMOD_RE.finditer(s):
                operands = {dm2.group(1), dm2.group(3)}
                hits = operands & tainted
                if hits:
                    report("divmod",
                           f"variable-time '{dm2.group(2)}' on secret "
                           f"value(s) {sorted(hits)}")
            # call: tainted argument into an unvetted function
            for name, args in callees(s):
                bn = base_name(name)
                if bn in ok_callees or "declassify" in bn:
                    continue
                hits = tainted_in(args, tainted)
                if hits:
                    report("call",
                           f"secret value(s) {sorted(hits)} passed to "
                           f"unvetted function '{name}'")

        # wipe: raw secret locals must be wiped (unless returned)
        for var, decl_line in sorted(wipe_candidates.items()):
            if var in wiped or var in returned:
                continue
            findings.append(Finding(fn.path, decl_line, "wipe", fn.name,
                                    f"secret local '{var}' is never "
                                    f"secure_wipe()d"))
    return findings


_PUBLIC_RETURN: set[str] = set()


def _public_return(name: str) -> bool:
    return name in _PUBLIC_RETURN


def run(paths: list[pathlib.Path], baseline: set[str],
        certified: set[str]) -> tuple[list[Finding], list[Finding]]:
    all_functions: list[Function] = []
    for p in paths:
        all_functions.extend(parse_functions(p))

    analyzed = {f.name for f in all_functions
                if f.annotation.certified or f.annotation.secret_params}
    _PUBLIC_RETURN.clear()
    _PUBLIC_RETURN.update(f.name for f in all_functions
                          if f.annotation.public_return)

    findings = analyze(all_functions, analyzed, certified)
    findings += [
        Finding(f.path, f.start_line, "annot", f.name,
                f"'{f.name}' is vetted by name, but this definition carries "
                f"no ct-lint annotation, so its body is never analyzed")
        for f in all_functions
        if f.name in analyzed
        and not (f.annotation.certified or f.annotation.secret_params)]
    new = [f for f in findings
           if not any(fnmatch.fnmatch(f.key(), pat) for pat in baseline)]
    return findings, new


def default_paths(repo: pathlib.Path) -> list[pathlib.Path]:
    crypto = repo / "src" / "crypto"
    return sorted(list(crypto.glob("*.hpp")) + list(crypto.glob("*.cpp")))


def self_test(script_dir: pathlib.Path) -> int:
    fixtures = script_dir / "fixtures"
    certified = load_list(script_dir / "certified.txt")

    findings, _ = run([fixtures / "leaky.cpp"], set(), certified)
    got = sorted(f"{f.function}:{f.rule}" for f in findings)
    expected = sorted(
        line.split("#", 1)[0].strip()
        for line in (fixtures / "leaky.expected").read_text().splitlines()
        if line.split("#", 1)[0].strip())
    ok = True
    if got != expected:
        print("self-test FAILED on leaky.cpp:", file=sys.stderr)
        print(f"  expected: {expected}", file=sys.stderr)
        print(f"  got:      {got}", file=sys.stderr)
        for f in findings:
            print(f"    {f}", file=sys.stderr)
        ok = False

    clean_findings, _ = run([fixtures / "clean.cpp"], set(), certified)
    if clean_findings:
        print("self-test FAILED on clean.cpp (expected no findings):",
              file=sys.stderr)
        for f in clean_findings:
            print(f"    {f}", file=sys.stderr)
        ok = False

    if ok:
        print("ct_lint self-test passed "
              f"({len(expected)} expected findings on leaky.cpp, "
              "0 on clean.cpp)")
    return 0 if ok else 2


def main(argv: list[str]) -> int:
    script_dir = pathlib.Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to lint "
                    "(default: src/crypto/*.{hpp,cpp})")
    ap.add_argument("--repo", default=str(script_dir.parent.parent))
    ap.add_argument("--baseline", default=str(script_dir / "baseline.txt"))
    ap.add_argument("--certified", default=str(script_dir / "certified.txt"))
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(script_dir)

    repo = pathlib.Path(args.repo)
    paths = [pathlib.Path(f) for f in args.files] or default_paths(repo)
    baseline = load_list(pathlib.Path(args.baseline))
    certified = load_list(pathlib.Path(args.certified))

    findings, new = run(paths, baseline, certified)
    for f in new:
        print(f)
    suppressed = len(findings) - len(new)
    status = "clean" if not new else f"{len(new)} finding(s)"
    print(f"ct_lint: {len(paths)} file(s), {status}"
          + (f", {suppressed} baselined" if suppressed else ""))
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
