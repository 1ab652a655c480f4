#!/usr/bin/env python3
"""dp_lint: differential-privacy invariant linter for the Blowfish engine.

The engine's DP guarantees rest on conventions that no compiler checks:
every random draw flows through `blowfish::Rng`, epsilon arithmetic stays
inside the budget classes, noise is drawn only after the ledger charge
lands, raw data never reaches a log line, and multi-shard locks are taken
in ascending index order (which is also what makes the epsilon audit log
replayable). This tool turns those conventions into named, machine-checked
rules that run blocking in CI.

Rules
-----
  rng-discipline      No `rand`/`srand`, `std::random_device`, or <random>
                      engines outside src/rng/. `Rng` (xoshiro256++ seeded
                      via splitmix64) is the only sanctioned randomness;
                      `Rng::EntropySeed()` is the only sanctioned
                      nondeterminism source.
  epsilon-confinement No raw arithmetic on epsilon/budget *fields* outside
                      PrivacyBudget (src/mech/budget.*) and
                      BudgetAccountant (src/engine/budget_accountant.*).
                      Mechanism noise-scale math on an epsilon *parameter*
                      (e.g. sensitivity / epsilon) is intrinsic to the
                      mechanism's guarantee and is not flagged.
  charge-before-noise In src/engine/, a function that constructs an `Rng`
                      or draws from one must reach a Charge/Spend earlier
                      in the same function, or carry an explicit
                      `dp-lint: allow(charge-before-noise) <reason>`
                      declaring itself a post-admission executor.
  no-raw-data-logging No dataset / x-hat / answer-payload values flowing
                      into BF_LOG lines or Status messages. Metadata
                      (sizes, epsilon totals, ledger balances) is fine;
                      the data vector itself is not.
  lock-order          Multi-shard lock acquisition must be index-sorted:
                      no multi-argument scoped_lock / std::lock over shard
                      mutexes, no descending literal shard-index locks.
  journal-before-admit In src/engine/, a function that commits a ledger
                      spend (Spend on a budget) must reach a write-ahead
                      journal append
                      (AppendJournal*/->AppendCharge) earlier in the same
                      function — the crash journal's fail-closed invariant:
                      a spend record is durable before the charge commits.
                      Probes (CanSpend) and recovery (RestoreSpent) are
                      not commits and do not trip the rule.

Escape hatch
------------
A violation line (or the line directly above it) may carry

    // dp-lint: allow(<rule>) <reason>

The reason is mandatory; an `allow(...)` with no reason is itself reported
(rule `escape-hygiene`). Escapes are grep-able and reviewed like any other
diff — they are the documented exception path, not a back door.

Fixture pragma
--------------
Fixture files under tests/lint/ may declare

    // dp-lint: treat-as <virtual/path.cc>

within their first ten lines; path-scoped rules (rng-discipline's src/rng/
exemption, epsilon-confinement's budget-class exemption, charge-before-
noise's src/engine/ scope) then apply as if the file lived at that path.

Modes
-----
  --mode auto   (default) use libclang if importable, else regex
  --mode ast    require libclang (clang.cindex); error if missing
  --mode regex  pure-regex analysis, no dependencies

The AST mode refines rng-discipline and epsilon-confinement with real
token/cursor information; the remaining rules always use the regex engine
(their patterns are structural, not expression-level). Both modes report
identical rule names and exit codes, so CI can run either.

Usage
-----
  python3 tools/dp_lint.py [--mode M] [paths...]     # default: src tools
  python3 tools/dp_lint.py --self-test               # run fixture corpus
  python3 tools/dp_lint.py --list-rules

Exit codes: 0 clean / fixtures pass, 1 violations / fixture failure,
2 usage or environment error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp", ".cxx")

# Paths (relative, forward slashes) exempt per rule.
RNG_SANCTUARY = ("src/rng/",)
EPSILON_SANCTUARY = (
    "src/mech/budget.",
    "src/engine/budget_accountant.",
    # The write-ahead spend journal is the durable half of the
    # accounting layer: recovery replays `spent += epsilon` to rebuild
    # the exact balances the budget classes held before a crash.
    "src/engine/ledger_journal.",
)
ENGINE_SCOPE = ("src/engine/",)

ALLOW_RE = re.compile(r"dp-lint:\s*allow\(([a-z0-9-]+)\)\s*(.*)")
TREAT_AS_RE = re.compile(r"dp-lint:\s*treat-as\s+(\S+)")


@dataclass
class Violation:
    rule: str
    path: str
    line: int  # 1-based
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One file, with comments/strings blanked for pattern matching."""

    path: str            # path as given on the command line
    virtual_path: str    # path used for rule scoping (treat-as pragma)
    raw_lines: List[str]
    code_lines: List[str]  # comments and string literals blanked
    # line (1-based) -> (rule, reason) for dp-lint: allow escapes
    allows: Dict[int, Tuple[str, str]] = field(default_factory=dict)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces so column/line arithmetic on the
    result maps back to the original file.
    """
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STR
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in (STR, CHR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def load_file(path: str) -> Optional[SourceFile]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        print(f"dp_lint: cannot read {path}: {err}", file=sys.stderr)
        return None
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    # Pad: splitlines drops a trailing empty segment symmetrically, but
    # guard against blanking changing the count.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(os.sep, "/")
    virtual = rel
    for line in raw_lines[:10]:
        m = TREAT_AS_RE.search(line)
        if m:
            virtual = m.group(1)
            break

    sf = SourceFile(path=rel, virtual_path=virtual, raw_lines=raw_lines,
                    code_lines=code_lines)
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            sf.allows[idx] = (m.group(1), m.group(2).strip())
    return sf


def allowed(sf: SourceFile, rule: str, line: int) -> Optional[bool]:
    """None: no escape. True: valid escape. False: escape missing reason."""
    for probe in (line, line - 1):
        entry = sf.allows.get(probe)
        if entry and entry[0] == rule:
            return bool(entry[1])
    return None


def in_scope(sf: SourceFile, prefixes: Sequence[str]) -> bool:
    return any(sf.virtual_path.startswith(p) for p in prefixes)


def report(sf: SourceFile, rule: str, line: int, message: str,
           out: List[Violation]) -> None:
    esc = allowed(sf, rule, line)
    if esc is True:
        return
    if esc is False:
        out.append(Violation(
            "escape-hygiene", sf.path, line,
            f"dp-lint: allow({rule}) must carry a reason after the ')'"))
        return
    out.append(Violation(rule, sf.path, line, message))


# --------------------------------------------------------------------------
# rule: rng-discipline
# --------------------------------------------------------------------------

RNG_BANNED = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
     "libc rand()/srand() bypasses Rng (xoshiro256++); use blowfish::Rng"),
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "std::random_device outside src/rng/; Rng::EntropySeed() is the only "
     "sanctioned nondeterminism source"),
    (re.compile(r"\bstd\s*::\s*(mt19937(?:_64)?|minstd_rand0?|"
                r"default_random_engine|ranlux\w*|knuth_b|"
                r"subtract_with_carry_engine|mersenne_twister_engine|"
                r"linear_congruential_engine)\b"),
     "<random> engine outside src/rng/; use blowfish::Rng"),
    (re.compile(r"\bstd\s*::\s*random_shuffle\b"),
     "std::random_shuffle draws from an unsanctioned engine"),
]
RNG_INCLUDE = re.compile(r"#\s*include\s*<random>")


def check_rng_discipline(sf: SourceFile, out: List[Violation]) -> None:
    if in_scope(sf, RNG_SANCTUARY):
        return
    for idx, code in enumerate(sf.code_lines, start=1):
        # The include directive survives stripping (it is not a string).
        if RNG_INCLUDE.search(code):
            report(sf, "rng-discipline", idx,
                   "#include <random> outside src/rng/", out)
        for pat, why in RNG_BANNED:
            if pat.search(code):
                report(sf, "rng-discipline", idx, why, out)


# --------------------------------------------------------------------------
# rule: epsilon-confinement
# --------------------------------------------------------------------------

# Compound arithmetic assignment to an epsilon/budget-named field or
# variable: `eps_sum += ...`, `spent_ -= ...`, `budget_used *= ...`.
EPS_COMPOUND = re.compile(
    r"\b(eps\w*|epsilon\w*|budget\w*|spent\w*)\s*[-+*/]=")
# Binary arithmetic with a member-accessed epsilon field as an operand:
# `x.eps_sum + y`, `a + b->epsilon_total`. The lookahead rejects `->`
# (member access through pointer) and `/=`-style tokens already covered
# above; `++`/`--` are rejected by the lookahead as well.
EPS_MEMBER_LHS = re.compile(
    r"(?:\.|->)(eps\w*|epsilon\w*)\s*[-+*/](?![>=/*+-])")
EPS_MEMBER_RHS = re.compile(
    r"[-+*/](?![>=/*+-])\s*[\w\]\)]+(?:\.|->)(eps\w*|epsilon\w*)\b")
EPS_INCDEC = re.compile(r"(\+\+|--)\s*\w*(?:\.|->)?(eps\w*|epsilon\w*)\b|"
                        r"\b(eps\w*|epsilon\w*)\s*(\+\+|--)")


def check_epsilon_confinement(sf: SourceFile, out: List[Violation]) -> None:
    if in_scope(sf, EPSILON_SANCTUARY):
        return
    msg = ("arithmetic on an epsilon/budget field outside "
           "PrivacyBudget/BudgetAccountant; route composition through the "
           "budget classes or add a reasoned dp-lint allow escape")
    for idx, code in enumerate(sf.code_lines, start=1):
        if (EPS_COMPOUND.search(code) or EPS_MEMBER_LHS.search(code)
                or EPS_MEMBER_RHS.search(code) or EPS_INCDEC.search(code)):
            report(sf, "epsilon-confinement", idx, msg, out)


# --------------------------------------------------------------------------
# function segmentation (shared by charge-before-noise and lock-order)
# --------------------------------------------------------------------------

FUNC_NAME = re.compile(r"([A-Za-z_~]\w*)\s*\(")
NON_FUNC_STARTERS = ("namespace", "class", "struct", "enum", "union",
                     "using", "typedef", "template", "#", "extern",
                     "public", "private", "protected", "}", "{")


def segment_functions(sf: SourceFile) -> List[Tuple[str, int, int]]:
    """Approximate top-level function bodies: (name, first_line, last_line).

    Brace-depth tracker over the comment/string-stripped text. A function
    candidate starts at a column-0 line containing a call-like name before
    a '(' and ends when its braces re-balance; a ';' before any '{' marks
    a declaration (or namespace-scope initializer) and drops the candidate.
    """
    funcs: List[Tuple[str, int, int]] = []
    depth = 0
    name: Optional[str] = None
    start = 0
    entry_depth = 0
    body_opened = False
    for idx, code in enumerate(sf.code_lines, start=1):
        stripped = code.strip()
        if name is None and code and not code[0].isspace() and "(" in code \
                and not stripped.startswith(NON_FUNC_STARTERS):
            head = code.split("(", 1)[0] + "("
            matches = FUNC_NAME.findall(head)
            if matches and "=" not in head:
                name = matches[-1]
                start = idx
                entry_depth = depth
                body_opened = False
        depth += code.count("{") - code.count("}")
        if name is not None:
            if "{" in code:
                body_opened = True
            if body_opened and depth <= entry_depth:
                funcs.append((name, start, idx))
                name = None
            elif not body_opened and ";" in code:
                name = None  # declaration, not a definition
    if name is not None:
        funcs.append((name, start, len(sf.code_lines)))
    return funcs


# --------------------------------------------------------------------------
# rule: charge-before-noise
# --------------------------------------------------------------------------

CHARGE_SITE = re.compile(
    r"(?:\.|->)(?:Charge|Spend(?:Tagged|Parallel)?)\s*\(|"
    r"\bAdmit(?:Stream)?\s*\(")
RNG_SITE = re.compile(
    r"\bRng\s+\w+\s*[({]|"
    r"\brng\s*(?:\.|->)\s*(?:Laplace|Normal|Gaussian|Uniform\w*|"
    r"Next\w*|Exponential)\s*\(")


def check_charge_before_noise(sf: SourceFile, out: List[Violation]) -> None:
    if not in_scope(sf, ENGINE_SCOPE):
        return
    if not sf.virtual_path.endswith((".cc", ".cpp", ".cxx")):
        return
    for name, first, last in segment_functions(sf):
        first_charge = None
        first_rng = None
        for idx in range(first, last + 1):
            code = sf.code_lines[idx - 1]
            if first_charge is None and CHARGE_SITE.search(code):
                first_charge = idx
            if first_rng is None and RNG_SITE.search(code):
                first_rng = idx
        if first_rng is None:
            continue
        if first_charge is None:
            report(sf, "charge-before-noise", first_rng,
                   f"{name}() draws from Rng with no Charge/Spend in the "
                   "function; charge first, or declare a post-admission "
                   "executor via a reasoned dp-lint allow escape", out)
        elif first_rng < first_charge:
            report(sf, "charge-before-noise", first_rng,
                   f"{name}() draws from Rng before the ledger Charge; "
                   "noise must be drawn only after the charge lands", out)


# --------------------------------------------------------------------------
# rule: journal-before-admit
# --------------------------------------------------------------------------

# A spend-commit: the point where budget actually leaves a ledger. The
# name must start with Spend directly after the member access, so
# CanSpend (a probe) and RestoreSpent (journal recovery) do not match.
SPEND_COMMIT_SITE = re.compile(r"(?:\.|->)\s*Spend(?:Tagged|Parallel)?\s*\(")
# A write-ahead journal append: the accountant's helper (named so this
# rule can see it) or the journal's own append entry point.
JOURNAL_SITE = re.compile(
    r"\bAppendJournal\w*\s*\(|(?:\.|->)\s*AppendCharge\s*\(")


def check_journal_before_admit(sf: SourceFile, out: List[Violation]) -> None:
    if not in_scope(sf, ENGINE_SCOPE):
        return
    if not sf.virtual_path.endswith((".cc", ".cpp", ".cxx")):
        return
    for name, first, last in segment_functions(sf):
        first_spend = None
        first_journal = None
        for idx in range(first, last + 1):
            code = sf.code_lines[idx - 1]
            if first_journal is None and JOURNAL_SITE.search(code):
                first_journal = idx
            if first_spend is None and SPEND_COMMIT_SITE.search(code):
                first_spend = idx
        if first_spend is None:
            continue
        if first_journal is None:
            report(sf, "journal-before-admit", first_spend,
                   f"{name}() commits a ledger spend with no write-ahead "
                   "journal append in the function; append (and fsync) the "
                   "spend record before any ledger commits, or carry a "
                   "reasoned dp-lint allow escape", out)
        elif first_spend < first_journal:
            report(sf, "journal-before-admit", first_spend,
                   f"{name}() commits a ledger spend before the journal "
                   "append; the spend record must be durable before the "
                   "charge commits", out)


# --------------------------------------------------------------------------
# rule: no-raw-data-logging
# --------------------------------------------------------------------------

LOG_SINK = re.compile(r"\bBF_LOG\s*\(|\bLogLine\s*\(|"
                      r"\bStatus\s*::\s*[A-Z]\w*\s*\(|"
                      r"\bStatus\s*\(\s*StatusCode")
DATA_PAYLOAD = re.compile(
    r"\bx_?hat\b|\bxhat\w*\[|(?:\.|->)data\s*\[|\bentry\.data\b|"
    r"(?:\.|->)values\s*\[|\bdataset\w*\s*\[|(?:\.|->)counts\s*\[|"
    r"\bnoisy\w*\s*\[|(?:\.|->)xg\b")


def check_no_raw_data_logging(sf: SourceFile, out: List[Violation]) -> None:
    for idx, code in enumerate(sf.code_lines, start=1):
        if not LOG_SINK.search(code):
            continue
        # A log/status statement may span lines; scan to the terminating
        # semicolon at the same paren depth (bounded lookahead).
        stmt_lines = [code]
        j = idx
        while ";" not in stmt_lines[-1] and j < len(sf.code_lines) and \
                j - idx < 8:
            j += 1
            stmt_lines.append(sf.code_lines[j - 1])
        stmt = " ".join(stmt_lines)
        if DATA_PAYLOAD.search(stmt):
            report(sf, "no-raw-data-logging", idx,
                   "dataset / x-hat / answer-payload value flows into a "
                   "log line or Status message; log metadata (sizes, "
                   "epsilon, balances), never the data", out)


# --------------------------------------------------------------------------
# rule: lock-order
# --------------------------------------------------------------------------

MULTI_SCOPED_LOCK = re.compile(
    r"\bstd\s*::\s*scoped_lock\b[^;(]*\(([^;]*)\)|\bstd\s*::\s*lock\s*\(([^;]*)\)")
SHARD_MU = re.compile(r"\bshards?_?\s*\[\s*([^\]]+?)\s*\]\s*\.\s*mu\b")
LOCKISH = re.compile(r"lock", re.IGNORECASE)
INT_LITERAL = re.compile(r"^\d+$")


def check_lock_order(sf: SourceFile, out: List[Violation]) -> None:
    for name, first, last in segment_functions(sf):
        literal_seq: List[Tuple[int, int]] = []  # (line, index literal)
        for idx in range(first, last + 1):
            code = sf.code_lines[idx - 1]
            m = MULTI_SCOPED_LOCK.search(code)
            if m:
                args = m.group(1) or m.group(2) or ""
                refs = SHARD_MU.findall(args)
                if len(refs) >= 2:
                    lits = [int(r) for r in refs if INT_LITERAL.match(r)]
                    if len(lits) < len(refs) or lits != sorted(lits):
                        report(
                            sf, "lock-order", idx,
                            f"{name}() acquires multiple shard locks in one "
                            "scoped_lock/std::lock; acquire via an "
                            "ascending-index loop so the audit log order is "
                            "deterministic", out)
                    continue
            if LOCKISH.search(code):
                for mm in SHARD_MU.finditer(code):
                    if INT_LITERAL.match(mm.group(1)):
                        literal_seq.append((idx, int(mm.group(1))))
        for (l_a, a), (l_b, b) in zip(literal_seq, literal_seq[1:]):
            if b < a:
                report(sf, "lock-order", l_b,
                       f"{name}() locks shard {b} after shard {a}; "
                       "multi-shard acquisition must be index-sorted", out)


# --------------------------------------------------------------------------
# optional AST refinement (libclang)
# --------------------------------------------------------------------------

def try_load_libclang():
    try:
        from clang import cindex  # type: ignore
        try:
            cindex.Index.create()
        except Exception:
            return None
        return cindex
    except Exception:
        return None


def ast_check_file(cindex, sf: SourceFile, out: List[Violation]) -> bool:
    """AST-backed rng-discipline + epsilon-confinement. Returns False when
    parsing fails (caller falls back to regex for these two rules)."""
    try:
        index = cindex.Index.create()
        tu = index.parse(sf.path, args=["-std=c++17", "-I" + REPO_ROOT,
                                        "-I" + os.path.join(REPO_ROOT, "src")])
    except Exception:
        return False
    if tu is None:
        return False

    banned_refs = {"rand", "srand", "random_device", "mt19937", "mt19937_64",
                   "minstd_rand", "minstd_rand0", "default_random_engine",
                   "random_shuffle"}
    eps_field = re.compile(r"^(eps|epsilon|budget|spent)\w*$")
    arith_ops = {"+", "-", "*", "/", "+=", "-=", "*=", "/=", "++", "--"}

    def walk(node):
        try:
            loc = node.location
            if loc.file is None or os.path.abspath(str(loc.file)) != \
                    os.path.abspath(sf.path):
                for child in node.get_children():
                    walk(child)
                return
        except Exception:
            return
        kind = node.kind
        if not in_scope(sf, RNG_SANCTUARY) and kind in (
                cindex.CursorKind.DECL_REF_EXPR,
                cindex.CursorKind.TYPE_REF,
                cindex.CursorKind.CALL_EXPR):
            if node.spelling in banned_refs:
                report(sf, "rng-discipline", loc.line,
                       f"'{node.spelling}' outside src/rng/; use "
                       "blowfish::Rng", out)
        if not in_scope(sf, EPSILON_SANCTUARY) and kind in (
                cindex.CursorKind.BINARY_OPERATOR,
                cindex.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
                cindex.CursorKind.UNARY_OPERATOR):
            tokens = [t.spelling for t in node.get_tokens()]
            if any(t in arith_ops for t in tokens):
                for child in node.walk_preorder():
                    if child.kind == cindex.CursorKind.MEMBER_REF_EXPR and \
                            eps_field.match(child.spelling or ""):
                        report(sf, "epsilon-confinement", loc.line,
                               f"arithmetic on epsilon/budget field "
                               f"'{child.spelling}' outside the budget "
                               "classes", out)
                        break
        for child in node.get_children():
            walk(child)

    walk(tu.cursor)
    return True


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

REGEX_RULES: List[Tuple[str, Callable[[SourceFile, List[Violation]], None]]] = [
    ("rng-discipline", check_rng_discipline),
    ("epsilon-confinement", check_epsilon_confinement),
    ("charge-before-noise", check_charge_before_noise),
    ("journal-before-admit", check_journal_before_admit),
    ("no-raw-data-logging", check_no_raw_data_logging),
    ("lock-order", check_lock_order),
]

AST_COVERED = {"rng-discipline", "epsilon-confinement"}


def lint_file(path: str, mode: str, cindex) -> List[Violation]:
    sf = load_file(path)
    if sf is None:
        return []
    out: List[Violation] = []
    ast_ok = False
    if mode in ("ast", "auto") and cindex is not None:
        ast_ok = ast_check_file(cindex, sf, out)
    for rule, check in REGEX_RULES:
        if ast_ok and rule in AST_COVERED:
            continue
        check(sf, out)
    return out


def collect_paths(roots: Sequence[str]) -> List[str]:
    files: List[str] = []
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(CXX_EXTENSIONS):
                files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            rel = os.path.relpath(dirpath, REPO_ROOT).replace(os.sep, "/")
            # Fixture corpus intentionally violates rules; build trees and
            # third-party checkouts are not ours to lint.
            if rel.startswith(("tests/lint", "build", "third_party")):
                dirnames[:] = []
                continue
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, fn))
    return files


def run_self_test(mode: str, cindex) -> int:
    fixture_dir = os.path.join(REPO_ROOT, "tests", "lint")
    if not os.path.isdir(fixture_dir):
        print(f"dp_lint: fixture dir missing: {fixture_dir}", file=sys.stderr)
        return 2
    fixtures = sorted(f for f in os.listdir(fixture_dir)
                      if f.endswith(CXX_EXTENSIONS))
    if not fixtures:
        print("dp_lint: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for fn in fixtures:
        stem = os.path.splitext(fn)[0]
        if stem.endswith("_bad"):
            expect_fire, rule = True, stem[:-len("_bad")]
        elif stem.endswith("_good"):
            expect_fire, rule = False, stem[:-len("_good")]
        else:
            print(f"SKIP  {fn} (name must end _bad/_good)")
            continue
        rule = re.sub(r"_exempt$", "", rule).replace("_", "-")
        violations = lint_file(os.path.join(fixture_dir, fn), mode, cindex)
        fired = [v for v in violations if v.rule == rule]
        others = [v for v in violations if v.rule != rule]
        ok = (bool(fired) if expect_fire else not fired) and not others
        status = "PASS " if ok else "FAIL "
        want = f"fires {rule}" if expect_fire else f"quiet on {rule}"
        print(f"{status}{fn}: expected {want}; got "
              f"{len(fired)} {rule} + {len(others)} other")
        for v in violations if not ok else []:
            print("      " + v.render())
        if not ok:
            failures += 1
    print(f"dp_lint self-test: {len(fixtures) - failures}/{len(fixtures)} "
          f"fixtures pass")
    return 1 if failures else 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="dp_lint.py", add_help=True)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tools)")
    parser.add_argument("--mode", choices=("auto", "ast", "regex"),
                        default="auto")
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests/lint/ fixture corpus")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, _ in REGEX_RULES:
            print(rule)
        print("escape-hygiene")
        return 0

    cindex = None
    if args.mode in ("auto", "ast"):
        cindex = try_load_libclang()
        if cindex is None and args.mode == "ast":
            print("dp_lint: --mode ast requires python libclang "
                  "(clang.cindex); install clang bindings or use "
                  "--mode regex", file=sys.stderr)
            return 2
        if cindex is None and args.mode == "auto":
            print("dp_lint: libclang unavailable; using regex engine",
                  file=sys.stderr)

    if args.self_test:
        return run_self_test(args.mode, cindex)

    roots = args.paths or [os.path.join(REPO_ROOT, "src"),
                           os.path.join(REPO_ROOT, "tools")]
    files = collect_paths(roots)
    if not files:
        print("dp_lint: no C++ sources found under: " + " ".join(roots),
              file=sys.stderr)
        return 2
    violations: List[Violation] = []
    for path in files:
        violations.extend(lint_file(path, args.mode, cindex))
    for v in violations:
        print(v.render())
    print(f"dp_lint: {len(files)} files, {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
