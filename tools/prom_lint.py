#!/usr/bin/env python3
"""prom_lint: Prometheus text-exposition (version 0.0.4) validator.

CI scrapes the engine's /metrics endpoint in its obs scrape smoke and
pipes the body through this linter, and ctest's prom_lint_exposition
lints engine_stats_dump's exposition; a malformed exposition fails the
build before it can fail a real monitoring stack. Stdlib only — the
point is to validate the format without importing a Prometheus client.

Checks
------
  sample-syntax     Every non-comment line parses as
                    `name{label="value",...} value [timestamp]` with
                    metric/label names matching the spec charset and
                    label values using only the sanctioned escapes
                    (\\\\, \\", \\n).
  help-type         Every sample's family has exactly one # HELP and
                    one # TYPE line, emitted before its samples, with
                    a valid type keyword.
  family-grouping   All samples of a family are contiguous (Prometheus
                    rejects interleaved families).
  series-unique     No duplicate (name, label-set) series.
  histogram-shape   For histogram families: le buckets are cumulative
                    (non-decreasing in le order), an le="+Inf" bucket
                    exists and equals _count, and _sum/_count exist.
  counter-monotone  Counter sample values are finite and >= 0.
  total-is-counter  A family whose name ends in `_total` is typed
                    counter (the suffix promises a monotone count;
                    rate() over a gauge-typed total misleads).

Exit status: 0 clean, 1 findings (printed one per line as
`LINE: RULE: message`), 2 usage error.

Usage
-----
  prom_lint.py [exposition.txt]      # file, or stdin when omitted
"""

import math
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name, optional {labels}, value, optional timestamp
SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r" ([^ ]+)"
    r"(?: (-?[0-9]+))?$"
)
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(name, histogram_families):
    """The family a sample belongs to (histogram suffixes stripped)."""
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in histogram_families:
            return name[: -len(suffix)]
    return name


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def parse_labels(raw, report):
    """Label tuple from the body between braces; None on syntax error."""
    labels = []
    rest = raw
    while rest:
        match = LABEL_PAIR.match(rest)
        if not match:
            report("sample-syntax", "malformed label pair at %r" % rest[:40])
            return None
        value = match.group(2)
        bad = re.search(r"\\(?![\\n\"])", value)
        if bad:
            report(
                "sample-syntax",
                "unsanctioned escape %r in label value (only \\\\ \\\" \\n)"
                % value[bad.start() : bad.start() + 2],
            )
            return None
        labels.append((match.group(1), value))
        rest = rest[match.end() :]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            report("sample-syntax", "expected ',' between labels at %r" % rest[:40])
            return None
    return tuple(labels)


def lint(lines):
    findings = []

    def report(lineno, rule, message):
        findings.append("%d: %s: %s" % (lineno, rule, message))

    helps = {}  # family -> lineno
    types = {}  # family -> (type, lineno)
    family_done = set()  # families whose sample run has ended
    current_family = None
    seen_series = {}  # (name, labels) -> lineno
    samples = []  # (lineno, name, labels tuple, float value)

    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not METRIC_NAME.match(name):
                    report(lineno, "help-type", "bad metric name %r" % name)
                    continue
                if parts[1] == "HELP":
                    if name in helps:
                        report(lineno, "help-type",
                               "duplicate # HELP for %s (first at line %d)"
                               % (name, helps[name]))
                    helps[name] = lineno
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in VALID_TYPES:
                        report(lineno, "help-type",
                               "invalid type %r for %s" % (kind, name))
                    if name in types:
                        report(lineno, "help-type",
                               "duplicate # TYPE for %s (first at line %d)"
                               % (name, types[name][1]))
                    types[name] = (kind, lineno)
                    if name.endswith("_total") and kind != "counter":
                        report(lineno, "total-is-counter",
                               "%s ends in _total but is typed %r"
                               % (name, kind))
            continue

        match = SAMPLE.match(line)
        if not match:
            report(lineno, "sample-syntax", "unparseable sample %r" % line[:80])
            continue
        name, raw_labels, raw_value = match.group(1), match.group(2), match.group(3)
        value = parse_value(raw_value)
        if value is None:
            report(lineno, "sample-syntax", "bad value %r" % raw_value)
            continue
        labels = parse_labels(raw_labels or "",
                              lambda rule, msg: report(lineno, rule, msg))
        if labels is None:
            continue

        histogram_families = {f for f, (k, _) in types.items() if k == "histogram"}
        family = family_of(name, histogram_families)
        if family not in helps:
            report(lineno, "help-type", "sample for %s before/without # HELP" % family)
        if family not in types:
            report(lineno, "help-type", "sample for %s before/without # TYPE" % family)
        if family != current_family:
            if family in family_done:
                report(lineno, "family-grouping",
                       "samples of %s are not contiguous" % family)
            if current_family is not None:
                family_done.add(current_family)
            current_family = family

        series = (name, labels)
        if series in seen_series:
            report(lineno, "series-unique",
                   "duplicate series %s (first at line %d)"
                   % (line.split(" ")[0], seen_series[series]))
        seen_series[series] = lineno

        kind = types.get(family, ("untyped", 0))[0]
        if kind == "counter" and not (value >= 0 and math.isfinite(value)):
            report(lineno, "counter-monotone",
                   "counter %s has non-finite/negative value %s" % (name, raw_value))
        samples.append((lineno, name, labels, value))

    histogram_families = {f for f, (k, _) in types.items() if k == "histogram"}
    for family in sorted(histogram_families):
        check_histogram(family, samples, findings)
    return findings


def check_histogram(family, samples, findings):
    """Cumulative non-decreasing buckets, +Inf == _count, sum/count exist."""
    # Group by the label set minus `le` — one histogram per labeled series.
    buckets = {}  # base labels -> list of (lineno, le value, sample value)
    counts = {}
    sums = {}
    for lineno, name, labels, value in samples:
        base = tuple(kv for kv in labels if kv[0] != "le")
        if name == family + "_bucket":
            le = dict(labels).get("le")
            if le is None:
                findings.append("%d: histogram-shape: %s_bucket without le"
                                % (lineno, family))
                continue
            buckets.setdefault(base, []).append((lineno, parse_value(le), value))
        elif name == family + "_count":
            counts[base] = (lineno, value)
        elif name == family + "_sum":
            sums[base] = (lineno, value)

    for base, rows in sorted(buckets.items()):
        label_text = "{%s}" % ",".join("%s=%r" % kv for kv in base) if base else ""
        previous = -1.0
        saw_inf = False
        last = 0.0
        for lineno, le, value in rows:  # exposition order == le order
            if le is None:
                findings.append("%d: histogram-shape: %s%s has unparseable le"
                                % (lineno, family, label_text))
                continue
            if value < previous:
                findings.append(
                    "%d: histogram-shape: %s%s buckets not cumulative "
                    "(le=%g count %g < previous %g)"
                    % (lineno, family, label_text, le, value, previous))
            previous = value
            last = value
            if math.isinf(le):
                saw_inf = True
        lineno = rows[-1][0]
        if not saw_inf:
            findings.append('%d: histogram-shape: %s%s missing le="+Inf" bucket'
                            % (lineno, family, label_text))
        if base not in counts:
            findings.append("%d: histogram-shape: %s%s missing _count"
                            % (lineno, family, label_text))
        elif saw_inf and counts[base][1] != last:
            findings.append(
                "%d: histogram-shape: %s%s +Inf bucket %g != _count %g"
                % (counts[base][0], family, label_text, last, counts[base][1]))
        if base not in sums:
            findings.append("%d: histogram-shape: %s%s missing _sum"
                            % (lineno, family, label_text))


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(argv) == 2:
        with open(argv[1], "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    findings = lint(lines)
    for finding in findings:
        print(finding)
    if findings:
        print("prom_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("prom_lint: clean (%d lines)" % len(lines), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
