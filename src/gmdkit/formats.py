"""Text and CSV renderings of a command's report.

``cli.render`` writes JSON itself and imports this module only for
``--format text`` and ``--format csv``, so a JSON run does not load it.
"""

from __future__ import annotations

import csv
import io


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_csv(report: dict) -> str:
    command = report["command"]
    table = {
        "delta": ("cells", ("t", "ell", "value", "status", "method", "convention")),
        "stabilize": (
            "rows",
            ("ell", "value", "case", "regularity_index", "regularity_exact", "regularity_method"),
        ),
    }.get(command)
    if table is not None:
        entries, keys = table
        return _csv_text(keys, [[entry[k] for k in keys] for entry in report[entries]])
    if command == "ghw":
        rows = []
        for entry in report["codes"]:
            for w in entry["weights"]:
                rows.append(
                    ("" if entry["t"] is None else entry["t"], w["r"], w["value"], w["strategy"])
                )
        return _csv_text(("t", "r", "value", "strategy"), rows)
    if command == "sr-info":
        keys = (
            "vertices", "complex_dim", "ring_dim", "multiplicity", "depth",
            "regularity", "proj_connected", "shellable",
        )
        return _csv_text(("key", "value"), [(k, report[k]) for k in keys])
    if report.get("input_kind") == "builtin-suite":
        rows = []
        for section, entries in sorted(report["sections"].items()):
            for entry in entries:
                if section == "rings":
                    rows.append((section, entry["name"], "equivalence",
                                 "pass" if not entry["disagreements"] else "fail"))
                    for v in entry["verdicts"]:
                        rows.append((section, entry["name"], v["name"], v["status"]))
                elif section == "complexes":
                    rows.append((section, entry["name"], "hilbert",
                                 "pass" if entry["hilbert_ok"] else "fail"))
                    rows.append((section, entry["name"], "depth-connectivity",
                                 "pass" if entry["depth_connectivity_ok"] else "fail"))
                    for v in entry["verdicts"] or ():
                        rows.append((section, entry["name"], v["name"], v["status"]))
                else:
                    rows.append((section, entry["name"], "bridge",
                                 "pass" if entry["all_agree"] else "fail"))
        return _csv_text(("section", "member", "check", "status"), rows)
    rows = [("verdict", v["name"], v["status"], v["detail"]) for v in report["verdicts"]]
    for r in report.get("bridge", ()):
        rows.append(
            ("bridge", f"t={r['t']},l={r['ell']}", "pass" if r["agree"] else "fail",
             f"delta={r['delta']} ghw={r['ghw']}")
        )
    return _csv_text(("kind", "name", "status", "detail"), rows)


def _grid_text(report: dict) -> str:
    cells = report["cells"]
    ts = sorted({c["t"] for c in cells})
    ells = sorted({c["ell"] for c in cells})
    value = {(c["t"], c["ell"]): c for c in cells}
    width = max(
        [len(str(c["value"])) + (1 if c["status"] == "empty" else 0) for c in cells] + [5]
    )
    lines = [
        "distance table: convention={} method={} classification={}".format(
            report["convention"], report["method"], report["ring"]["classification"]
        )
    ]
    header = "    " + " ".join(f"l={ell}".rjust(width) for ell in ells)
    lines.append(header)
    for t in ts:
        row = [f"t={t}".ljust(4)]
        for ell in ells:
            c = value[(t, ell)]
            text = str(c["value"]) + ("*" if c["status"] == "empty" else "")
            row.append(text.rjust(width))
        lines.append(row[0] + " ".join(row[1:]))
    if any(c["status"] == "empty" for c in cells):
        lines.append("* no qualifying subspace at this degree; the value is e(R)")
    return "\n".join(lines) + "\n"


def render_text(report: dict) -> str:
    command = report["command"]
    if command == "delta":
        return _grid_text(report)
    if command == "stabilize":
        ring = report["ring"]
        lines = [
            "stabilization: classification={} e={}".format(
                ring["classification"], ring["multiplicity"]
            )
        ]
        for r in report["rows"]:
            lines.append(
                "l={}: limit {} (case {}), first reached at t={} [{}, exact]".format(
                    r["ell"], r["value"], r["case"], r["regularity_index"], r["regularity_method"],
                )
            )
        return "\n".join(lines) + "\n"
    if command == "ghw":
        lines = []
        for entry in report["codes"]:
            label = "generator input" if entry["t"] is None else f"degree t={entry['t']}"
            mono = "strictly increasing" if entry["strictly_increasing"] else "NOT strictly increasing"
            weights = ", ".join(f"r={w['r']} -> {w['value']}" for w in entry["weights"])
            lines.append(
                f"[{entry['length']},{entry['dimension']}] code ({label}): {weights} ({mono})"
            )
        return "\n".join(lines) + "\n"
    if command == "sr-info":
        keys = (
            "vertices", "complex_dim", "ring_dim", "multiplicity", "f_vector", "depth",
            "regularity", "proj_connected", "shellable", "shelling_order", "hilbert",
        )
        lines = [f"{k}: {report[k]}" for k in keys]
        return "\n".join(lines) + "\n"
    lines = []
    if report.get("input_kind") == "builtin-suite":
        for section, entries in sorted(report["sections"].items()):
            for entry in entries:
                if section == "rings":
                    eq = "pass" if not entry["disagreements"] else "fail"
                    lines.append(
                        f"[rings/{entry['name']}] equivalence: {eq} "
                        f"({entry['cells_checked']} cells)"
                    )
                    for v in entry["verdicts"]:
                        lines.append(f"[rings/{entry['name']}] {v['name']}: {v['status']}")
                elif section == "complexes":
                    lines.append(
                        "[complexes/{}] hilbert: {}, depth-connectivity: {}".format(
                            entry["name"],
                            "pass" if entry["hilbert_ok"] else "fail",
                            "pass" if entry["depth_connectivity_ok"] else "fail",
                        )
                    )
                    for v in entry["verdicts"] or ():
                        lines.append(f"[complexes/{entry['name']}] {v['name']}: {v['status']}")
                else:
                    lines.append(
                        "[bridge/{}] {}: {}".format(
                            entry["name"],
                            f"{len(entry['cases'])} cases",
                            "pass" if entry["all_agree"] else "fail",
                        )
                    )
    else:
        for v in report["verdicts"]:
            lines.append(f"{v['name']}: {v['status']} ({v['detail']})")
        for r in report.get("bridge", ()):
            lines.append(
                "bridge t={} l={}: delta={} ghw={} {}".format(
                    r["t"], r["ell"], r["delta"], r["ghw"],
                    "agree" if r["agree"] else "DISAGREE",
                )
            )
    if "pass" in report:
        lines.append("RESULT: {}".format("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"
