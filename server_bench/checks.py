"""Output checks made apart from the program.

The benchmark keeps its own copy of every session's facts and evaluates
q(D) and q(Dx) with the small CQ¬ evaluator below, which shares no code with
the shapcq library. Reports are parsed from the protocol text and checked
against it: exact tables by the efficiency axiom (printed total and the sum
of a full table both equal q(D) - q(Dx)) and by their order; approximate
tables by the properties the sampling method must have.
"""

import re
from fractions import Fraction

_ATOM = re.compile(r"(not\s+)?([A-Za-z_]\w*)\(([^)]*)\)")


class Atom:
    def __init__(self, relation, negated, terms):
        self.relation = relation
        self.negated = negated
        # Each term is ("var", name) or ("const", value).
        self.terms = terms

    def variables(self):
        return {name for kind, name in self.terms if kind == "var"}


def parse_query(text):
    """Parses a rule "q() :- R(x), not S(x,'c')" into a list of Atoms."""
    body = text.split(":-", 1)[1]
    atoms = []
    for negated, relation, args in _ATOM.findall(body):
        terms = []
        for raw in args.split(","):
            raw = raw.strip()
            if raw.startswith("'") and raw.endswith("'"):
                terms.append(("const", raw[1:-1]))
            elif raw[:1].isdigit() or raw[:1] == "-":
                terms.append(("const", raw))
            else:
                terms.append(("var", raw))
        atoms.append(Atom(relation, bool(negated), terms))
    if not atoms:
        raise ValueError("no atoms in query: " + text)
    return atoms


def fact_literal(relation, values, endogenous):
    return "%s(%s)%s" % (relation, ",".join(values), "*" if endogenous else "")


class Evaluator:
    """Boolean evaluation of one safe CQ¬ by indexed backtracking."""

    def __init__(self, query_text):
        atoms = parse_query(query_text)
        positives = [a for a in atoms if not a.negated]
        negatives = [a for a in atoms if a.negated]
        # Greedy join order: next the positive atom sharing the most bound
        # variables, ties by fewest unbound ones.
        order, bound = [], set()
        remaining = list(positives)
        while remaining:
            best = max(remaining, key=lambda a: (len(a.variables() & bound),
                                                 -len(a.variables() - bound)))
            remaining.remove(best)
            order.append(best)
            bound |= best.variables()
        unbound = set().union(*(a.variables() for a in negatives)) - bound
        if unbound:
            raise ValueError("unsafe query: " + query_text)
        # Each negated atom is checked right after its last variable binds.
        self._steps = []
        bound = set()
        pending = list(negatives)
        for atom in order:
            key_positions = [i for i, (kind, name) in enumerate(atom.terms)
                             if kind == "const" or name in bound]
            bound |= atom.variables()
            ready = [a for a in pending if a.variables() <= bound]
            pending = [a for a in pending if a not in ready]
            self._steps.append((atom, key_positions, ready))
        self._ground_negatives = pending  # variable-free negated atoms

    def holds(self, facts):
        """facts: relation -> set of tuples (the database to evaluate on)."""
        indexes = []
        for atom, key_positions, _ in self._steps:
            index = {}
            for row in facts.get(atom.relation, ()):
                if len(row) != len(atom.terms):
                    continue
                key = tuple(row[i] for i in key_positions)
                index.setdefault(key, []).append(row)
            indexes.append(index)

        def value(term, binding):
            kind, name = term
            return binding[name] if kind == "var" else name

        def absent(atom, binding):
            row = tuple(value(t, binding) for t in atom.terms)
            return row not in facts.get(atom.relation, ())

        if not all(absent(a, {}) for a in self._ground_negatives):
            return False

        def search(step, binding):
            if step == len(self._steps):
                return True
            atom, key_positions, ready = self._steps[step]
            key = tuple(value(atom.terms[i], binding) for i in key_positions)
            for row in indexes[step].get(key, ()):
                extended = dict(binding)
                consistent = True
                for (kind, name), item in zip(atom.terms, row):
                    if kind == "var":
                        if extended.setdefault(name, item) != item:
                            consistent = False
                            break
                    elif name != item:
                        consistent = False
                        break
                if not consistent:
                    continue
                if all(absent(a, extended) for a in ready):
                    if search(step + 1, extended):
                        return True
            return False

        return search(0, {})

    def efficiency_total(self, database):
        """q(D) - q(Dx) for database: literal-free {(rel, tuple): endo}."""
        full, exogenous = {}, {}
        for (relation, values), endogenous in database.items():
            full.setdefault(relation, set()).add(values)
            if not endogenous:
                exogenous.setdefault(relation, set()).add(values)
        return int(self.holds(full)) - int(self.holds(exogenous))


class Report:
    """One parsed REPORT response."""

    def __init__(self):
        self.rows_header = None
        self.endo_header = None
        self.approx = None  # dict of the "approx:" line's fields
        self.rows = []      # (fact, value_text, value, decimal, ci, samples)
        self.total_text = None


def parse_report(session, lines):
    """Parses the lines after the echo; raises ValueError on a bad shape."""
    header = lines[0].split()
    if (len(header) != 4 or header[0] != "report" or header[1] != session or
            not header[2].startswith("rows=") or
            not header[3].startswith("endo=")):
        raise ValueError("bad report header: %r" % lines[0])
    report = Report()
    report.rows_header = int(header[2][5:])
    report.endo_header = int(header[3][5:])
    if lines[-1] != "end report " + session:
        raise ValueError("bad report trailer: %r" % lines[-1])
    body = lines[1:-1]
    if not body[0].startswith("engine: "):
        raise ValueError("missing engine line")
    position = 1
    if body[position].startswith("approx: "):
        report.approx = dict(item.split("=", 1)
                             for item in body[position].split()[1:])
        position += 1
    columns = body[position].split()
    approximate = report.approx is not None
    if columns != (["fact", "estimate", "~decimal", "+-ci", "samples"]
                   if approximate else ["fact", "Shapley", "~decimal"]):
        raise ValueError("bad column header: %r" % body[position])
    for line in body[position + 1:-1]:
        fields = line.split()
        if len(fields) != (5 if approximate else 3):
            raise ValueError("bad row: %r" % line)
        ci = float(fields[3]) if approximate else 0.0
        samples = int(fields[4]) if approximate else 0
        report.rows.append((fields[0], fields[1], Fraction(fields[1]),
                            float(fields[2]), ci, samples))
    total = body[-1].split()
    if len(total) != 2 or total[0] != "total":
        raise ValueError("bad total line: %r" % body[-1])
    report.total_text = total[1]
    if len(report.rows) != report.rows_header:
        raise ValueError("rows=%d but %d rows printed" %
                         (report.rows_header, len(report.rows)))
    return report


def check_exact(report, expected_total, endo_count, top_k, endo_facts):
    """Returns a list of problems with an exact report (empty = correct)."""
    problems = []
    if report.approx is not None:
        problems.append("exact report carries an approx: line")
    if report.endo_header != endo_count:
        problems.append("endo=%d, expected %d" % (report.endo_header,
                                                  endo_count))
    want_rows = endo_count if top_k == 0 else min(top_k, endo_count)
    if len(report.rows) != want_rows:
        problems.append("%d rows, expected %d" % (len(report.rows), want_rows))
    total = Fraction(report.total_text)
    if total != expected_total:
        problems.append("total %s, but q(D) - q(Dx) = %d" %
                        (report.total_text, expected_total))
    if top_k == 0 and sum(row[2] for row in report.rows) != expected_total:
        problems.append("rows sum to %s, not q(D) - q(Dx) = %d" %
                        (sum(row[2] for row in report.rows), expected_total))
    for earlier, later in zip(report.rows, report.rows[1:]):
        if later[2] > earlier[2]:
            problems.append("rows out of order at " + later[0])
            break
    for fact, _, value, decimal, _, _ in report.rows:
        if fact not in endo_facts:
            problems.append("row for a fact that is not endogenous: " + fact)
            break
        if abs(float(value) - decimal) > 1e-4:
            problems.append("decimal column disagrees for " + fact)
            break
    return problems


def check_approx(report, endo_count, epsilon, delta, seed, endo_facts):
    """Returns a list of problems with an approximate report."""
    problems = []
    info = report.approx
    if info is None:
        return ["approx report without an approx: line"]
    if (float(info.get("eps", "nan")) != epsilon or
            float(info.get("delta", "nan")) != delta or
            int(info.get("seed", "-1")) != seed):
        problems.append("approx: line does not echo the spec: %r" % info)
    if report.endo_header != endo_count or len(report.rows) != endo_count:
        problems.append("%d rows / endo=%d, expected %d" %
                        (len(report.rows), report.endo_header, endo_count))
    per_orbit = int(info.get("samples_per_orbit", "-1"))
    for fact, _, value, _, ci, samples in report.rows:
        if not -1 <= value <= 1:
            problems.append("estimate outside [-1, 1] for " + fact)
            break
        if samples not in (0, per_orbit):
            problems.append("row %s has %d samples, approx: line says %d" %
                            (fact, samples, per_orbit))
            break
        if ci < 0:
            problems.append("negative interval for " + fact)
            break
        if fact not in endo_facts:
            problems.append("row for a fact that is not endogenous: " + fact)
            break
    if sum(row[2] for row in report.rows) != Fraction(report.total_text):
        problems.append("approx total is not the sum of its estimates")
    return problems


def approx_samples(report):
    """Samples drawn for one approx report, from its approx: line."""
    info = report.approx
    sampled_orbits = int(info["orbits"].split("/")[0])
    return int(info["samples_per_orbit"]) * sampled_orbits
