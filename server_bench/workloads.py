"""Input generation: every protocol line a run sends, from the workload seed.

A plan holds, per client connection, the set-up steps (OPEN, the facts as
DELTA lines, one warm-up REPORT per session) and the steps of the timed loop
(delta bursts and reports). Each step carries what the benchmark's own model
of the session says the server must answer, so responses can be checked
after the loop without asking the program.

Queries are part of a workload's definition: the paper's q1 and q2, and
queries drawn by the library's generator (server_bench_tool queries) from a
fixed generator seed. The workload seed draws everything else: the data
(or, in live_delta and approx_hard, a relabelling of data whose structure
comes from a fixed seed), every delta burst and every sampling seed.
"""

import random
import re
import subprocess

from checks import Evaluator, fact_literal, parse_query

Q1 = "q1() :- Stud(x), not TA(x), Reg(x,y)"
Q2 = "q2() :- Stud(x), not TA(x), Reg(x,y), not Course(y,'CS')"

# Sizes of each workload; README.md explains the choices.
COLD_REBUILD = {
    "sessions": 6,          # generated hierarchical CQ¬s, one per session
    "query_seed": 1,        # generator seed of those queries
    "answers": 60,          # seeded answers per session
    "blocked_share": 0.3,   # share of answers a negated atom's fact blocks
    "endo": 130,            # endogenous facts per session (all of a smaller
                            # session's facts)
    "noise_per_atom": 60,   # random exogenous facts per positive atom
    "reserve": 40,          # facts outside the session that inserts draw on
    "domain": 6,            # values per query variable
    "burst_pairs": 2,       # delete+insert pairs sent before each report
    "visits_per_s": 10.0,   # session visits per second of --seconds
}
LIVE_DELTA = {
    "connections": 2,       # one session of q1 per connection
    "students": 64,
    "courses": 12,
    "ta_every": 3,          # every third student is a TA
    "max_courses": 3,       # students register for 1..max_courses courses
    "swap_shape": (False, 2),  # the shape of the student swapped per burst
    "reinserts": 7,         # delete+re-insert pairs per burst, besides the
                            # swap of one student for another
    "top_k": 0,             # full tables; see README.md on top_k=10
    "cycles_per_s": 11.0,   # burst+report cycles per second, per connection
    "snapshot_every": 1024,  # compaction about every 50 bursts per session
                             # (kSnapshotEvery in tool.cc, for the replay)
}
APPROX_HARD = {
    "students": 14,         # q2 session over university data
    "courses": 8,
    "ta_every": 3,
    "max_courses": 3,
    "nonhier_seed": 1,      # generator seed of the non-hierarchical query
    "answers": 17,          # the generated query's session
    "blocked_share": 0.3,
    "endo": 34,
    "noise_per_atom": 11,
    "reserve": 0,
    "domain": 4,
    "epsilon": 0.3,
    "delta": 0.1,
    "burst_pairs": 1,
    "reports_per_s": 12.0,
    "validation_reports": 6,  # reports on the brute-force validation session
}
MIN_REPORTS = 100            # every run holds at least this many reports
LOAD_CHUNK = 128             # DELTA lines per pipelined set-up chunk


class Step:
    """One pipelined send and what must come back for it.

    kind is "open", "burst", "report" or "stats". For a burst, `lines` are
    DELTA lines and `acks` the ack each must get. For a report, `expect`
    holds the model's view at that point.
    """

    def __init__(self, kind, lines, session, acks=None, expect=None):
        self.kind = kind
        self.lines = lines
        self.session = session
        self.acks = acks or []
        self.expect = expect
        self.payload = "".join(line + "\n" for line in lines).encode()


class Session:
    """The benchmark's own copy of one session's facts."""

    def __init__(self, sid, query):
        self.sid = sid
        self.query = query
        self.evaluator = Evaluator(query)
        self.facts = {}      # (relation, values) -> endogenous
        self.endo = set()    # endogenous literals
        self.approx_only = False

    def literal(self, key):
        return fact_literal(key[0], key[1], self.facts[key])

    def insert(self, key, endogenous):
        assert key not in self.facts
        self.facts[key] = endogenous
        if endogenous:
            self.endo.add(fact_literal(key[0], key[1], True))
        return "DELTA %s + %s" % (self.sid, self.literal(key))

    def delete(self, key):
        literal = self.literal(key)
        self.endo.discard(literal)
        del self.facts[key]
        return "DELTA %s - %s" % (self.sid, literal)

    def ack(self):
        return "ok delta %s facts=%d endo=%d" % (self.sid, len(self.facts),
                                                 len(self.endo))

    def expectation(self, top_k, approx=None):
        return {
            "total": self.evaluator.efficiency_total(self.facts),
            "endo": len(self.endo),
            "endo_facts": frozenset(self.endo),
            "top_k": top_k,
            "approx": approx,
        }


class ConnectionPlan:
    """The steps one client connection sends, set-up and timed loop."""

    def __init__(self):
        self.sessions = []
        self.setup = []
        self.loop = []


class Plan:
    def __init__(self, seed):
        self.seed = seed
        self.server_args = ["--threads", "1"]
        self.connections = []
        self.log_dir = False          # server runs with a write-ahead log
        self.stripes = 8
        self.max_resident = 0
        self.approx_spec = None       # (epsilon, delta) of approx reports
        self.validation = None        # brute-force validation session


def generated_queries(tool, kind, seed, count):
    out = subprocess.run([tool, "queries", "--kind", kind, "--seed",
                          str(seed), "--count", str(count)],
                         check=True, capture_output=True, text=True).stdout
    return out.split("\n")[:count]


def draw_fact(atom, domain, rng):
    """A random fact for one query atom: each variable takes one of
    `domain` values (repeated variables repeat it), constants mostly keep
    the query's value."""
    binding, row = {}, []
    for kind, name in atom.terms:
        if kind == "const":
            row.append(name if rng.random() < 0.8 else
                       "k%d" % rng.randrange(3))
        else:
            row.append(binding.setdefault(
                name, "%s_%d" % (name, rng.randrange(domain))))
    return atom.relation, tuple(row)


def ground(atom, binding):
    return atom.relation, tuple(binding[name] if kind == "var" else name
                                for kind, name in atom.terms)


def random_session(sid, query, sizes, rng):
    """A session over random data for a generated query, plus a reserve of
    facts not in it (the source of inserts).

    The data is seeded with answers: random assignments of the query's
    variables whose positive atoms all become facts, and whose negated
    atoms become facts (blocking the answer) for a share of them. Every
    fact of the anchor atom (the positive atom with the most variables) is
    endogenous, so no answer holds on the exogenous facts alone
    (q(Dx) = 0); the other endogenous facts are drawn at random up to
    sizes["endo"]. Random exogenous facts are added as noise."""
    atoms = parse_query(query)
    anchor = max((a for a in atoms if not a.negated),
                 key=lambda a: len(a.variables()))
    names = sorted(set().union(*(a.variables() for a in atoms)))

    def answer_facts():
        binding = {name: "%s_%d" % (name, rng.randrange(sizes["domain"]))
                   for name in names}
        for atom in atoms:
            if not atom.negated or rng.random() < sizes["blocked_share"]:
                yield ground(atom, binding), atom is anchor or atom.negated

    session = Session(sid, query)
    facts = session.facts
    for _ in range(sizes["answers"]):
        for key, endogenous in answer_facts():
            facts.setdefault(key, endogenous)
    exogenous = [key for key, endogenous in facts.items() if not endogenous]
    endo_left = sizes["endo"] - (len(facts) - len(exogenous))
    for key in rng.sample(exogenous, max(0, min(len(exogenous), endo_left))):
        facts[key] = True
    for atom in atoms:
        if atom.negated or atom is anchor:
            continue
        for _ in range(sizes["noise_per_atom"]):
            facts.setdefault(draw_fact(atom, sizes["domain"], rng), False)
    reserve = {}
    for _ in range(sizes["reserve"] * 50):
        if len(reserve) >= sizes["reserve"]:
            break
        for key, endogenous in answer_facts():
            if key not in facts:
                reserve[key] = endogenous
    session.endo = {fact_literal(k[0], k[1], True)
                    for k, e in facts.items() if e}
    return session, reserve


def swap_pair(session, reserve, rng):
    """Delete a random fact and insert a reserve fact of the same kind, so
    the session's fact and endogenous counts stay unchanged."""
    while True:
        key = rng.choice(sorted(session.facts))
        endogenous = session.facts[key]
        candidates = sorted(k for k, e in reserve.items() if e == endogenous)
        if candidates:
            break
    incoming = rng.choice(candidates)
    del reserve[incoming]
    lines, acks = [session.delete(key)], [session.ack()]
    reserve[key] = endogenous
    lines.append(session.insert(incoming, endogenous))
    acks.append(session.ack())
    return lines, acks


def relabel(session, rng):
    """Renames the session's values by a random permutation within each
    name prefix (students among students, courses among courses), leaving
    query constants alone: the database stays isomorphic, so the work a
    report does is the same for every seed."""
    constants = {name for atom in parse_query(session.query)
                 for kind, name in atom.terms if kind == "const"}
    groups = {}
    for _, row in session.facts:
        for value in row:
            if value not in constants:
                groups.setdefault(re.match(r"[A-Za-z]*", value).group(),
                                  set()).add(value)
    mapping = {}
    for names in groups.values():
        ordered = sorted(names)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        mapping.update(zip(ordered, shuffled))
    session.facts = {(relation, tuple(mapping.get(v, v) for v in row)): e
                     for (relation, row), e in session.facts.items()}
    session.endo = {fact_literal(k[0], k[1], True)
                    for k, e in session.facts.items() if e}


def reinsert_pair(session, rng):
    """Delete a random endogenous fact and insert it again: the database
    ends as it was, but its epoch moved, so no report is served from
    cache."""
    key = rng.choice(sorted(k for k, e in session.facts.items() if e))
    lines = [session.delete(key)]
    acks = [session.ack()]
    lines.append(session.insert(key, True))
    acks.append(session.ack())
    return lines, acks


def load_steps(session):
    """OPEN plus the session's facts as pipelined DELTA chunks."""
    ack = "ok open " + session.sid + (" approx-only" if session.approx_only
                                      else "")
    steps = [Step("open", ["OPEN %s %s" % (session.sid, session.query)],
                  session.sid, acks=[ack])]
    facts = list(session.facts.items())
    session.facts, session.endo = {}, set()
    for start in range(0, len(facts), LOAD_CHUNK):
        lines, acks = [], []
        for key, endogenous in facts[start:start + LOAD_CHUNK]:
            lines.append(session.insert(key, endogenous))
            acks.append(session.ack())
        steps.append(Step("burst", lines, session.sid, acks=acks))
    return steps


def report_step(session, top_k, approx=None):
    if approx is None:
        line = "REPORT %s top_k=%d threads=1" % (session.sid, top_k)
    else:
        epsilon, delta, seed = approx
        line = "REPORT %s approx=%g,%g seed=%d threads=1" % (
            session.sid, epsilon, delta, seed)
    return Step("report", [line], session.sid,
                expect=session.expectation(top_k, approx))


def cold_rebuild(plan, tool, rng, seconds):
    sizes = COLD_REBUILD
    plan.server_args += ["--max-resident", "1", "--stripes", "1"]
    plan.max_resident, plan.stripes = 1, 1
    queries = generated_queries(tool, "hier", sizes["query_seed"],
                                sizes["sessions"])
    conn = ConnectionPlan()
    reserves = []
    for index, query in enumerate(queries):
        session, reserve = random_session("c%d" % index, query, sizes, rng)
        conn.sessions.append(session)
        reserves.append(reserve)
        conn.setup += load_steps(session)
    for session in conn.sessions:
        conn.setup.append(report_step(session, 0))
    visits = max(MIN_REPORTS, int(round(seconds * sizes["visits_per_s"])))
    for visit in range(visits):
        index = visit % len(conn.sessions)
        session = conn.sessions[index]
        lines, acks = [], []
        for _ in range(sizes["burst_pairs"]):
            pair_lines, pair_acks = swap_pair(session, reserves[index], rng)
            lines += pair_lines
            acks += pair_acks
        conn.loop.append(Step("burst", lines, session.sid, acks=acks))
        conn.loop.append(report_step(session, 0))
    plan.connections.append(conn)


def university_session(sid, query, sizes, rng, courses_cs=False):
    """Scaled random university data. Students come in a fixed mix of
    shapes (TA or not, 1..max_courses registrations), so many facts share an
    orbit and every seed gives the same orbit structure; the seed draws
    which courses each student takes and, with courses_cs, which courses
    are CS courses (a third of them)."""
    session = Session(sid, query)
    courses = ["c%d" % i for i in range(sizes["courses"])]
    for i in range(sizes["students"]):
        shape = (i % sizes["ta_every"] == 0, 1 + i % sizes["max_courses"])
        add_student(session, "s%d" % i, shape, courses, rng)
    if courses_cs:
        shuffled = list(courses)
        rng.shuffle(shuffled)
        for course, dept in zip(shuffled, ["CS", "EE", "Math"] * len(courses)):
            session.facts[("Course", (course, dept))] = False
    return session


def add_student(session, student, shape, courses, rng):
    """Adds one student's facts to the session."""
    ta, registrations = shape
    keys = [(("Stud", (student,)), False)]
    if ta:
        keys.append((("TA", (student,)), True))
    for course in rng.sample(courses, registrations):
        keys.append((("Reg", (student, course)), True))
    for key, endogenous in keys:
        session.facts[key] = endogenous
        if endogenous:
            session.endo.add(fact_literal(key[0], key[1], True))


class Rounds:
    """Hands out items in rounds, each round a fresh shuffle of them all."""

    def __init__(self, items, rng):
        self.items = sorted(items)
        self.rng = rng
        self.queue = []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()

    def replace(self, old, new):
        self.items = sorted(new if item == old else item
                            for item in self.items)
        self.queue = [new if item == old else item for item in self.queue]

    def rename(self, old, new):
        """Renames a student inside Reg keys."""
        def renamed(key):
            return (key[0], (new,) + key[1][1:]) if key[1][0] == old else key
        self.items = sorted(renamed(key) for key in self.items)
        self.queue = [renamed(key) for key in self.queue]


def swap_student(session, leaving, arriving):
    """DELTA lines that drop one student and add another with the same
    TA status and courses."""
    keys = sorted(k for k in session.facts if k[1][0] == leaving)
    lines, acks = [], []
    for key in keys:
        lines.append(session.delete(key))
        acks.append(session.ack())
    for relation, row in keys:
        key = (relation, (arriving,) + row[1:])
        lines.append(session.insert(key, relation != "Stud"))
        acks.append(session.ack())
    return lines, acks


def live_delta(plan, tool, rng, seconds):
    sizes = LIVE_DELTA
    plan.log_dir = True
    plan.server_args += ["--fsync=batch", "--snapshot-every",
                         str(sizes["snapshot_every"])]
    cycles = max(MIN_REPORTS // sizes["connections"] + 1,
                 int(round(seconds * sizes["cycles_per_s"])))
    # As in approx_hard, a fixed seed draws the data's structure and the
    # workload seed relabels it; every burst keeps the structure.
    structure = random.Random("live_delta:structure")
    for index in range(sizes["connections"]):
        conn = ConnectionPlan()
        session = university_session("u%d" % index, Q1, sizes, structure)
        relabel(session, rng)
        conn.sessions.append(session)
        conn.setup += load_steps(session)
        conn.setup.append(report_step(session, sizes["top_k"]))
        # Bursts walk seed-shuffled rounds over the students of the swap
        # shape and over the registrations, so every seed touches each of
        # them about equally often.
        ta, registrations = sizes["swap_shape"]
        students = [row[0] for relation, row in session.facts
                    if relation == "Stud" and
                    (("TA", row) in session.facts) == ta and
                    sum(1 for k in session.facts if k[0] == "Reg" and
                        k[1][0] == row[0]) == registrations]
        swaps = Rounds(students, rng)
        reinserts = Rounds([k for k in session.facts if k[0] == "Reg"], rng)
        for cycle in range(cycles):
            leaving = swaps.next()
            arriving = "n%d" % cycle
            lines, acks = swap_student(session, leaving, arriving)
            swaps.replace(leaving, arriving)
            reinserts.rename(leaving, arriving)
            for _ in range(sizes["reinserts"]):
                key = reinserts.next()
                lines.append(session.delete(key))
                acks.append(session.ack())
                lines.append(session.insert(key, True))
                acks.append(session.ack())
            conn.loop.append(Step("burst", lines, session.sid, acks=acks))
            conn.loop.append(report_step(session, sizes["top_k"]))
        plan.connections.append(conn)


def approx_hard(plan, tool, rng, seconds):
    sizes = APPROX_HARD
    epsilon, delta = sizes["epsilon"], sizes["delta"]
    plan.approx_spec = (epsilon, delta)
    conn = ConnectionPlan()
    # The data's structure comes from a fixed seed and the workload seed
    # relabels it: sampling cost depends strongly on the structure, and the
    # benchmark compares runs across seeds.
    structure = random.Random("approx_hard:structure")
    q2_session = university_session("a0", Q2, sizes, structure,
                                    courses_cs=True)
    nonhier = generated_queries(tool, "nonhier", sizes["nonhier_seed"], 1)[0]
    gen_session, _ = random_session("a1", nonhier, sizes, structure)
    sessions = [q2_session, gen_session]
    for session in sessions:
        relabel(session, rng)
        session.approx_only = True
        conn.sessions.append(session)
        conn.setup += load_steps(session)
    report_index = 0

    def approx_for(index):
        return (epsilon, delta, (plan.seed * 1000003 + index) % (1 << 32))

    for session in sessions:
        conn.setup.append(report_step(session, 0, approx_for(report_index)))
        report_index += 1
    reports = max(MIN_REPORTS, int(round(seconds * sizes["reports_per_s"])))
    for visit in range(reports):
        session = sessions[visit % len(sessions)]
        lines, acks = [], []
        for _ in range(sizes["burst_pairs"]):
            pair_lines, pair_acks = reinsert_pair(session, rng)
            lines += pair_lines
            acks += pair_acks
        conn.loop.append(Step("burst", lines, session.sid, acks=acks))
        conn.loop.append(report_step(session, 0, approx_for(report_index)))
        report_index += 1
    plan.connections.append(conn)

    # A session small enough for ShapleyBruteForce, reported with the same
    # spec at several seeds after the timed loop.
    small = dict(sizes, students=5, courses=3)
    validation = university_session("v0", Q2, small, rng, courses_cs=True)
    validation.approx_only = True
    steps = load_steps(validation)
    for index in range(sizes["validation_reports"]):
        steps.append(report_step(validation, 0,
                                 (epsilon, delta, 7000 + index)))
    plan.validation = (validation, steps)


WORKLOADS = {
    "cold_rebuild": cold_rebuild,
    "live_delta": live_delta,
    "approx_hard": approx_hard,
}


def build_plan(workload, seed, seconds, tool):
    plan = Plan(seed)
    rng = random.Random("%s:%d" % (workload, seed))
    WORKLOADS[workload](plan, tool, rng, seconds)
    return plan
