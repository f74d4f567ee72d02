"""The four benchmark workloads: how their jobs are generated, run and checked.

Each workload is a namespace of five entries:

- ``generate(rng, quick)`` builds the job pool from a seeded ``random.Random``
  as a list of rounds; the library never sees the seed, only the generated
  inputs.  Every round of a workload has the same composition (sizes,
  soliton counts, subcommands), and a run measures whole rounds, so where
  the deadline falls does not change the job mix.
- ``reset()``, or None, runs before each round, outside the timed interval.
- ``run(call, job)`` does one job.  Every call into the library goes through
  ``call(name, fn, *args)``, which the tracer wraps in a span; untraced runs
  pass ``direct``.
- ``check(job, outcome)`` says whether the job's output is correct.  It runs
  outside the timed interval.
- ``replay(tracer, job)`` re-runs, on the same inputs, the public calls that
  the job's composite calls are made of, so that a traced run can see which
  layer the time goes to.

``cli_reference(call, job)`` is the library call whose formatted result a
``cli`` subprocess's stdout must equal.
"""

import math
import os
from itertools import combinations
import subprocess
import sys
from types import SimpleNamespace

from boxball import crystal, dynamics, rmatrix, solitons, tensor
from boxball.crystal import format_element
from boxball.dynamics import State
from boxball.rmatrix import format_affine


def direct(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------- inputs


def random_window(rng, cells, n):
    """A window of `cells` cells with cells // 10 letters scattered over it."""
    out = [n] * cells
    for _ in range(cells // 10):
        out[rng.randrange(cells)] = rng.randint(1, n - 1)
    return State(out, n)


def separated_state(rng, lengths, n):
    """Solitons of strictly decreasing lengths, each followed by a gap it cannot cross in one step."""
    placements = []
    pos = 0
    for length in lengths:
        content = tuple(sorted((rng.randint(1, n - 1) for _ in range(length)), reverse=True))
        placements.append((pos, content))
        pos += 2 * length + 1 + rng.randint(0, 3)
    return solitons.state_with_solitons(placements, n)


def random_lengths(rng, count):
    """`count` distinct soliton lengths <= 9, longest first."""
    return sorted(rng.sample(range(1, 10), count), reverse=True)


def scatter_input(rng, lengths, n, under_t):
    """(state, rule): solitons of the given lengths, under T or under T_r with r > the second-longest."""
    rule = None if under_t else lengths[1] + rng.randint(1, 3)
    return separated_state(rng, lengths, n), rule


def random_element(rng, l, n):
    return tuple(sorted(rng.randint(1, n) for _ in range(l)))


# ---------------------------------------------------------------- evolve
# Long windows: carrier_pass / iso_single do nearly all the work, while
# spectrum, detect and iso_with_energy never run.

EVOLVE_STEPS = 1


def evolve_generate(rng, quick):
    """Rounds of four windows, one from each quarter of 1600..2399 cells."""
    base, step = (300, 25) if quick else (1600, 200)
    return [
        [random_window(rng, base + step * j + rng.randrange(step), rng.randint(3, 6)) for j in range(4)]
        for _ in range(2 if quick else 128)
    ]


def evolve_run(call, p):
    k = EVOLVE_STEPS
    letters = p.nonvacuum_count
    q = call("dynamics.evolve", dynamics.evolve, p, None, k)
    q3 = call("dynamics.evolve", dynamics.evolve, p, 3, k)
    back = call("dynamics.evolve_inverse", dynamics.evolve_inverse, q, letters, k)
    back3 = call("dynamics.evolve_inverse", dynamics.evolve_inverse, q3, 3, k)
    tab = call("solitons.bump_tableau", solitons.bump_tableau, p)
    start = p.trim()
    return (
        back.trim() == start
        and back3.trim() == start
        and call("solitons.bump_tableau", solitons.bump_tableau, q) == tab
        and call("solitons.bump_tableau", solitons.bump_tableau, q3) == tab
    )


def evolve_replay(tracer, p):
    letters = p.nonvacuum_count
    with tracer.within("dynamics.evolve"):
        # One T step is a pass at l = #letters plus a saturation pass at l + 1.
        tracer.call("dynamics.carrier_pass", dynamics.carrier_pass, p, letters)
        tracer.call("dynamics.carrier_pass", dynamics.carrier_pass, p, letters + 1)
        tracer.call("dynamics.carrier_pass", dynamics.carrier_pass, p, 3)


# ---------------------------------------------------------------- scatter
# Short T steps, with detect -> spectrum on every step and long-left
# iso_with_energy in the prediction.


def scatter_generate(rng, quick):
    """Rounds of ten states: 3..7 solitons, each under T and under T_r.

    For each soliton count the length sets are dealt from a seeded shuffle
    of all of them, and n cycles through 3..6, so that every seed's pool
    holds nearly the same mix of heavy jobs and the tail stays comparable.
    """
    counts = (3, 4) if quick else (3, 4, 5, 6, 7)
    decks = {m: rng.sample(list(combinations(range(9, 0, -1), m)), math.comb(9, m)) for m in counts}
    rounds = []
    for r in range(1 if quick else 64):
        rounds.append(
            [
                scatter_input(rng, list(decks[m][(2 * r + k) % len(decks[m])]), 3 + (2 * r + k) % 4, k == 0)
                for m in counts
                for k in (0, 1)
            ]
        )
    return rounds


def scatter_run(call, job):
    p, rule = job
    report = call("solitons.run_scattering", solitons.run_scattering, p, rule)
    return report.match and report.tableau_in == report.tableau_out


def scatter_replay(tracer, job):
    p, rule = job
    with tracer.within("solitons.run_scattering"):
        sols = tracer.call("solitons.detect", solitons.detect, p)
        tracer.call("dynamics.spectrum", dynamics.spectrum, p)
        tracer.call("dynamics.evolve", dynamics.evolve, p, rule, 1)
        labels = tuple(tracer.call("solitons.label", solitons.label, s, rule) for s in sols)
        tracer.call("solitons.predict_m_body", solitons.predict_m_body, labels)
        tracer.call("solitons.bump_tableau", solitons.bump_tableau, p)


# ---------------------------------------------------------------- verify
# Exhaustive R-matrix checks: the oracle's BFS puts tensor and crystal to
# work, and the short-left tables are built once and then hit warm.


def verify_generate(rng, quick):
    """One round: every check, in seeded order."""
    ns = (2, 3) if quick else (2, 3, 4, 5)
    sizes = (1, 2) if quick else (1, 2, 3)
    jobs = [("ybe", (l1, l2, l3, n)) for n in ns if n <= 4 for l1 in sizes for l2 in sizes for l3 in sizes]
    jobs += [("oracle", (l, lp, n)) for n in ns for l in range(1, 5) for lp in range(1, 5)]
    rng.shuffle(jobs)
    return [jobs]


def clear_library_caches():
    """Empty every functools cache in the library, as a fresh process would have them."""
    for module in (crystal, tensor, rmatrix, dynamics, solitons):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def crystal_size(l, n):
    return math.comb(l + n - 1, n - 1)


def verify_run(call, job):
    kind, args = job
    if kind == "ybe":
        l1, l2, l3, n = args
        report = call("rmatrix.yang_baxter_check", rmatrix.yang_baxter_check, *args)
        return report.ok and report.cases == crystal_size(l1, n) * crystal_size(l2, n) * crystal_size(l3, n)
    l, lp, n = args
    left = list(call("crystal.elements", crystal.elements, l, n))
    right = list(call("crystal.elements", crystal.elements, lp, n))
    ok = True
    for b in left:
        for bp in right:
            got = call("rmatrix.iso_with_energy", rmatrix.iso_with_energy, b, bp, n)
            ok = ok and got == call("rmatrix.iso_oracle", rmatrix.iso_oracle, b, bp, n)
    return ok


def verify_replay(tracer, job):
    kind, args = job
    if kind == "ybe":
        l1, l2, l3, n = args
        start = [rmatrix.Affine(0, (n,) * l) for l in (l1, l2, l3)]
        with tracer.within("rmatrix.yang_baxter_check"):
            tracer.call("rmatrix.apply_r", rmatrix.apply_r, start[0], start[1], n)
            tracer.call("rmatrix.apply_r", rmatrix.apply_r, start[1], start[2], n)
        return
    l, lp, n = args
    x = ((n,) * l, (n,) * lp)
    with tracer.within("rmatrix.iso_oracle"):
        for i in range(n):
            sig = tracer.call("tensor.signature", tensor.signature, x, i, n)
            tracer.call("tensor.reduce_signature", tensor.reduce_signature, sig)
            tracer.call("tensor.tensor_e", tensor.tensor_e, x, i, n)
            tracer.call("tensor.tensor_f", tensor.tensor_f, x, i, n)


# ---------------------------------------------------------------- cli
# One-shot subprocesses: interpreter start, import, and a cold R-matrix
# table in every process that asks for a short-left pair.

SUBCOMMANDS = ("evolve", "inverse", "energy", "rmatrix", "ybe", "scatter", "tableau")

# (l, l', n) with l < l': the tables the short-left rmatrix jobs build cold,
# each under a second; round r of the pool uses entry r mod 4.
SHORT_LEFT = ((2, 5, 7), (2, 6, 7), (3, 6, 6), (3, 5, 7))


def cli_job(rng, sub, index, quick):
    """(subcommand, argv, stdin) for one `boxball` invocation in round `index`.

    Step counts, YBE alphabet sizes and soliton counts cycle with the round,
    so a run of a few rounds sees the same mix whatever the seed.
    """
    n = rng.randint(3, 6)
    cycle = 1 + index % 3

    def window():
        return random_window(rng, rng.randint(60, 80) if quick else rng.randint(400, 700), n).to_text()

    if sub == "evolve":
        capacity = rng.choice(("inf", "2", "3", "5"))
        return sub, ("--n", str(n), "--capacity", capacity, "--steps", str(cycle)), window()
    if sub == "inverse":
        return sub, ("--n", str(n), "--capacity", str(rng.randint(1, 6)), "--steps", str(cycle)), window()
    if sub in ("energy", "tableau"):
        return sub, ("--n", str(n)), window()
    if sub == "rmatrix":
        # One pair in each length order, over stdin; the short-left one builds a cold table.
        l, lp, n = SHORT_LEFT[index % len(SHORT_LEFT)]
        long_lp = rng.randint(1, 6)
        pairs = [(rng.randint(long_lp, 9), long_lp), (l, lp)]
        lines = [f"{format_element(random_element(rng, a, n), n)}|{format_element(random_element(rng, b, n), n)}" for a, b in pairs]
        return sub, ("--n", str(n)), "\n".join(lines) + "\n"
    if sub == "ybe":
        sizes = ",".join(str(rng.randint(1, 2)) for _ in range(3))
        return sub, ("--n", str(1 + cycle), "--sizes", sizes), ""
    p, rule = scatter_input(rng, random_lengths(rng, 2 + cycle), n, index % 2 == 0)
    return sub, ("--n", str(p.n), "--rule", "inf" if rule is None else str(rule)), p.to_text()


def cli_generate(rng, quick):
    """Rounds of all seven subcommands, in seeded order."""
    rounds = []
    for index in range(1 if quick else 8):
        round_ = [cli_job(rng, sub, index, quick) for sub in SUBCOMMANDS]
        rng.shuffle(round_)
        rounds.append(round_)
    return rounds


def cli_run(call, job, root):
    sub, argv, stdin = job
    return call(f"cli.{sub}", run_cli, root, [sub, *argv], stdin)


def run_cli(root, argv, stdin):
    """Run `boxball <argv>` from the checkout's sources; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "boxball.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=root,
        env=library_env(root),
        timeout=120,
    )
    return proc.returncode, proc.stdout


def library_env(root):
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def option(argv, flag):
    return argv[argv.index(flag) + 1]


def capacity(text):
    return None if text == "inf" else int(text)


def cli_reference(call, job):
    """The stdout `boxball` must print for the job, from library calls in this process."""
    sub, argv, stdin = job
    n = int(option(argv, "--n"))
    if sub == "rmatrix":
        out = []
        for line in stdin.splitlines():
            b, bp = (crystal.parse_element(part, n) for part in line.split("|"))
            (c1, c2), h = call("rmatrix.iso_with_energy", rmatrix.iso_with_energy, b, bp, n)
            out.append(f"({format_element(c1, n)})|({format_element(c2, n)}) H={h}\n")
        return "".join(out)
    if sub == "ybe":
        sizes = option(argv, "--sizes")
        report = call("rmatrix.yang_baxter_check", rmatrix.yang_baxter_check, *map(int, sizes.split(",")), n)
        return f"PASS sizes={sizes} n={n} cases={report.cases}\n"
    p = State.from_text(stdin, n)
    lines = []
    if sub == "evolve":
        lines.append(p.to_text())
        for _ in range(int(option(argv, "--steps"))):
            p = call("dynamics.evolve", dynamics.evolve, p, capacity(option(argv, "--capacity")), 1)
            lines.append(p.to_text())
    elif sub == "inverse":
        lines.append(p.to_text())
        for _ in range(int(option(argv, "--steps"))):
            p = call("dynamics.evolve_inverse", dynamics.evolve_inverse, p, int(option(argv, "--capacity")))
            lines.append(p.to_text())
    elif sub == "energy":
        e = call("dynamics.spectrum", dynamics.spectrum, p)
        top = 1
        while e.e_values[top] != e.e_values[top - 1]:
            top += 1
        lines.append("l E N")
        lines += [f"{l} {e.e_values[l]} {e.n_values[l]}" for l in range(1, top + 1)]
    elif sub == "tableau":
        rows = call("solitons.bump_tableau", solitons.bump_tableau, p)
        lines.append(solitons.format_tableau(rows) if rows else "(empty)")
    else:
        r = call("solitons.run_scattering", solitons.run_scattering, p, capacity(option(argv, "--rule")))
        lines += [
            "in:  " + " ".join(map(format_affine, r.in_labels)),
            "out: " + " ".join(map(format_affine, r.out_labels_simulated)),
            "pred: " + " ".join(map(format_affine, r.out_labels_predicted)),
            "MATCH" if r.match else "MISMATCH",
            "tableau in:",
            solitons.format_tableau(r.tableau_in),
            "tableau out:",
            solitons.format_tableau(r.tableau_out),
        ]
    return "\n".join(lines) + "\n"


def cli_workload(root):
    references = {}

    def check(job, outcome):
        code, out = outcome
        if job not in references:
            references[job] = cli_reference(direct, job)
        return code == 0 and out == references[job]

    def replay(tracer, job):
        with tracer.within(f"cli.{job[0]}"):
            cli_reference(tracer.call, job)

    return SimpleNamespace(
        generate=cli_generate,
        reset=None,
        run=lambda call, job: cli_run(call, job, root),
        check=check,
        replay=replay,
    )


def ok_check(job, outcome):
    return outcome is True


def workload(name, root):
    """The workload namespace for `name`; `root` is the checkout holding src/boxball."""
    if name == "cli":
        return cli_workload(root)
    fns = {
        "evolve": (evolve_generate, evolve_run, evolve_replay),
        "scatter": (scatter_generate, scatter_run, scatter_replay),
        "verify": (verify_generate, verify_run, verify_replay),
    }[name]
    reset = clear_library_caches if name == "verify" else None
    return SimpleNamespace(generate=fns[0], run=fns[1], check=ok_check, replay=fns[2], reset=reset)


WORKLOADS = ("evolve", "scatter", "verify", "cli")
