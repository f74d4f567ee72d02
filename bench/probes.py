"""Per-layer probes: each named layer metric, timed from outside on seeded inputs.

The probes run after the workload loop of a traced run and are the same for
every workload, so a layer metric means the same thing in every result.
They use alphabet sizes that no workload touches (n = 8 for short-left
tables, n = 6 for oracle tables), so the cold timings are cold whichever
workload ran first.
"""

import math
import statistics
import subprocess
import sys
from time import perf_counter

from boxball import crystal, dynamics, rmatrix, solitons, tensor

import workloads

SWEEP_CELLS = (250, 1000, 4000)
COLD_SHORT_LEFT = ((1, 4, 8), (2, 4, 8), (1, 5, 8))
COLD_ORACLE = ((2, 1, 6), (2, 2, 6), (3, 2, 6))


class Probe:
    def __init__(self, reps):
        self.reps = reps
        self.metrics = {}
        self.failures = []

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def expect(self, what, ok):
        if not ok:
            self.failures.append(what)


def once(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def median_time(reps, fn, *args):
    return statistics.median(once(fn, *args)[0] for _ in range(reps))


def per_call(reps, fn, inputs):
    """Median over `reps` sweeps of the mean time of fn(*x) for x in inputs."""

    def sweep():
        start = perf_counter()
        for x in inputs:
            fn(*x)
        return (perf_counter() - start) / len(inputs)

    return statistics.median(sweep() for _ in range(reps))


def slope(cells, times):
    """Least-squares slope of log(time) against log(cells)."""
    xs = [math.log(c) for c in cells]
    ys = [math.log(t) for t in times]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def probe_dynamics(pr, rng, quick, scatter_states):
    windows = [workloads.random_window(rng, 400 if quick else 2000, rng.randint(3, 6)) for _ in range(3)]
    pr.put("dynamics.carrier_pass.l3_ms", 1e3 * statistics.median(median_time(pr.reps, dynamics.carrier_pass, p, 3) for p in windows), "ms")
    pr.put(
        "dynamics.carrier_pass.lM_ms",
        1e3 * statistics.median(median_time(pr.reps, dynamics.carrier_pass, p, p.nonvacuum_count) for p in windows),
        "ms",
    )
    pr.put("dynamics.evolve_T_ms", 1e3 * statistics.median(median_time(pr.reps, dynamics.evolve, p) for p in windows), "ms")
    stepped = [(dynamics.evolve(p), p.nonvacuum_count) for p in windows]
    pr.put(
        "dynamics.evolve_inverse_ms",
        1e3 * statistics.median(median_time(pr.reps, dynamics.evolve_inverse, q, l) for q, l in stepped),
        "ms",
    )
    for (q, l), p in zip(stepped, windows):
        pr.expect("evolve_inverse round trip", dynamics.evolve_inverse(q, l).trim() == p.trim())

    times, passes, useful = [], 0, 0
    for p, _ in scatter_states:
        t, spec = once(dynamics.spectrum, p)
        times.append(t)
        e = spec.e_values
        made = len(e) - 1
        needed = next((l for l in range(1, made + 1) if e[l] == e[l - 1]), made) + 1
        passes += made
        useful += min(needed, made)
        pr.expect("spectrum census", spec.census() == _run_census(p))
    pr.put("dynamics.spectrum_ms", 1e3 * statistics.median(times), "ms")
    pr.put("dynamics.spectrum.passes", passes, "count")
    pr.put("dynamics.spectrum.useful_ratio", useful / passes, "ratio")

    evolve_times, spectrum_times = [], []
    for cells in SWEEP_CELLS:
        p = workloads.random_window(rng, cells, 4)
        evolve_times.append(median_time(pr.reps, dynamics.evolve, p))
        # One spectrum at 4000 cells takes seconds; smaller sizes take the median of a few.
        spectrum_times.append(median_time(1 if cells >= 4000 else pr.reps, dynamics.spectrum, p))
        pr.put(f"dynamics.evolve_T.c{cells}_ms", 1e3 * evolve_times[-1], "ms")
        pr.put(f"dynamics.spectrum.c{cells}_ms", 1e3 * spectrum_times[-1], "ms")
    pr.put("dynamics.evolve_T.slope", slope(SWEEP_CELLS, evolve_times), "log/log")
    pr.put("dynamics.spectrum.slope", slope(SWEEP_CELLS, spectrum_times), "log/log")


def _run_census(p):
    census = {}
    for s in solitons.detect(p, check_census=False):
        census[s.length] = census.get(s.length, 0) + 1
    return census


def probe_rmatrix(pr, rng):
    carriers = [(workloads.random_element(rng, l, 5), rng.randint(1, 5)) for l in (3, 250) for _ in range(200)]
    pr.put("rmatrix.iso_single_us", 1e6 * per_call(pr.reps, rmatrix.iso_single, carriers), "us")

    long_left = []
    for _ in range(500):
        n, lp = rng.randint(3, 6), rng.randint(1, 8)
        long_left.append((workloads.random_element(rng, rng.randint(lp, 9), n), workloads.random_element(rng, lp, n)))
    pr.put("rmatrix.iso_with_energy.long_left_us", 1e6 * per_call(pr.reps, rmatrix.iso_with_energy, long_left), "us")

    cold, warm = [], []
    for l, lp, n in COLD_SHORT_LEFT:
        first = (workloads.random_element(rng, l, n), workloads.random_element(rng, lp, n), n)
        cold.append(once(rmatrix.iso_with_energy, *first)[0])
        warm += [(workloads.random_element(rng, l, n), workloads.random_element(rng, lp, n), n) for _ in range(300)]
    pr.put("rmatrix.iso_with_energy.short_left_cold_ms", 1e3 * statistics.median(cold), "ms")
    pr.put("rmatrix.iso_with_energy.short_left_warm_us", 1e6 * per_call(pr.reps, rmatrix.iso_with_energy, warm), "us")
    for b, bp, n in warm[:: len(warm) // 20]:
        (c1, c2), _ = rmatrix.iso_with_energy(b, bp, n)
        pr.expect("short-left image lengths", (len(c1), len(c2)) == (len(bp), len(b)))

    ybe_sizes = ((3, 2, 1), (1, 2, 3), (2, 3, 1))
    for sizes in ybe_sizes:  # warm the short-left tables, as in the verify workload
        rmatrix.yang_baxter_check(*sizes, 4)
    start = perf_counter()
    reports = [rmatrix.yang_baxter_check(*sizes, 4) for sizes in ybe_sizes]
    elapsed = perf_counter() - start
    cases = sum(r.cases for r in reports)
    pr.expect("yang_baxter_check", all(r.ok for r in reports))
    pr.put("rmatrix.yang_baxter_check.us_per_case", 1e6 * elapsed / cases, "us")
    pr.put("rmatrix.yang_baxter_check.cases", cases, "count")

    times = []
    for l1, l2, n in COLD_ORACLE:
        t, table = once(rmatrix.oracle_table, l1, l2, n)
        times.append(t)
        pr.expect("oracle table size", len(table) == workloads.crystal_size(l1, n) * workloads.crystal_size(l2, n))
    pr.put("rmatrix.oracle_table_ms", 1e3 * statistics.median(times), "ms")


def probe_tensor_crystal(pr, rng):
    """Random pairs of B_l (x) B_l' with l, l' <= 4 and n <= 5, as in the verify sweeps."""
    cases = []
    for _ in range(500):
        n = rng.randint(2, 5)
        t = (workloads.random_element(rng, rng.randint(1, 4), n), workloads.random_element(rng, rng.randint(1, 4), n))
        cases.append((t, rng.randrange(n), n))
    sigs = [(tensor.signature(*c),) for c in cases]
    pr.put("tensor.signature_us", 1e6 * per_call(pr.reps, tensor.signature, cases), "us")
    pr.put("tensor.reduce_signature_us", 1e6 * per_call(pr.reps, tensor.reduce_signature, sigs), "us")
    pr.put("tensor.tensor_e_us", 1e6 * per_call(pr.reps, tensor.tensor_e, cases), "us")
    pr.put("tensor.tensor_f_us", 1e6 * per_call(pr.reps, tensor.tensor_f, cases), "us")
    for t, i, n in cases[:50]:
        up = tensor.tensor_e(t, i, n)
        pr.expect("tensor f_i e_i = id", up is None or tensor.tensor_f(up, i, n) == t)

    singles = [(t[0], i, n) for t, i, n in cases]
    pr.put("crystal.apply_e_us", 1e6 * per_call(pr.reps, crystal.apply_e, singles), "us")
    pr.put("crystal.apply_f_us", 1e6 * per_call(pr.reps, crystal.apply_f, singles), "us")
    shapes = [(l, n) for n in range(2, 6) for l in range(1, 5)]
    pr.put("crystal.elements_ms", 1e3 * median_time(pr.reps, lambda: [list(crystal.elements(l, n)) for l, n in shapes]), "ms")


def probe_solitons(pr, scatter_states):
    pr.put("solitons.detect_ms", 1e3 * statistics.median(median_time(pr.reps, solitons.detect, p) for p, _ in scatter_states), "ms")
    labels = [(tuple(solitons.label(s, rule) for s in solitons.detect(p)),) for p, rule in scatter_states]
    pr.put("solitons.predict_m_body_us", 1e6 * per_call(pr.reps, solitons.predict_m_body, labels), "us")
    pr.put("solitons.bump_tableau_us", 1e6 * per_call(pr.reps, solitons.bump_tableau, [(p,) for p, _ in scatter_states]), "us")
    steps = 0
    for p, rule in scatter_states:
        report = solitons.run_scattering(p, rule)
        pr.expect("run_scattering match", report.match)
        steps += report.steps
    pr.put("solitons.run_scattering.steps", steps, "count")


def probe_cli(pr, rng, root, quick):
    """Subprocess wall times: startup is importing boxball.cli minus a bare interpreter."""
    env = workloads.library_env(root)

    def spawn(code):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
        return perf_counter() - start

    bare, cli = [], []
    for _ in range(max(3, pr.reps)):
        bare.append(spawn("pass"))
        cli.append(spawn("import boxball.cli"))
    pr.put("cli.startup_ms", 1e3 * (statistics.median(cli) - statistics.median(bare)), "ms")

    for sub in workloads.SUBCOMMANDS:
        job = workloads.cli_job(rng, sub, 0, quick)
        times = []
        for _ in range(pr.reps):
            t, (code, out) = once(workloads.run_cli, root, [sub, *job[1]], job[2])
            times.append(t)
        pr.expect(f"cli {sub} stdout", code == 0 and out == workloads.cli_reference(workloads.direct, job))
        pr.put(f"cli.{sub}_ms", 1e3 * statistics.median(times), "ms")


def run_probes(rng, root, quick):
    """Every per-layer probe metric, and the list of probe checks that failed."""
    pr = Probe(reps=1 if quick else 3)
    scatter_states = [
        workloads.scatter_input(rng, workloads.random_lengths(rng, m), rng.randint(3, 6), under_t)
        for m in range(3, 5 if quick else 8)
        for under_t in (True, False)
    ]
    probe_dynamics(pr, rng, quick, scatter_states)
    probe_rmatrix(pr, rng)
    probe_tensor_crystal(pr, rng)
    probe_solitons(pr, scatter_states)
    probe_cli(pr, rng, root, quick)
    return pr.metrics, pr.failures
