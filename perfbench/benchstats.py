"""Statistics of the perfbench harness: raw pimbench output -> metrics.

Pure functions only (no I/O), so test_benchstats.py can pin every rule:

* A percentile is taken over one cost class, never over a population that
  mixes classes; the zoo workloads therefore summarise per network first.
  Each reported dse/serve percentile must have its rank inside one class
  (rank_in_one_class), or the run is not correct.
* A tail is reported only where at least MIN_BEYOND samples lie beyond it;
  a run whose reported percentile has fewer is not correct.
* Failures are counted against attempts; a budget stop in dse_budgeted is a
  completed point, not a failure (pimbench decides that per point).
"""

import math
import statistics

MIN_BEYOND = 10          # samples that must lie beyond a reported percentile
RANK_WINDOW_SHARE = 0.01  # rank_in_one_class looks this share of samples either side
RANK_MAX_GAP = 0.10       # ... and fails when they spread by more than this share
QUANTILES = (0.50, 0.95)  # the percentiles reported on dse_budgeted and serve_warm


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def tail_supported(values, q):
    return len(values) > 0 and samples_beyond(values, q) >= MIN_BEYOND


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_class(samples):
    """[(cls, ms, ok), ...] -> {cls: [ms, ...]} over the ok samples."""
    out = {}
    for cls, ms, ok in samples:
        if ok:
            out.setdefault(cls, []).append(ms)
    return out


def geomean_of_medians(samples):
    """Geometric mean over cost classes of each class's median latency."""
    return geomean([statistics.median(v) for v in by_class(samples).values()])


def slowest_class(samples):
    """The cost class with the highest median latency, and that median.

    The zoo workloads' tail: with every network an equal share of the pool
    (one sample per round), the pooled 95th-percentile rank lies inside the
    slowest network's share. Each network has far fewer than the 200
    samples a tail of its own needs, so its median is reported. Taking the
    class by its median, not by the one sample at the rank, keeps two
    networks of near-equal cost from trading places run to run.
    """
    medians = {cls: statistics.median(v) for cls, v in by_class(samples).items()}
    if not medians:
        raise ValueError("no samples")
    cls = max(medians, key=medians.get)
    return cls, medians[cls]


def rank_in_one_class(values, q):
    """True when the q-quantile of `values` does not sit on a class boundary.

    Looks at the samples RANK_WINDOW_SHARE of the population either side of
    the rank. Inside one cost class they lie close together; across a
    boundary between classes they spread by the gap, and a small change in
    how many samples each class contributes moves the percentile by the
    whole gap (what made p50 swing 52-73 ms over a pool of mixed networks).
    Fails when the window spreads by more than RANK_MAX_GAP of the
    quantile's value.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return False
    rank = round(q * (n - 1))
    w = max(1, int(RANK_WINDOW_SHARE * n))
    lo, hi = xs[max(0, rank - w)], xs[min(n - 1, rank + w)]
    return xs[rank] > 0 and (hi - lo) / xs[rank] <= RANK_MAX_GAP


def warm_ms(raw):
    """Latency samples of the classes that do not compile on every
    evaluation (dse_budgeted's 117 store-served points; all of serve_warm)."""
    cold = set(raw.get("cold_classes", []))
    return [ms for cls, ms, ok in raw["samples"] if ok and cls not in cold]


def failures(raw):
    """(attempted, failed) over every phase pimbench ran."""
    phases = [raw["untraced"]] + ([raw["traced"]] if "traced" in raw else [])
    return sum(p["attempted"] for p in phases), sum(p["failed"] for p in phases)


def rate(phase):
    """Completed evaluations per host second of a phase."""
    done = phase["attempted"] - phase["failed"]
    return done / phase["seconds"] if phase["seconds"] > 0 else 0.0


def end_to_end(raw, setup_samples, zoo):
    """The end-to-end metrics of one untraced run (values only).

    zoo_*: every network is its own cost class with one sample per round, so
    p50 is the geometric mean of per-network medians and p95 the slowest
    network's median (slowest_class). Otherwise both are percentiles over
    one class: warm_ms().
    """
    samples = raw["samples"]
    m = {
        "setup_s": statistics.median(setup_samples),
        "evals_per_s": rate(raw["untraced"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if zoo:
        m["latency_p50_ms"] = geomean_of_medians(samples)
        m["latency_p95_ms"] = slowest_class(samples)[1]
    else:
        warm = warm_ms(raw)
        m["latency_p50_ms"], m["latency_p95_ms"] = (quantile(warm, q) for q in QUANTILES)
    return m


def check_failures(raw, percentiles):
    """Why one run is not correct: pimbench's failed checks, no attempts,
    or, when the run reports the dse/serve percentiles (`percentiles`), one
    that breaks a rule above. Empty when the run is correct. The zoo
    workloads report per-network medians instead (end_to_end), each over
    one class by construction."""
    out = [f"{f['name']}: {f['detail']}" for f in raw["check_failures"]]
    unlisted = raw["check_failure_count"] - len(raw["check_failures"])
    if unlisted > 0:
        out.append(f"{unlisted} more failed checks")
    if failures(raw)[0] == 0:
        out.append("no evaluation attempted")
    if not percentiles:
        return out
    warm = warm_ms(raw)
    for q in QUANTILES:
        p = f"p{round(q * 100)}"
        if not tail_supported(warm, q):
            out.append(f"{p}: {samples_beyond(warm, q)} of {len(warm)} samples lie beyond it, "
                       f"fewer than {MIN_BEYOND}")
        if not rank_in_one_class(warm, q):
            out.append(f"{p}: its rank sits on a boundary between cost classes")
    return out


def tail_notes(raw, zoo):
    """Human-readable account of the percentile rules for one run."""
    samples = raw["samples"]
    if zoo:
        cls, _ = slowest_class(samples)
        pooled = sorted((ms, c) for c, ms, ok in samples if ok)
        at_rank = pooled[round(0.95 * (len(pooled) - 1))][1]
        per = {raw["classes"][c]: len(v) for c, v in by_class(samples).items()}
        return [f"p95: slowest network {raw['classes'][cls]}, pooled p95 rank in "
                f"{raw['classes'][at_rank]}; samples per network {per}"]
    warm = warm_ms(raw)
    notes = []
    for q in QUANTILES:
        notes.append(
            f"p{round(q * 100)}: {len(warm)} samples, {samples_beyond(warm, q)} beyond, "
            f"rank inside one cost class: {rank_in_one_class(warm, q)}")
    cold = set(raw.get("cold_classes", []))
    if cold:
        cold_ms = [ms for cls, ms, ok in samples if ok and cls in cold]
        notes.append(f"compiling class ({len(cold)} points, excluded from the percentiles): "
                     f"{len(cold_ms)} samples, median {statistics.median(cold_ms):.3f} ms")
    return notes


# ------------------------------------------------------------------ traced run

# Layers that own `op` spans. isa work (Program::verify) has no op of its
# own: it runs inside compile_network and the Chip constructor, and its
# share is reported by the isa.verify_ms probe instead.
LAYERS = ("workload", "compiler", "arch", "stats", "artifact", "serve", "glue")


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-layer self time (ns) over the decomposition of every evaluation.

    Counted: `op` spans (their duration minus their children's) and each
    `root` span's own remainder, reported as layer "glue" (harness work
    between calls). `probe` spans duplicate work another op does and `wall`
    spans contain work other spans decompose; both are excluded.
    """
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["t1"] - s["t0"]
    out = {}
    for s in spans:
        own = s["t1"] - s["t0"] - child_ns.get(s["id"], 0)
        if s["kind"] == "op":
            out[layer_of(s["name"])] = out.get(layer_of(s["name"]), 0) + own
        elif s["kind"] == "root":
            out["glue"] = out.get("glue", 0) + own
    return out


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _mean_ms(spans):
    return statistics.fmean((s["t1"] - s["t0"]) * 1e-6 for s in spans) if spans else 0.0


def _median_ms(spans):
    return statistics.median((s["t1"] - s["t0"]) * 1e-6 for s in spans) if spans else 0.0


def per_layer(raw, spans):
    """Every per-layer metric of one traced run; 0 where the workload's
    traced run does not exercise that layer."""
    run = _named(spans, "arch.chip_run")
    run_ns = sum(s["t1"] - s["t0"] for s in run)
    events = sum(s["attrs"].get("kernel_events", 0) for s in run)
    instrs = sum(s["attrs"].get("instructions", 0) for s in run)
    compiles = _named(spans, "compiler.compile")
    mapping_ms = _mean_ms(_named(spans, "compiler.mapping"))
    verify_ms = _mean_ms(_named(spans, "isa.verify"))
    program = _named(spans, "artifact.program")
    hits = [s for s in program if s["attrs"].get("hit") == 1]
    batches = _named(spans, "runtime.batch")
    explores = _named(spans, "dse.explore")
    report = _named(spans, "stats.report_json")
    requests = _named(spans, "serve.request")
    handles = _named(spans, "serve.handle")
    counters = raw["counters"]
    lookups = counters.get("artifact.program_hits", 0) + counters.get("artifact.program_misses", 0)
    untraced, traced = rate(raw["untraced"]), rate(raw["traced"])

    m = {
        "arch.chip_run_ms": _mean_ms(run),
        "arch.ns_per_event": run_ns / events if events else 0.0,
        "arch.minstr_per_s": instrs / (run_ns * 1e-9) / 1e6 if run_ns else 0.0,
        "sim.kernel_events": events / len(run) if run else 0.0,
        "sim.events_per_instr": events / instrs if instrs else 0.0,
        "arch.chip_construct_ms": _mean_ms(_named(spans, "arch.chip_construct")),
        "isa.verify_ms": verify_ms,
        "compiler.mapping_ms": mapping_ms,
        # compile_network runs plan_mapping and Program::verify inside; the
        # probes time those alone, so the rest is scheduling + codegen.
        "compiler.codegen_ms": _mean_ms(compiles) - mapping_ms - verify_ms if compiles else 0.0,
        "compiler.instructions": (statistics.fmean(s["attrs"]["instructions"] for s in compiles)
                                  if compiles else 0.0),
        "workload.build_ms": _mean_ms(_named(spans, "workload.build")),
        "artifact.program_hit_ratio": counters.get("artifact.program_hits", 0) / lookups
                                      if lookups else 0.0,
        "artifact.hit_ms": _mean_ms(hits),
        "runtime.batch_efficiency": (
            sum(s["attrs"]["serial_ms"] for s in batches)
            / sum(s["attrs"]["wall_ms"] * s["attrs"]["jobs"] for s in batches)) if batches else 0.0,
        "dse.explore_overhead_ms": (
            statistics.fmean((e["t1"] - e["t0"]) * 1e-6 - b["attrs"]["wall_ms"]
                             for e, b in zip(explores, batches))) if explores else 0.0,
        "stats.report_json_ms": _mean_ms(report),
        "stats.report_bytes": (statistics.fmean(s["attrs"]["bytes"] for s in report)
                               if report else 0.0),
        "serve.parse_ms": _median_ms(_named(spans, "serve.parse")),
        "serve.scenario_ms": _median_ms(_named(spans, "serve.scenario")),
        "serve.handle_ms": _median_ms(handles),
        "serve.transport_ms": (
            statistics.median(s["attrs"]["client_ms"] for s in requests) - _median_ms(handles)
            if requests and handles else 0.0),
        "runtime.failed": failures(raw)[1],
        "serve.error_replies": counters.get("serve.error_replies", 0),
        "trace.overhead": traced / untraced if untraced else 0.0,
    }
    st = self_times(spans)
    roots = sum(1 for s in spans if s["kind"] == "root")
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = st.get(layer, 0) * 1e-6 / roots if roots else 0.0
    return m


def dominant_layer(spans):
    st = self_times(spans)
    total = sum(st.values())
    if not total:
        return None, 0.0
    layer = max(st, key=st.get)
    return layer, 100.0 * st[layer] / total
