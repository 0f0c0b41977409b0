// pimdse — design-space exploration driver.
//
// Loads a declarative search space (src/dse/search_space.h), samples it
// (grid / seeded random / evolutionary hill climb / NSGA-II), evaluates
// each point through the parallel batch runner with a content-hash result
// cache, and reports the Pareto frontier over {latency, energy, power,
// area proxy}. Spaces may declare a "constraints" block; constraint-
// infeasible corners are skipped by the sampler before any simulation.
//
//   pimdse --space configs/dse_small.json --sampler grid --jobs 4
//   pimdse --space configs/dse_paper.json --sampler random --budget 64
//          --out dse.json --csv dse.csv
//   pimdse --space configs/dse_paper.json --sampler nsga2 --budget 96
//          --population 16 --seed 7
//
// Output discipline: the report (tables, frontier chart, summary, cache
// statistics) goes to stdout; per-point progress and host timing go to
// stderr. The JSON result file (--out, default dse.json) contains no cache
// or host-timing information and is byte-identical across runs of the same
// exploration, cold or warm cache.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/math_util.h"
#include "dse/explorer.h"
#include "workload/workload.h"
#include "cli.h"

using namespace pim;

namespace {

/// First ^C requests a graceful drain (in-flight points finish, the partial
/// result is written, the journal stays resumable); a second ^C falls back to
/// the default disposition and kills the process immediately.
std::atomic<bool> g_interrupted{false};

extern "C" void on_sigint(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args("pimdse", "explore an accelerator design space");
  args.option("--space", "FILE", "", "search-space JSON description (required)");
  args.option("--workload", "NAME|FILE", "",
              "override the space's workload: a zoo name, \"mlp\", or a "
              "graph description .json file");
  args.option("--sampler", "KIND", "grid", "point sampler: grid|random|evolve|nsga2");
  args.option("--budget", "N", "64", "max points to evaluate");
  args.option("--seed", "N", "1", "sampler seed (random/evolve/nsga2)");
  args.option("--population", "N", "16", "nsga2 generation size");
  args.option("--generations", "N", "0",
              "nsga2 generation cap, counting the random seed round "
              "(0 = until budget)");
  args.option("--jobs", "N", "0", "worker threads (0 = all hardware threads)");
  args.option("--cache-dir", "DIR", "",
              "result-cache directory; overrides --cache and the "
              "PIMDSE_CACHE_DIR environment variable");
  args.option("--cache", "DIR", ".pimdse-cache", "result-cache directory");
  args.option("--cache-cap-mb", "N", "512", "result-cache size cap in MiB (0 = unbounded)");
  args.flag("--no-cache", "disable the result cache");
  args.option("--max-point-ms", "N", "0",
              "per-point simulated-time budget in ms; timed-out points are "
              "reported like infeasible ones (0 = no budget)");
  args.option("--max-point-us", "N", "0",
              "per-point simulated-time budget in microseconds — paper-scale "
              "points finish in tens of us, so this allows far tighter caps "
              "than --max-point-ms; the stricter of the two wins (0 = no "
              "budget)");
  args.option("--journal", "FILE", "",
              "crash-safety sidecar: append every evaluated point (checksummed, "
              "fsync'd per batch); if FILE already holds a journal of this "
              "exploration, completed points replay instead of re-simulating");
  args.option("--scenario-timeout-ms", "N", "0",
              "per-point wall-clock watchdog: kill any single simulation that "
              "runs longer than N host ms (0 = off; killed points are "
              "reported failed and never cached)");
  args.option("--retries", "N", "0",
              "retry a point up to N times after a transient failure "
              "(vanished/unreadable workload file)");
  args.option("--retry-backoff-ms", "N", "10", "base backoff between retries (doubles per attempt)");
  args.option("--out", "FILE", "dse.json", "write the full result as JSON");
  args.option("--csv", "FILE", "", "also write every evaluated point as CSV");
  args.flag("--quiet", "suppress per-point progress on stderr");
  tools::add_observability_options(args);
  args.parse(argc, argv);

  tools::Observability obs = tools::Observability::from_args(args, "pimdse");

  try {
    if (args.get("--space").empty()) {
      std::fprintf(stderr, "pimdse: --space is required (try --help)\n");
      return 2;
    }
    dse::SearchSpace space = dse::SearchSpace::load(args.get("--space"));
    if (!args.get("--workload").empty()) {
      // Same tokens and field-preservation semantics as the space's "model"
      // knob: only the network is swapped; the space's parameterization
      // carries over.
      space.workload = space.workload.with_network(args.get("--workload"));
      if (space.workload.kind == workload::Kind::GraphFile) {
        space.workload.fingerprint();  // fail on a broken file before exploring
      }
    }

    dse::ExploreOptions opts;
    opts.sampler = args.get("--sampler");
    opts.budget = static_cast<size_t>(args.get_unsigned("--budget"));
    opts.seed = static_cast<uint64_t>(args.get_unsigned("--seed"));
    opts.population = static_cast<size_t>(args.get_unsigned("--population"));
    opts.generations = static_cast<size_t>(args.get_unsigned("--generations"));
    opts.jobs = args.get_unsigned("--jobs");
    if (!args.has("--no-cache")) {
      // Flag beats env var beats default: --cache-dir (or the legacy
      // --cache) when given, else $PIMDSE_CACHE_DIR, else .pimdse-cache.
      std::string flag_dir;
      if (args.has("--cache-dir")) {
        flag_dir = args.get("--cache-dir");
      } else if (args.has("--cache")) {
        flag_dir = args.get("--cache");
      }
      opts.cache_dir = dse::resolve_cache_dir(flag_dir, args.get("--cache"));
      opts.cache_max_bytes = static_cast<uint64_t>(args.get_unsigned("--cache-cap-mb")) *
                             1024ull * 1024ull;
      if (!flag_dir.empty()) {
        // A cache directory the user *asked for* must work; silently falling
        // back to an uncached exploration would hide the misconfiguration.
        // (The env-var/default path keeps the old degrade-and-warn behavior.)
        std::error_code ec;
        std::filesystem::create_directories(opts.cache_dir, ec);
        if (ec) {
          std::fprintf(stderr, "pimdse: cannot create cache directory %s: %s\n",
                       opts.cache_dir.c_str(), ec.message().c_str());
          return 2;
        }
      }
    }
    // Both budget flags land in one ps-granular cap; when both are given the
    // stricter one wins.
    const uint64_t ms_ps = saturating_mul_u64(args.get_unsigned("--max-point-ms"),
                                              1'000'000'000ull);
    const uint64_t us_ps = saturating_mul_u64(args.get_unsigned("--max-point-us"),
                                              1'000'000ull);
    opts.max_point_time_ps = ms_ps == 0   ? us_ps
                             : us_ps == 0 ? ms_ps
                                          : std::min(ms_ps, us_ps);
    opts.metrics = obs.registry();
    opts.trace = obs.sink();
    opts.journal_path = args.get("--journal");
    opts.scenario_timeout_ms = static_cast<uint64_t>(args.get_unsigned("--scenario-timeout-ms"));
    opts.max_retries = args.get_unsigned("--retries");
    opts.retry_backoff_ms = std::max(1u, args.get_unsigned("--retry-backoff-ms"));
    opts.cancel = &g_interrupted;
    std::signal(SIGINT, on_sigint);
    if (opts.budget == 0) {
      std::fprintf(stderr, "pimdse: --budget must be >= 1\n");
      return 2;
    }
    if (!args.has("--quiet")) {
      opts.progress = [](const dse::EvaluatedPoint& p, size_t done, size_t total) {
        std::fprintf(stderr, "[%zu/%zu] %-44s %s%s\n", done, total, p.label.c_str(),
                     !p.feasible ? "infeasible" : (p.ok ? "ok" : "FAILED"),
                     p.from_cache ? " (cached)" : "");
      };
    }

    std::fprintf(stderr,
                 "pimdse: space \"%s\" (%llu grid points, %zu knobs), sampler %s, "
                 "budget %zu\n",
                 space.name.c_str(), static_cast<unsigned long long>(space.grid_size()),
                 space.knobs.size(), opts.sampler.c_str(), opts.budget);

    const dse::ExploreResult res = dse::explore(space, opts);

    if (res.journal_replayed > 0 || res.journal_discarded > 0) {
      std::fprintf(stderr, "journal: replayed %zu point%s", res.journal_replayed,
                   res.journal_replayed == 1 ? "" : "s");
      if (res.journal_discarded > 0) {
        std::fprintf(stderr, ", discarded %zu corrupt/partial line%s", res.journal_discarded,
                     res.journal_discarded == 1 ? "" : "s");
      }
      std::fprintf(stderr, "\n");
    }

    // Deterministic report on stdout.
    std::printf("== %s: Pareto frontier over {%s} ==\n\n", space.name.c_str(),
                [&] {
                  std::string s;
                  for (const std::string& o : res.objectives) s += (s.empty() ? "" : ", ") + o;
                  return s;
                }()
                    .c_str());
    std::printf("%s\n", res.frontier_table().c_str());
    const std::string chart = res.chart();
    if (!chart.empty()) std::printf("%s\n", chart.c_str());
    std::printf("%s\n", res.summary().c_str());

    std::printf("cache: %zu hits, %zu misses (%.1f%% hit rate)\n", res.cache.hits,
                res.cache.misses, 100.0 * res.cache.hit_rate());
    std::printf("artifacts: %s\n", res.artifacts.summary().c_str());
    // Host timing on stderr: everything above depends only on the
    // exploration, everything below on the machine it ran on.
    std::fprintf(stderr, "explored in %.1f ms on %u jobs\n", res.wall_ms, res.jobs);

    if (!args.get("--out").empty()) {
      tools::write_text("pimdse", args.get("--out"), res.to_json().dump(2) + "\n");
    }
    if (!args.get("--csv").empty()) tools::write_text("pimdse", args.get("--csv"), res.csv());
    obs.finish("pimdse");

    if (res.interrupted) {
      // The partial result (marked "interrupted": true) and the journal are
      // both on disk; the conventional 128+SIGINT exit code tells scripts the
      // run was cut short, not that it failed.
      std::fprintf(stderr, "pimdse: interrupted — %zu point%s completed%s\n",
                   res.points.size(), res.points.size() == 1 ? "" : "s",
                   opts.journal_path.empty()
                       ? ""
                       : ("; rerun with --journal " + opts.journal_path + " to continue").c_str());
      return 130;
    }
    return res.frontier.empty() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimdse: %s\n", e.what());
    return 1;
  }
}
