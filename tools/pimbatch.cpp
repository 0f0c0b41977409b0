// pimbatch — parallel scenario driver.
//
// Fans a sweep of independent simulations (workload x mapping policy x batch
// size) out across a host thread pool, one sim::Kernel per worker, and emits
// an aggregate markdown/JSON summary with the measured speedup over a serial
// run. Per-scenario results are bit-identical regardless of --jobs.
//
//   pimbatch --models tiny_cnn,mlp --policies perf,util --batches 1,2
//            --arch tiny --input-hw 8 --functional --jobs 4 --verify
//
// Workloads are first-class: --models entries may name a zoo network,
// "mlp", or a JSON graph description file, and --workload FILE appends one
// more graph file to the sweep — networks that were never compiled in run
// through the same pipeline (see pimwl for exporting/inspecting files).
//
//   pimbatch --workload nets/my_net.json --policies perf --batches 1,2
//
//   --jobs 0 (default) uses all hardware threads; --jobs 1 is the serial
//   reference. --verify reruns the sweep serially and checks bit-identity.
//   --scenarios loads the sweep spec from JSON instead of the flags:
//     {"models": [...], "policies": [...], "batches": [...],
//      "arch": "tiny", "input_hw": 8, "functional": true,
//      "workloads": [{"kind": "graph_file", "path": "net.json"}, ...]}
#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/strings.h"
#include "config/arch_config.h"
#include "dse/cache.h"
#include "json/json.h"
#include "runtime/batch_runner.h"
#include "workload/workload.h"
#include "cli.h"

namespace {

using namespace pim;

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "pimbatch: %s\n", what.c_str());
  std::exit(2);
}

/// First ^C drains: in-flight scenarios finish, their results are journaled,
/// unclaimed scenarios are skipped and the partial summary is written. A
/// second ^C restores the default disposition and kills immediately.
std::atomic<bool> g_interrupted{false};

extern "C" void on_sigint(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

/// Identity of one sweep for journal matching: every scenario's name plus its
/// full simulation cache key (simulator model version, architecture JSON,
/// workload content fingerprint, compile options), in sweep order. Changing anything that
/// could change a result makes an old journal unusable.
std::string sweep_fingerprint(const std::vector<runtime::Scenario>& scenarios) {
  json::Array arr;
  for (const runtime::Scenario& s : scenarios) {
    json::Value e;
    e["name"] = json::Value(s.name);
    e["key"] = json::Value(dse::scenario_key(s));
    arr.push_back(std::move(e));
  }
  return strformat("%016llx", static_cast<unsigned long long>(
                                  fnv1a64(json::Value(std::move(arr)).dump())));
}

/// Flag-path wrappers: bad flag values are usage errors (exit 2, message on
/// stderr), so the library's std::invalid_argument becomes die() here.
config::ArchConfig arch_by_name(const std::string& name) {
  try {
    return config::ArchConfig::preset(name);
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

compiler::MappingPolicy parse_policy(const std::string& p) {
  try {
    return runtime::policy_from_name(p);
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

std::vector<uint32_t> parse_batches(const std::string& csv) {
  std::vector<uint32_t> out;
  for (const std::string& tok : split(csv, ',')) {
    const int v = std::atoi(tok.c_str());
    if (v < 1) die("--batches entries must be integers >= 1, got \"" + tok + "\"");
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

std::vector<compiler::MappingPolicy> parse_policies(const std::string& csv) {
  std::vector<compiler::MappingPolicy> out;
  for (const std::string& tok : split(csv, ',')) out.push_back(parse_policy(tok));
  return out;
}

/// Parse --models / --workload tokens into specs (zoo name, "mlp", or a
/// graph description file), resolving relative file paths against `base_dir`.
std::vector<workload::WorkloadSpec> parse_workloads(const std::vector<std::string>& tokens,
                                                    int32_t input_hw,
                                                    const std::string& base_dir = "") {
  std::vector<workload::WorkloadSpec> out;
  out.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    out.push_back(workload::parse_workload_token(tok, input_hw, base_dir));
  }
  return out;
}

/// Sweep spec from JSON (see runtime::sweep_from_json for the schema); flags
/// override nothing here — the file is authoritative when --scenarios is
/// given. Schema/value errors propagate and exit 1 via main's handler.
std::vector<runtime::Scenario> sweep_from_file(const std::string& path) {
  return runtime::sweep_from_json(json::parse_file(path), dirname(path));
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args("pimbatch", "run a sweep of simulations across a host thread pool");
  args.option("--models", "LIST", "tiny_cnn,mlp",
              "comma-separated workloads: zoo names, \"mlp\", or graph .json files");
  args.option("--workload", "FILE", "", "append one graph description file to the sweep");
  args.option("--policies", "LIST", "perf,util", "comma-separated mapping policies");
  args.option("--batches", "LIST", "1,2", "comma-separated batch sizes");
  args.option("--arch", "NAME", "tiny", "architecture preset: tiny|paper|mnsim");
  args.option("--config", "FILE", "", "architecture JSON (overrides --arch)");
  args.option("--input-hw", "N", "8", "input resolution");
  args.option("--replication", "N", "1", "weight replication cap (perf policy)");
  args.option("--scenarios", "FILE", "", "sweep spec JSON (overrides the sweep flags)");
  args.option("--jobs", "N", "0", "worker threads (0 = all hardware threads)");
  args.option("--journal", "FILE", "",
              "crash-safety sidecar: append every completed scenario "
              "(checksummed, fsync'd); if FILE already holds a journal of "
              "this sweep, completed scenarios replay instead of re-running");
  args.option("--scenario-timeout-ms", "N", "0",
              "per-scenario wall-clock watchdog: kill any single simulation "
              "that runs longer than N host ms (0 = off)");
  args.option("--retries", "N", "0",
              "retry a scenario up to N times after a transient failure "
              "(vanished/unreadable workload file)");
  args.option("--retry-backoff-ms", "N", "10", "base backoff between retries (doubles per attempt)");
  args.flag("--functional", "move real data and check outputs");
  args.flag("--verify", "rerun serially and check bit-identity");
  args.option("--json", "FILE", "", "write the summary as JSON");
  args.option("--md", "FILE", "", "write the summary as markdown");
  args.flag("--quiet", "suppress per-scenario progress");
  tools::add_observability_options(args);
  args.parse(argc, argv);

  tools::Observability obs = tools::Observability::from_args(args, "pimbatch");

  try {
    const unsigned jobs = args.get_unsigned("--jobs");
    const bool quiet = args.has("--quiet");

    std::vector<runtime::Scenario> scenarios;
    if (!args.get("--scenarios").empty()) {
      scenarios = sweep_from_file(args.get("--scenarios"));
    } else {
      config::ArchConfig arch = !args.get("--config").empty()
                                    ? config::ArchConfig::load(args.get("--config"))
                                    : arch_by_name(args.get("--arch"));
      const int32_t input_hw = static_cast<int32_t>(args.get_int("--input-hw"));
      // --workload alone sweeps just that file; the --models default only
      // applies when no workload was named (or --models was given explicitly).
      std::vector<std::string> tokens;
      if (args.has("--models") || args.get("--workload").empty()) {
        tokens = split(args.get("--models"), ',');
      }
      if (!args.get("--workload").empty()) tokens.push_back(args.get("--workload"));
      scenarios = runtime::expand_sweep(
          parse_workloads(tokens, input_hw), parse_policies(args.get("--policies")),
          parse_batches(args.get("--batches")), arch, args.has("--functional"));
      const unsigned repl = args.get_unsigned("--replication");
      if (repl < 1) die("--replication must be >= 1");
      for (runtime::Scenario& s : scenarios) {
        s.copts.replication = repl;
        if (repl > 1) s.name = s.derive_name();
      }
    }
    if (scenarios.empty()) die("empty scenario list");

    // Crash-safety sidecar: completed scenarios replay from the journal
    // instead of re-simulating; only the not-yet-journaled subset runs.
    const std::string journal_path = args.get("--journal");
    journal::Journal jrnl;
    std::map<std::string, json::Value> replayed;  // scenario name -> journaled result row
    if (!journal_path.empty()) {
      jrnl.open(journal_path, sweep_fingerprint(scenarios), [&](const json::Value& rec) {
        replayed[rec.get_or("name", std::string())] = rec;
      });
      if (jrnl.replayed() > 0 || jrnl.discarded() > 0) {
        std::fprintf(stderr, "journal: replayed %zu scenario%s", jrnl.replayed(),
                     jrnl.replayed() == 1 ? "" : "s");
        if (jrnl.discarded() > 0) {
          std::fprintf(stderr, ", discarded %zu corrupt/partial line%s", jrnl.discarded(),
                       jrnl.discarded() == 1 ? "" : "s");
        }
        std::fprintf(stderr, "\n");
      }
    }
    std::vector<runtime::Scenario> to_run;
    to_run.reserve(scenarios.size());
    for (const runtime::Scenario& s : scenarios) {
      if (!replayed.count(s.name)) to_run.push_back(s);
    }

    runtime::BatchRunner runner(jobs);
    runner.set_trace(obs.sink());
    runner.set_metrics(obs.registry());
    runner.set_scenario_timeout_ms(args.get_unsigned("--scenario-timeout-ms"));
    runner.set_retry(args.get_unsigned("--retries"),
                     std::max(1u, args.get_unsigned("--retry-backoff-ms")));
    runner.set_cancel(&g_interrupted);
    std::signal(SIGINT, on_sigint);
    if (!quiet) {
      std::printf("pimbatch: %zu scenarios on %u jobs", to_run.size(), runner.jobs());
      if (!replayed.empty()) std::printf(" (%zu replayed from journal)", replayed.size());
      std::printf("\n");
    }
    // The runner serializes progress callbacks, so the journal (not
    // thread-safe by itself) is safe to append from here. One flush per
    // completed scenario bounds a crash's loss window to the in-flight work.
    // Watchdog kills are host-machine artifacts, never journaled — a resume
    // on a less-loaded machine re-attempts them.
    runner.set_progress([&](const runtime::ScenarioResult& r, size_t completed, size_t total) {
      if (!quiet) {
        std::printf("[%zu/%zu] %-28s %s  (%.1f ms host)\n", completed, total, r.name.c_str(),
                    r.ok ? "ok" : ("FAILED: " + r.error).c_str(), r.wall_ms);
        std::fflush(stdout);
      }
      if (jrnl.is_open() && !r.skipped && r.fail_kind != runtime::FailKind::WallTimeout) {
        jrnl.append(r.to_json());
        jrnl.flush();
      }
    });

    runtime::BatchResult result = runner.run(to_run);
    std::printf("\n%s", result.markdown().c_str());
    if (!replayed.empty()) {
      std::printf("(%zu scenario%s replayed from %s)\n", replayed.size(),
                  replayed.size() == 1 ? "" : "s", journal_path.c_str());
    }

    bool verified_ok = true;
    if (args.has("--verify") && !result.interrupted) {
      if (!quiet) std::printf("\nverify: rerunning %zu scenarios serially...\n", to_run.size());
      runtime::BatchResult serial = runtime::BatchRunner(1).run(to_run);
      const std::vector<std::string> diffs = runtime::compare_results(result, serial);
      for (const std::string& d : diffs) std::fprintf(stderr, "mismatch: %s\n", d.c_str());
      verified_ok = diffs.empty();
      std::printf("determinism check vs serial: %s\n", verified_ok ? "PASS" : "FAIL");
    }

    // Merge journaled rows back into the summary in original sweep order, so
    // a resumed run's JSON covers the whole sweep, not just the fresh subset.
    json::Value out = result.to_json();
    bool all_ok = !scenarios.empty();
    {
      json::Array merged;
      merged.reserve(scenarios.size());
      size_t fresh = 0;
      for (const runtime::Scenario& s : scenarios) {
        auto it = replayed.find(s.name);
        if (it != replayed.end()) {
          merged.push_back(it->second);
        } else {
          merged.push_back(result.results[fresh++].to_json());
        }
        all_ok = all_ok && merged.back().get_or("ok", false);
      }
      out["scenarios"] = json::Value(std::move(merged));
      out["all_ok"] = json::Value(all_ok);
    }

    if (!args.get("--json").empty()) {
      tools::write_text("pimbatch", args.get("--json"), out.dump(2) + "\n");
    }
    if (!args.get("--md").empty()) tools::write_text("pimbatch", args.get("--md"), result.markdown());
    obs.finish("pimbatch");

    if (result.interrupted) {
      size_t skipped = 0;
      for (const runtime::ScenarioResult& r : result.results) skipped += r.skipped ? 1 : 0;
      const size_t done = replayed.size() + to_run.size() - skipped;
      std::fprintf(stderr, "pimbatch: interrupted — %zu of %zu scenario%s completed%s\n", done,
                   scenarios.size(), scenarios.size() == 1 ? "" : "s",
                   journal_path.empty()
                       ? ""
                       : ("; rerun with --journal " + journal_path + " to continue").c_str());
      return 130;
    }
    return all_ok && verified_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimbatch: %s\n", e.what());
    return 1;
  }
}
