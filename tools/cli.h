// Declarative argument parser shared by the command-line tools.
//
// Replaces the ad-hoc argv scans: every tool declares its options up front,
// which buys (a) a generated --help page, (b) rejection of unknown or
// malformed flags instead of silently ignoring them, and (c) numeric
// parsing with real error messages instead of atoi's silent zeros.
//
//   tools::ArgParser args("pimdse", "explore an architecture design space");
//   args.option("--space", "FILE", "", "search-space JSON (required)");
//   args.option("--jobs", "N", "0", "worker threads (0 = all hardware threads)");
//   args.flag("--quiet", "suppress per-point progress");
//   args.parse(argc, argv);                 // --help prints and exits 0
//   const unsigned jobs = args.get_unsigned("--jobs");
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "config/arch_config.h"
#include "telemetry/telemetry.h"

namespace pim::tools {

/// Write `text` to `path`, exiting 1 with a diagnostic on failure (shared
/// by the tools' --json/--md/--out/--csv outputs).
inline void write_text(const char* prog, const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

class ArgParser {
 public:
  ArgParser(std::string prog, std::string summary)
      : prog_(std::move(prog)), summary_(std::move(summary)) {}

  /// Declare a value-taking option. `fallback` is returned by get() when the
  /// option is absent from the command line.
  ArgParser& option(const std::string& name, const std::string& value_name,
                    const std::string& fallback, const std::string& help) {
    specs_.push_back({name, value_name, fallback, help, /*is_flag=*/false, "", false});
    return *this;
  }

  /// Declare a boolean flag.
  ArgParser& flag(const std::string& name, const std::string& help) {
    specs_.push_back({name, "", "", help, /*is_flag=*/true, "", false});
    return *this;
  }

  /// Declare the tool's one bare argument (an input file, say), read with
  /// has(name)/get(name) like an option. A second bare argument is unknown.
  ArgParser& positional(const std::string& name, const std::string& help) {
    specs_.push_back({name, "", "", help, /*is_flag=*/false, "", false, /*is_positional=*/true});
    return *this;
  }

  /// Parse the command line. Prints help and exits 0 on --help/-h; prints a
  /// diagnostic and exits 2 on unknown or malformed arguments.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(help_text().c_str(), stdout);
        std::exit(0);
      }
      Spec* s = find(arg);
      if (s == nullptr) {
        fail("unknown argument \"" + arg + "\"");
      }
      s->seen = true;
      if (s->is_positional) {
        s->value = arg;
      } else if (!s->is_flag) {
        if (i + 1 >= argc) fail("option " + arg + " needs a value");
        s->value = argv[++i];
      }
    }
  }

  /// True when the flag/option appeared on the command line.
  bool has(const std::string& name) const {
    const Spec* s = find_checked(name);
    return s->seen;
  }

  /// Option value (the declared fallback when absent).
  const std::string& get(const std::string& name) const {
    const Spec* s = find_checked(name);
    return s->seen ? s->value : s->fallback;
  }

  long get_int(const std::string& name) const {
    const std::string& v = get(name);
    char* end = nullptr;
    errno = 0;
    const long out = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || end == nullptr || *end != '\0') {
      fail("option " + name + " needs an integer, got \"" + v + "\"");
    }
    if (errno == ERANGE) {
      fail("option " + name + ": \"" + v + "\" is out of range");
    }
    return out;
  }

  unsigned get_unsigned(const std::string& name) const {
    const long v = get_int(name);
    if (v < 0) fail("option " + name + " must be >= 0, got " + std::to_string(v));
    if (static_cast<unsigned long>(v) > std::numeric_limits<unsigned>::max()) {
      fail("option " + name + ": " + std::to_string(v) + " is out of range");
    }
    return static_cast<unsigned>(v);
  }

  std::string help_text() const {
    std::string out = prog_ + " — " + summary_ + "\n\nusage: " + prog_ + " [options]";
    for (const Spec& s : specs_) out += s.is_positional ? " " + s.name : "";
    out += "\n\noptions:\n";
    size_t w = sizeof("--help") - 1;
    for (const Spec& s : specs_) w = std::max(w, s.name.size() + 1 + s.value_name.size());
    for (const Spec& s : specs_) {
      const std::string left = s.is_flag ? s.name : s.name + " " + s.value_name;
      out += "  " + left + std::string(w + 2 - left.size(), ' ') + s.help;
      if (!s.is_flag && !s.fallback.empty()) out += " [default: " + s.fallback + "]";
      out += "\n";
    }
    out += "  --help" + std::string(w + 2 - (sizeof("--help") - 1), ' ') + "show this message\n";
    return out;
  }

 private:
  struct Spec {
    std::string name, value_name, fallback, help;
    bool is_flag;
    std::string value;
    bool seen;
    bool is_positional = false;
  };

  [[noreturn]] void fail(const std::string& what) const {
    std::fprintf(stderr, "%s: %s (try --help)\n", prog_.c_str(), what.c_str());
    std::exit(2);
  }

  /// The spec a command-line word names: an option by name, or else the
  /// positional if the word is bare and the positional is still unseen.
  Spec* find(const std::string& arg) {
    for (Spec& s : specs_) {
      if (s.is_positional ? !s.seen && arg[0] != '-' : s.name == arg) return &s;
    }
    return nullptr;
  }
  const Spec* find_checked(const std::string& name) const {
    for (const Spec& s : specs_) {
      if (s.name == name) return &s;
    }
    fail("internal error: option \"" + name + "\" was never declared");
  }

  std::string prog_, summary_;
  std::vector<Spec> specs_;
};

/// --arch accepts the three named presets or a configuration file path.
inline config::ArchConfig arch_by_name_or_file(const std::string& name) {
  try {
    return config::ArchConfig::preset(name);
  } catch (const std::invalid_argument&) {
    return config::ArchConfig::load(name);
  }
}

/// Declare the observability options every CLI shares: --log-level,
/// --trace-out and --metrics-out. Pair with Observability::from_args().
inline void add_observability_options(ArgParser& args) {
  args.option("--log-level", "LEVEL", "warn",
              "log verbosity: trace, debug, info, warn, error, off");
  args.option("--trace-out", "FILE", "",
              "write a Chrome/Perfetto trace-event JSON timeline of the run");
  args.option("--metrics-out", "FILE", "", "write a metrics-registry JSON snapshot");
}

/// Set the global log level from --log-level. Exits 2 on a malformed level
/// (same contract as the parser).
inline void apply_log_level(const ArgParser& args, const char* prog) {
  const std::string& level = args.get("--log-level");
  log::Level parsed = log::Level::Warn;
  if (!log::parse_level(level, &parsed)) {
    std::fprintf(stderr, "%s: unknown --log-level \"%s\" (try --help)\n", prog, level.c_str());
    std::exit(2);
  }
  log::set_level(parsed);
}

/// The shared observability state of one tool invocation: an optional trace
/// sink and metrics registry (allocated only when the flags asked for them)
/// plus the global log level. Call finish() once, after the work, to write
/// the output files.
struct Observability {
  std::unique_ptr<telemetry::TraceSink> trace;
  std::unique_ptr<telemetry::Registry> metrics;
  std::string trace_path;
  std::string metrics_path;

  /// Apply --log-level and materialize the sinks --trace-out/--metrics-out
  /// asked for. Exits 2 on a malformed level (same contract as the parser).
  static Observability from_args(const ArgParser& args, const char* prog) {
    Observability obs;
    apply_log_level(args, prog);
    obs.trace_path = args.get("--trace-out");
    obs.metrics_path = args.get("--metrics-out");
    if (!obs.trace_path.empty()) obs.trace = std::make_unique<telemetry::TraceSink>();
    if (!obs.metrics_path.empty()) obs.metrics = std::make_unique<telemetry::Registry>();
    return obs;
  }

  telemetry::TraceSink* sink() const { return trace.get(); }
  telemetry::Registry* registry() const { return metrics.get(); }

  /// Write the requested output files; exits 1 with a diagnostic on I/O
  /// failure. Safe to call when neither flag was given. Notices go to
  /// stderr so --json report output on stdout stays machine-parseable.
  void finish(const char* prog) const {
    try {
      if (trace) {
        trace->write(trace_path);
        std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
      }
      if (metrics) {
        metrics->write(metrics_path);
        std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", prog, e.what());
      std::exit(1);
    }
  }
};

}  // namespace pim::tools
