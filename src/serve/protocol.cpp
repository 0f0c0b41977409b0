#include "serve/protocol.h"

#include <cstdint>

#include "common/strings.h"
#include "config/arch_config.h"
#include "workload/workload.h"

namespace pim::serve {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Evaluate: return "evaluate";
    case Kind::Batch: return "batch";
    case Kind::Stats: return "stats";
    case Kind::Shutdown: return "shutdown";
  }
  return "evaluate";
}

Request parse_request(const std::string& line, size_t max_bytes) {
  if (max_bytes > 0 && line.size() > max_bytes) {
    throw ProtocolError(errc::kBadRequest,
                        strformat("request of %zu bytes exceeds the %zu-byte limit",
                                  line.size(), max_bytes));
  }
  json::Value v;
  try {
    v = json::parse(line);
  } catch (const json::Error& e) {
    throw ProtocolError(errc::kBadRequest, e.what());
  }
  if (!v.is_object()) {
    throw ProtocolError(errc::kBadRequest, "request must be a JSON object");
  }
  Request req;
  if (v.contains("id")) req.id = v.at("id");
  const std::string kind = v.get_or("kind", std::string());
  if (kind == "evaluate") {
    req.kind = Kind::Evaluate;
  } else if (kind == "batch") {
    req.kind = Kind::Batch;
  } else if (kind == "stats") {
    req.kind = Kind::Stats;
  } else if (kind == "shutdown") {
    req.kind = Kind::Shutdown;
  } else {
    throw ProtocolError(errc::kBadRequest,
                        "unknown request kind \"" + kind +
                            "\" (expected evaluate|batch|stats|shutdown)");
  }
  req.body = std::move(v);
  return req;
}

json::Value ok_reply(const Request& req) {
  json::Value v;
  v["id"] = req.id;
  v["kind"] = json::Value(kind_name(req.kind));
  v["ok"] = json::Value(true);
  return v;
}

json::Value error_reply(const json::Value& id, const std::string& code,
                        const std::string& message) {
  json::Value v;
  v["id"] = id;
  v["ok"] = json::Value(false);
  json::Value err;
  err["code"] = json::Value(code);
  err["message"] = json::Value(message);
  v["error"] = std::move(err);
  return v;
}

runtime::Scenario scenario_from_request(const json::Value& body,
                                        const std::string& base_dir) {
  try {
    runtime::Scenario s;
    const std::string wl = body.get_or("workload", std::string());
    if (wl.empty()) {
      throw ProtocolError(errc::kBadRequest, "evaluate needs a \"workload\"");
    }
    const int64_t input_hw = body.get_or("input_hw", int64_t{32});
    if (input_hw < 1 || input_hw > INT32_MAX) {
      throw ProtocolError(errc::kBadRequest, "\"input_hw\" must be a positive integer");
    }
    s.workload = workload::parse_workload_token(wl, static_cast<int32_t>(input_hw), base_dir);
    if (body.contains("config")) {
      const json::Value& c = body.at("config");
      if (c.is_object()) {
        s.arch = config::ArchConfig::from_json(c);
      } else {
        s.arch = config::ArchConfig::load(resolve_path(c.as_string(), base_dir));
      }
    } else {
      s.arch = config::ArchConfig::preset(body.get_or("arch", "paper"));
    }
    s.copts.policy = runtime::policy_from_name(body.get_or("policy", "perf"));
    const int64_t batch = body.get_or("batch", int64_t{1});
    if (batch < 1) throw ProtocolError(errc::kBadRequest, "\"batch\" must be >= 1");
    s.copts.batch = static_cast<uint32_t>(batch);
    const int64_t repl = body.get_or("replication", int64_t{1});
    if (repl < 1) throw ProtocolError(errc::kBadRequest, "\"replication\" must be >= 1");
    s.copts.replication = static_cast<uint32_t>(repl);
    s.functional = body.get_or("functional", false);
    const int64_t seed = body.get_or("input_seed", int64_t{7});
    if (seed < 0) throw ProtocolError(errc::kBadRequest, "\"input_seed\" must be >= 0");
    s.input_seed = static_cast<uint64_t>(seed);
    if (body.contains("max_time_ps")) {
      const int64_t ps = body.at("max_time_ps").as_int();
      if (ps < 0) throw ProtocolError(errc::kBadRequest, "\"max_time_ps\" must be >= 0");
      s.arch.sim.max_time_ps = static_cast<uint64_t>(ps);
    }
    s.name = body.get_or("name", std::string());
    if (s.name.empty()) s.name = s.derive_name();
    return s;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // json shape errors, unknown presets/policies, unreadable config files.
    throw ProtocolError(errc::kBadRequest, e.what());
  }
}

std::vector<runtime::Scenario> sweep_from_request(const json::Value& body,
                                                  const std::string& base_dir) {
  try {
    return runtime::sweep_from_json(body, base_dir);
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(errc::kBadRequest, e.what());
  }
}

}  // namespace pim::serve
