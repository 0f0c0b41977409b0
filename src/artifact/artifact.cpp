#include "artifact/artifact.h"

#include "common/strings.h"
#include "stats/report.h"

namespace pim::artifact {

uint64_t options_key(const compiler::CompileOptions& copts) {
  json::Value v;
  v["policy"] = json::Value(
      copts.policy == compiler::MappingPolicy::UtilizationFirst ? "util" : "perf");
  v["fuse_relu"] = json::Value(copts.fuse_relu);
  v["input_gaddr"] = json::Value(copts.input_gaddr);
  v["output_gaddr"] = json::Value(copts.output_gaddr);
  v["include_weights"] = json::Value(copts.include_weights);
  v["replication"] = json::Value(copts.replication);
  v["batch"] = json::Value(copts.batch);
  return fnv1a64(v.dump());
}

StoreStats StoreStats::operator-(const StoreStats& rhs) const {
  StoreStats d;
  d.graph_hits = graph_hits - rhs.graph_hits;
  d.graph_misses = graph_misses - rhs.graph_misses;
  d.program_hits = program_hits - rhs.program_hits;
  d.program_misses = program_misses - rhs.program_misses;
  d.evictions = evictions - rhs.evictions;
  return d;
}

std::string StoreStats::summary() const {
  return stats::counter_list({{"graph hits", graph_hits},
                              {"graph misses", graph_misses},
                              {"program hits", program_hits},
                              {"program misses", program_misses},
                              {"evictions", evictions}});
}

json::Value StoreStats::to_json() const {
  json::Value v;
  v["graph_hits"] = json::Value(static_cast<uint64_t>(graph_hits));
  v["graph_misses"] = json::Value(static_cast<uint64_t>(graph_misses));
  v["program_hits"] = json::Value(static_cast<uint64_t>(program_hits));
  v["program_misses"] = json::Value(static_cast<uint64_t>(program_misses));
  v["evictions"] = json::Value(static_cast<uint64_t>(evictions));
  return v;
}

void StoreStats::publish(telemetry::Registry& registry) const {
  registry.counter("artifact.graph_hits").add(graph_hits);
  registry.counter("artifact.graph_misses").add(graph_misses);
  registry.counter("artifact.program_hits").add(program_hits);
  registry.counter("artifact.program_misses").add(program_misses);
  registry.counter("artifact.evictions").add(evictions);
}

Store::Store() : Store(Options{}) {}

Store::Store(const Options& opt) : opt_(opt) {}

StoreStats Store::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

std::string graph_slot_key(uint64_t fingerprint, bool init_params) {
  return strformat("%016llx:%d", static_cast<unsigned long long>(fingerprint),
                   init_params ? 1 : 0);
}

}  // namespace

template <typename V>
void Store::evict_locked(std::map<std::string, std::shared_ptr<Slot<V>>>* slots, size_t cap) {
  while (cap > 0 && slots->size() > cap) {
    auto victim = slots->end();
    for (auto it = slots->begin(); it != slots->end(); ++it) {
      if (!it->second->done) continue;  // never drop an in-flight build
      if (victim == slots->end() || it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == slots->end()) return;  // everything over the cap is in flight
    slots->erase(victim);
    ++stats_.evictions;
  }
}

template <typename V>
std::shared_ptr<const V> Store::get(std::map<std::string, std::shared_ptr<Slot<V>>>* slots,
                                    const std::string& key, size_t cap, size_t* hits,
                                    size_t* misses,
                                    const std::function<std::shared_ptr<const V>()>& build) {
  std::shared_ptr<Slot<V>> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots->find(key);
    if (it == slots->end()) {
      slot = std::make_shared<Slot<V>>();
      (*slots)[key] = slot;
      ++*misses;
    } else {
      slot = it->second;
      ++*hits;
    }
  }
  // Single-flight: exactly one caller runs `build`, everyone else blocks on
  // the same flag. call_once retries a callable that throws (the flag stays
  // unset), which would break the compiles-exactly-once guarantee for
  // failing keys — so failures are captured into the slot and rethrown,
  // never allowed to escape the callable.
  std::call_once(slot->once, [&] {
    try {
      slot->value = build();
    } catch (...) {
      slot->error = std::current_exception();
    }
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot->done = true;
    slot->last_used = ++tick_;
    evict_locked(slots, cap);
  }
  if (slot->error) std::rethrow_exception(slot->error);
  return slot->value;
}

GraphHandle Store::graph(const workload::WorkloadSpec& spec, bool init_params) {
  GraphHandle h;
  h.init_params = init_params;
  if (spec.kind == workload::Kind::GraphFile) {
    // Re-read the file on every request: the handle must fingerprint the
    // bytes just parsed, never a cached stale identity. Content-identical
    // requests then share the already-built graph (the build is
    // deterministic in the content, so either copy is bit-equivalent).
    workload::FingerprintedWorkload fw = workload::fingerprint_and_build(spec, init_params);
    h.fingerprint = fw.fingerprint;
    const std::string key = graph_slot_key(fw.fingerprint, init_params);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = graphs_.find(key);
    if (it != graphs_.end() && it->second->done && !it->second->error) {
      ++stats_.graph_hits;
      it->second->last_used = ++tick_;
      h.built = it->second->value;
      return h;
    }
    auto slot = std::make_shared<GraphSlot>();
    std::call_once(slot->once, [&] {
      slot->value = std::make_shared<const workload::BuiltWorkload>(std::move(fw.built));
    });
    slot->done = true;
    slot->last_used = ++tick_;
    graphs_[key] = slot;
    ++stats_.graph_misses;
    evict_locked(&graphs_, opt_.max_graphs);
    h.built = slot->value;
    return h;
  }
  h.fingerprint = spec.fingerprint();
  h.built = get<workload::BuiltWorkload>(
      &graphs_, graph_slot_key(h.fingerprint, init_params), opt_.max_graphs,
      &stats_.graph_hits, &stats_.graph_misses, [&] {
        return std::make_shared<const workload::BuiltWorkload>(
            workload::build(spec, init_params));
      });
  return h;
}

std::shared_ptr<const runtime::CompiledNetwork> Store::program(
    const GraphHandle& handle, const config::ArchConfig& cfg,
    const compiler::CompileOptions& copts) {
  if (handle.built == nullptr) {
    throw std::invalid_argument("artifact: program() needs a resolved graph handle");
  }
  const std::string key =
      strformat("g%016llx:i%d:a%016llx:o%016llx",
                static_cast<unsigned long long>(handle.fingerprint),
                handle.init_params ? 1 : 0,
                static_cast<unsigned long long>(arch_key(cfg)),
                static_cast<unsigned long long>(options_key(copts)));
  return get<runtime::CompiledNetwork>(
      &programs_, key, opt_.max_programs, &stats_.program_hits, &stats_.program_misses,
      [&] {
        return std::make_shared<const runtime::CompiledNetwork>(handle.built->graph, cfg,
                                                                copts);
      });
}

}  // namespace pim::artifact
