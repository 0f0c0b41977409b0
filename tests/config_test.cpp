// Unit tests for the architecture configuration module.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/arch_config.h"
#include "json/json.h"

namespace pim::config {
namespace {

TEST(ArchConfig, DefaultsValidate) {
  ArchConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ArchConfig, PresetsResolveConcurrentlyAsIndependentCopies) {
  // Placed before every other preset use, so the threads race on the
  // first parse of each preset (the case the TSan job checks).
  std::vector<std::thread> threads;
  std::vector<std::string> dumps(4);
  for (size_t t = 0; t < dumps.size(); ++t) {
    threads.emplace_back([&dumps, t] {
      for (const char* name : {"mnsim", "paper", "tiny"}) {
        ArchConfig cfg = ArchConfig::preset(name);
        dumps[t] += cfg.to_json().dump();
        cfg.core_count = 0;  // a copy: the next caller must not see this
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& d : dumps) EXPECT_EQ(d, dumps[0]);
  EXPECT_EQ(ArchConfig::preset("tiny").core_count, 4u);
}

TEST(ArchConfig, PresetsValidate) {
  EXPECT_NO_THROW(ArchConfig::preset("paper").validate());
  EXPECT_NO_THROW(ArchConfig::preset("mnsim").validate());
  EXPECT_NO_THROW(ArchConfig::preset("tiny").validate());
}

TEST(ArchConfig, PaperDefaultMatchesSection4A) {
  ArchConfig cfg = ArchConfig::preset("paper");
  EXPECT_EQ(cfg.core_count, 64u);
  EXPECT_EQ(cfg.core.matrix.xbar_count, 512u);
  EXPECT_EQ(cfg.core.matrix.xbar.rows, 128u);
  EXPECT_EQ(cfg.core.matrix.xbar.cols, 128u);
  EXPECT_EQ(cfg.mesh_width * cfg.mesh_height, cfg.core_count);
  EXPECT_EQ(cfg.total_xbars(), 64u * 512u);
}

TEST(ArchConfig, PhasesFormula) {
  XbarConfig x;
  x.weight_bits = 8;
  x.cell_bits = 2;
  x.input_bits = 8;
  x.dac_bits = 1;
  EXPECT_EQ(x.phases(), 4u * 8u);
  x.cell_bits = 8;
  x.dac_bits = 8;
  EXPECT_EQ(x.phases(), 1u);
  x.cell_bits = 3;  // ceil(8/3) = 3
  EXPECT_EQ(x.phases(), 3u * 1u);
}

TEST(ArchConfig, ValidationCatchesMeshMismatch) {
  ArchConfig cfg;
  cfg.core_count = 10;
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ArchConfig, ValidationCatchesBadUnits) {
  ArchConfig cfg;
  cfg.core.rob_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ArchConfig();
  cfg.core.matrix.adc_count = cfg.core.matrix.xbar_count + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ArchConfig();
  cfg.core.matrix.xbar.cell_bits = 9;  // > weight_bits
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ArchConfig();
  cfg.noc.link_bytes_per_cycle = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ArchConfig();
  cfg.core.local_memory.bytes_per_cycle = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ArchConfig, RegisterCountIsBoundedByTheRegisterFile) {
  // The core holds 32 registers and tracks register hazards in 32-bit masks.
  ArchConfig cfg = ArchConfig::preset("tiny");
  cfg.core.register_count = 32;
  EXPECT_NO_THROW(cfg.validate());
  for (const uint32_t count : {3u, 33u, 64u}) {
    cfg.core.register_count = count;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << count;
  }
}

TEST(ArchConfig, FromJsonRejectsUnknownKeysByDottedPath) {
  for (const auto& [text, path] :
       {std::pair{R"({"core": {"rob_sise": 2}})", "core.rob_sise"},
        std::pair{R"({"core": {"matrix": {"xbar": {"row": 64}}}})", "core.matrix.xbar.row"},
        std::pair{R"({"cores": 4})", "cores"},
        std::pair{R"({"sim": {"max_wall_ms": 5}})", "sim.max_wall_ms"}}) {
    try {
      ArchConfig::from_json(json::parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + path + "\""), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArchConfig, JsonRoundTripPreservesEverything) {
  ArchConfig cfg = ArchConfig::preset("paper");
  cfg.core.rob_size = 12;
  cfg.core.matrix.xbar.read_energy_pj = 4.5;
  cfg.noc.hop_latency_cycles = 3;
  cfg.sim.functional = false;
  ArchConfig back = ArchConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.core.rob_size, 12u);
  EXPECT_DOUBLE_EQ(back.core.matrix.xbar.read_energy_pj, 4.5);
  EXPECT_EQ(back.noc.hop_latency_cycles, 3u);
  EXPECT_FALSE(back.sim.functional);
  EXPECT_EQ(back.to_json(), cfg.to_json());
}

TEST(ArchConfig, MaxTimeIsPicosecondGranularAndTheMsKeyIsRefused) {
  ArchConfig ps = ArchConfig::from_json(json::parse(R"({"sim": {"max_time_ps": 2500}})"));
  EXPECT_EQ(ps.sim.max_time_ps, 2500u);
  EXPECT_EQ(ArchConfig::from_json(ps.to_json()).sim.max_time_ps, 2500u);
  // A millisecond budget is refused, not dropped: dropping it would turn a
  // bounded run into an unbounded one. The message names the key to use.
  for (const char* text : {R"({"sim": {"max_time_ms": 3}})",
                           R"({"sim": {"max_time_ps": 7, "max_time_ms": 3}})"}) {
    try {
      ArchConfig::from_json(json::parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("max_time_ps"), std::string::npos) << e.what();
    }
  }
}

TEST(ArchConfig, TraceFileKeyIsRefusedUnlessEmpty) {
  try {
    ArchConfig::from_json(json::parse(R"({"sim": {"trace_file": "run.trace"}})"));
    ADD_FAILURE() << "accepted a trace path";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--trace-out"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(ArchConfig::from_json(json::parse(R"({"sim": {"trace_file": ""}})")));
}

TEST(ArchConfig, LoadsAConfigSavedWithTheRemovedSimKeys) {
  // Older save() output carried two more sim keys; such files keep loading
  // and mean the same configuration.
  ArchConfig cfg = ArchConfig::preset("paper");
  cfg.sim.max_time_ps = 12345;
  cfg.sim.functional = false;
  json::Value old = cfg.to_json();
  old["sim"]["collect_unit_stats"] = json::Value(true);
  old["sim"]["trace_file"] = json::Value("");
  const std::string path = std::filesystem::temp_directory_path() / "pim_cfg_old_save.json";
  json::write_file(path, old);
  const ArchConfig back = ArchConfig::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.to_json(), cfg.to_json());
  EXPECT_EQ(back.to_json().at("sim").as_object().size(), 2u) << "sim is {max_time_ps, functional}";
}

TEST(ArchConfig, ShippedConfigsEqualThePresets) {
  // The files on disk are the presets' source; the library holds a copy
  // taken at configure time. Parsed raw, so a key dropped from to_json
  // cannot linger in the files, and a stale embedded copy shows here.
  for (const auto& [file, preset] : {std::pair{"tiny.json", "tiny"},
                                     std::pair{"paper_default.json", "paper"},
                                     std::pair{"mnsim_like.json", "mnsim"}}) {
    const json::Value raw = json::parse_file(std::string(PIM_CONFIGS_DIR "/") + file);
    EXPECT_EQ(raw, ArchConfig::preset(preset).to_json()) << file;
  }
}

TEST(ArchConfig, JsonPartialOverridesKeepDefaults) {
  json::Value v = json::parse(R"({"core_count": 16, "core": {"rob_size": 4}})");
  ArchConfig cfg = ArchConfig::from_json(v);
  EXPECT_EQ(cfg.core_count, 16u);
  EXPECT_EQ(cfg.core.rob_size, 4u);
  // Untouched fields keep defaults.
  EXPECT_EQ(cfg.core.matrix.xbar.rows, ArchConfig().core.matrix.xbar.rows);
}

TEST(ArchConfig, MeshDerivedWhenOmitted) {
  ArchConfig cfg = ArchConfig::from_json(json::parse(R"({"core_count": 12})"));
  EXPECT_EQ(cfg.mesh_width * cfg.mesh_height, 12u);
  // Squarest factorization of 12 is 4x3.
  EXPECT_EQ(std::min(cfg.mesh_width, cfg.mesh_height), 3u);
}

TEST(ArchConfig, SaveLoadFile) {
  const std::string path = std::filesystem::temp_directory_path() / "pim_cfg_test.json";
  ArchConfig cfg = ArchConfig::preset("mnsim");
  cfg.save(path);
  ArchConfig back = ArchConfig::load(path);
  EXPECT_EQ(back.to_json(), cfg.to_json());
  std::filesystem::remove(path);
}

TEST(ArchConfig, FromJsonValidates) {
  EXPECT_THROW(ArchConfig::from_json(json::parse(R"({"core_count": 0})")),
               std::invalid_argument);
}

}  // namespace
}  // namespace pim::config
