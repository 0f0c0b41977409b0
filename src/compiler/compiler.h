// Compiler: lowers a network graph onto a configured chip, producing an ISA
// program (paper Fig. 1: Mapping -> Scheduling -> Operator Fusion -> Code
// Generation, modeled after PIMCOMP).
//
// Lowering scheme (per matrix layer, per output pixel):
//   1. the producer-home core gathers the im2col patch (HWC layout makes
//      this kernel_h contiguous copies + zero fills at the borders; 1x1
//      convolutions and FC layers need no gather at all),
//   2. the patch's row-slices are scattered to the cores holding the
//      corresponding stripes (synchronized SEND/RECV; local stripes read the
//      patch in place),
//   3. each crossbar group runs one MVM producing int32 partial sums,
//   4. partials travel to the layer's aggregator core, which accumulates
//      them onto the preloaded bias, applies the (optionally fused) ReLU,
//      and requantizes the pixel's output channels to int8.
// Non-matrix layers (pool/add/concat/...) run on their producer's home core
// as vector programs. Flatten and folded ReLU are free (buffer aliases).
//
// The generated program is deadlock-free by construction: every core's
// instruction stream is the projection of one global (layer, pixel, step)
// order, and rendezvous channels are FIFO per core pair.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "compiler/mapping.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "nn/graph.h"

namespace pim::compiler {

struct CompileOptions {
  MappingPolicy policy = MappingPolicy::PerformanceFirst;
  /// Fold a ReLU that solely consumes a Conv/FC into the aggregation
  /// (applied on the int32 accumulator before requantization). Purely a
  /// performance knob: results are bit-identical either way.
  bool fuse_relu = true;
  /// Global-memory byte addresses of the network input/output tensors.
  uint64_t input_gaddr = 0;
  uint64_t output_gaddr = 16ull * 1024 * 1024;
  /// Embed functional weights into the group table (required for functional
  /// simulation; drop for timing-only runs to save memory).
  bool include_weights = true;
  /// Weight replication cap (performance-first only): duplicate each conv
  /// layer's matrix up to this many times onto spare crossbars, so
  /// consecutive output pixels rotate over independent replicas and compute
  /// concurrently (PIMCOMP-style duplication). 1 = off.
  uint32_t replication = 1;
  /// Number of input images processed by one program. Images stream through
  /// the layer pipeline back to back (activation buffers are reused; the
  /// hazard logic enforces per-layer image ordering), so throughput
  /// amortizes the pipeline fill/drain. Image b's input tensor is read at
  /// input_gaddr + b*input_bytes and its output stored at
  /// output_gaddr + b*output_bytes.
  uint32_t batch = 1;
};

/// Compilation metadata for inspection, tests and benches.
struct CompileReport {
  Mapping mapping;
  size_t total_instructions = 0;
  size_t mvm_instructions = 0;
  size_t transfer_instructions = 0;
  size_t vector_instructions = 0;
  uint64_t lm_bytes_peak = 0;  ///< max local-memory footprint over cores
};

/// Compile `graph` for `cfg`. The graph must have shapes inferred and (for
/// functional simulation) parameters initialized. Throws on infeasible
/// mappings or local-memory overflow. The program is verified against `cfg`
/// before it is returned; `proof`, when non-null, receives the proof of
/// that check (see isa::VerifyProof), which stays valid for the returned
/// program as long as nobody modifies it.
isa::Program compile(const nn::Graph& graph, const config::ArchConfig& cfg,
                     const CompileOptions& options = {}, CompileReport* report = nullptr,
                     std::optional<isa::VerifyProof>* proof = nullptr);

}  // namespace pim::compiler
