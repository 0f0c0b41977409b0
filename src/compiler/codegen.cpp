#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "compiler/compiler.h"

namespace pim::compiler {

using isa::DType;
using isa::Instruction;
using isa::Opcode;
using nn::Layer;
using nn::OpType;

namespace {

constexpr uint32_t kVecChunk = 4095;   ///< encoding limit of vector len
constexpr uint32_t kXferChunk = 4095;  ///< chunk for bulk transfers
constexpr uint32_t kAlign = 64;

/// A byte buffer placed in some core's local memory.
struct Buf {
  uint16_t core = 0;
  uint32_t addr = UINT32_MAX;
};

/// Scheduling work-unit granularities. The scheduler (the paper's
/// "Scheduling" compiler stage) interleaves the layers' instruction streams
/// unit by unit, so downstream layers start as soon as the window of
/// producer outputs they need exists — this is what enables cross-core
/// pipelining of consecutive layers at simulation time.
enum class UnitKind {
  Pixel,      ///< one output position   (conv, pool)
  Row,        ///< one output row        (relu, add, concat, input-load)
  Whole,      ///< everything at once    (fc, global pools, stores)
};

class Codegen {
 public:
  Codegen(const nn::Graph& graph, const config::ArchConfig& cfg, const CompileOptions& opts)
      : graph_(graph), cfg_(cfg), opts_(opts),
        mapping_(plan_mapping(graph, cfg, opts.policy, opts.replication)) {
    program_.network_name = graph.name();
    program_.mapping_policy = policy_name(opts.policy);
    program_.cores.resize(cfg.core_count);
    alloc_.assign(cfg.core_count, 0);
    consumers_ = graph.consumers();
  }

  isa::Program run(CompileReport* report) {
    plan_buffers();
    for (int32_t id : graph_.topo_order()) prepare_layer(graph_.layer(id));
    prepare_outputs();
    schedule();
    for (auto& cp : program_.cores) {
      if (!cp.code.empty() || !cp.groups.empty()) {
        Instruction halt;
        halt.op = Opcode::HALT;
        cp.code.push_back(halt);
      }
    }
    if (report != nullptr) {
      report->mapping = mapping_;
      report->total_instructions = program_.total_instructions();
      for (const auto& cp : program_.cores) {
        for (const Instruction& in : cp.code) {
          switch (in.cls()) {
            case isa::InstrClass::Matrix: ++report->mvm_instructions; break;
            case isa::InstrClass::Vector: ++report->vector_instructions; break;
            case isa::InstrClass::Transfer: ++report->transfer_instructions; break;
            default: break;
          }
        }
      }
      report->lm_bytes_peak = *std::max_element(alloc_.begin(), alloc_.end());
    }
    return std::move(program_);
  }

 private:
  // ------------------------------------------------------------ allocation

  uint32_t alloc(uint16_t core, uint64_t bytes) {
    const uint32_t addr = static_cast<uint32_t>(round_up<uint64_t>(alloc_[core], kAlign));
    if (addr + bytes > cfg_.core.local_memory.size_bytes) {
      throw std::runtime_error(strformat(
          "compiler: local memory of core %u overflows (%llu bytes needed); raise "
          "core.local_memory.size_bytes",
          core, static_cast<unsigned long long>(addr + bytes)));
    }
    alloc_[core] = addr + static_cast<uint32_t>(bytes);
    return addr;
  }

  // -------------------------------------------------------------- emission

  void emit(uint16_t core, Instruction in, int32_t layer) {
    in.layer_id = layer;
    program_.cores[core].code.push_back(in);
  }

  uint16_t next_tag(uint16_t src, uint16_t dst) {
    return tags_[(static_cast<uint32_t>(src) << 16) | dst]++;
  }

  /// Element-wise chunked move: same core -> VMOV; cross-core -> SEND/RECV.
  void xfer(uint16_t src_core, uint32_t src_addr, uint16_t dst_core, uint32_t dst_addr,
            uint32_t elems, DType dt, int32_t layer) {
    const uint32_t es = isa::dtype_size(dt);
    for (uint32_t off = 0; off < elems; off += kXferChunk) {
      const uint32_t n = std::min(kXferChunk, elems - off);
      if (src_core == dst_core) {
        Instruction mv;
        mv.op = Opcode::VMOV;
        mv.dtype = dt;
        mv.dst_addr = dst_addr + off * es;
        mv.src1_addr = src_addr + off * es;
        mv.len = n;
        emit(src_core, mv, layer);
      } else {
        const uint16_t tag = next_tag(src_core, dst_core);
        Instruction snd;
        snd.op = Opcode::SEND;
        snd.dtype = dt;
        snd.src1_addr = src_addr + off * es;
        snd.len = n;
        snd.core = dst_core;
        snd.tag = tag;
        emit(src_core, snd, layer);
        Instruction rcv;
        rcv.op = Opcode::RECV;
        rcv.dtype = dt;
        rcv.dst_addr = dst_addr + off * es;
        rcv.len = n;
        rcv.core = src_core;
        rcv.tag = tag;
        emit(dst_core, rcv, layer);
      }
    }
  }

  /// Chunked element-wise vector instruction.
  void vec(uint16_t core, Opcode op, DType dt, uint32_t dst, uint32_t src1, uint32_t src2,
           int32_t imm, uint32_t elems, int32_t layer) {
    Instruction proto;
    proto.op = op;
    proto.dtype = dt;
    const uint32_t es_dst = isa::dst_width(proto);
    const uint32_t es_src = isa::src_width(proto);
    for (uint32_t off = 0; off < elems; off += kVecChunk) {
      const uint32_t n = std::min(kVecChunk, elems - off);
      Instruction in = proto;
      in.dst_addr = dst + off * es_dst;
      if (op != Opcode::VSET) in.src1_addr = src1 + off * es_src;
      if (!isa::uses_vector_imm(op)) in.src2_addr = src2 + off * es_src;
      in.imm = imm;
      in.len = n;
      emit(core, in, layer);
    }
  }

  // ----------------------------------------------------------- fusion info

  bool is_folded_relu(const Layer& l) const {
    if (l.type != OpType::Relu || !opts_.fuse_relu) return false;
    const Layer& prod = graph_.layer(l.inputs[0]);
    if (prod.type != OpType::Conv && prod.type != OpType::FullyConnected) return false;
    return consumers_[static_cast<size_t>(prod.id)].size() == 1;
  }

  bool has_folded_relu(const Layer& l) const {
    if (l.type != OpType::Conv && l.type != OpType::FullyConnected) return false;
    if (!opts_.fuse_relu) return false;
    const auto& cs = consumers_[static_cast<size_t>(l.id)];
    return cs.size() == 1 && graph_.layer(cs[0]).type == OpType::Relu;
  }

  bool is_alias(const Layer& l) const {
    return l.type == OpType::Flatten || is_folded_relu(l);
  }

  /// The layer that owns `id`'s output buffer and task: `id` itself, or the
  /// producer an alias chain ends at.
  int32_t resolve_alias(int32_t id) const {
    while (is_alias(graph_.layer(id))) id = graph_.layer(id).inputs[0];
    return id;
  }

  /// Output positions per image of the layer owning `id`'s buffer. A
  /// flatten's own shape is 1x1; its producer's positions are what
  /// positions_emitted counts.
  int64_t positions_per_image(int32_t id) const {
    const nn::Shape& s = graph_.layer(resolve_alias(id)).out_shape;
    return int64_t{s.h} * s.w;
  }

  // --------------------------------------------------------------- buffers

  void plan_buffers() {
    layer_out_.assign(graph_.size(), Buf{});
    for (int32_t id : graph_.topo_order()) {
      const Layer& l = graph_.layer(id);
      uint16_t home = 0;
      if (l.type == OpType::Conv || l.type == OpType::FullyConnected) {
        home = mapping_.find(id)->aggregator;
      } else if (l.type != OpType::Input) {
        home = layer_out_[static_cast<size_t>(l.inputs[0])].core;
      }
      if (is_alias(l)) {
        layer_out_[static_cast<size_t>(id)] = layer_out_[static_cast<size_t>(l.inputs[0])];
        continue;
      }
      layer_out_[static_cast<size_t>(id)] =
          Buf{home, alloc(home, static_cast<uint64_t>(l.out_shape.elems()))};
    }
  }

  // ---------------------------------------------------- scheduling machinery

  struct Task {
    const Layer* layer = nullptr;
    UnitKind kind = UnitKind::Whole;
    bool is_store = false;  ///< GSTORE pseudo-task of an output layer
    int64_t per_image = 1;  ///< units per input image
    int64_t units = 1;      ///< per_image * batch
    int64_t next = 0;
    /// Emit one work unit; `local` indexes within the image, `img` is the
    /// batch position (most emitters ignore it — buffers are reused).
    std::function<void(int64_t local, int64_t img)> emit_unit;
  };

  /// Register a prepared task: scale per-image units by the batch size.
  void add_task(int32_t id, Task t) {
    t.per_image = t.units;
    t.units = t.per_image * opts_.batch;
    tasks_.emplace(id, std::move(t));
  }

  /// Output positions already emitted for `id` (aliases mirror producers).
  int64_t positions_emitted(int32_t id) const {
    id = resolve_alias(id);
    const Layer& l = graph_.layer(id);
    const Task& t = tasks_.at(id);
    const int64_t positions = int64_t{l.out_shape.h} * l.out_shape.w;
    switch (t.kind) {
      case UnitKind::Pixel: return t.next;
      case UnitKind::Row: return t.next * l.out_shape.w;
      case UnitKind::Whole: return t.next * positions;  // cumulative over images
    }
    return 0;
  }

  /// Producer positions (raster order) needed before unit `u` can be emitted.
  /// For windowed ops we require whole input rows through the window bottom.
  static int64_t rows_needed(const Layer& l, int64_t oy) {
    const int64_t iy_max = oy * l.stride_h - l.pad_h + std::max(l.kernel_h, 1) - 1;
    return std::clamp<int64_t>(iy_max + 1, 1, l.in_shape.h);
  }

  bool ready(const Task& t, int64_t u) const {
    const Layer& l = *t.layer;
    const int64_t img = u / t.per_image;
    const int64_t local = u % t.per_image;
    if (t.is_store) {
      // Ship image `img` once the output layer has fully emitted it.
      return positions_emitted(l.id) >= (img + 1) * positions_per_image(l.id);
    }

    // Buffer-reuse guard: emitting image `img` overwrites image img-1's data
    // in this layer's (reused) buffers, so every consumer must have finished
    // emitting its reads of all previous images first.
    if (img > 0) {
      auto it = effective_consumers_.find(l.id);
      if (it != effective_consumers_.end()) {
        for (const Task* c : it->second) {
          if (c->next < img * c->per_image) return false;
        }
      }
    }
    if (l.type == OpType::Input) return true;

    // Producer data needed for this unit, counted cumulatively over images.
    // `need` counts the operand's positions as this layer sees them; behind
    // a flatten (one position) that one position is the producer's whole map.
    auto have = [&](int32_t pid, int64_t need) {
      const nn::Shape& s = graph_.layer(pid).out_shape;
      const int64_t total = positions_per_image(pid);
      return positions_emitted(pid) >= img * total + need * total / (int64_t{s.h} * s.w);
    };
    switch (l.type) {
      case OpType::Conv:
      case OpType::MaxPool:
      case OpType::AvgPool: {
        const int64_t oy = local / l.out_shape.w;
        return have(l.inputs[0], rows_needed(l, oy) * l.in_shape.w);
      }
      case OpType::Relu:
        return have(l.inputs[0], (local + 1) * l.out_shape.w);
      case OpType::Add:
      case OpType::Concat: {
        // Operands share this layer's spatial dims by construction; row
        // `local` needs the operands' rows through `local`.
        for (int32_t pid : l.inputs) {
          if (!have(pid, (local + 1) * graph_.layer(pid).out_shape.w)) return false;
        }
        return true;
      }
      case OpType::FullyConnected:
      case OpType::GlobalAvgPool:
        return have(l.inputs[0], int64_t{l.in_shape.h} * l.in_shape.w);
      default:
        return true;
    }
  }

  /// Map each layer to the tasks that read its output buffer, expanding
  /// alias layers (flatten / folded relu) which own no task of their own.
  void build_consumer_map() {
    for (const auto& [id, t] : tasks_) {
      const Layer& l = *t.layer;
      for (int32_t pid : l.inputs) {
        effective_consumers_[resolve_alias(pid)].push_back(&tasks_.at(id));
      }
    }
    for (Task& st : store_tasks_) {
      effective_consumers_[resolve_alias(st.layer->id)].push_back(&st);
    }
  }

  bool step_task(Task& t, bool& pending, bool& progressed) {
    if (t.next >= t.units) return false;
    pending = true;
    if (ready(t, t.next)) {
      t.emit_unit(t.next % t.per_image, t.next / t.per_image);
      ++t.next;
      progressed = true;
      if (t.next < t.units) pending = true;
    }
    return true;
  }

  void schedule() {
    // Round-robin over layers in topological order, one unit per layer per
    // round: every core's stream interleaves all layers it participates in,
    // and the emission order is a global total order (deadlock-free
    // rendezvous by construction). Output-store tasks run first in each
    // round so an image's result is shipped out before the next image may
    // overwrite the output buffer.
    build_consumer_map();
    const std::vector<int32_t> order = graph_.topo_order();
    bool pending = true;
    while (pending) {
      pending = false;
      bool progressed = false;
      for (Task& st : store_tasks_) step_task(st, pending, progressed);
      for (int32_t id : order) {
        auto it = tasks_.find(id);
        if (it == tasks_.end()) continue;
        step_task(it->second, pending, progressed);
      }
      if (pending && !progressed) {
        throw std::logic_error("compiler scheduler made no progress (dependency cycle?)");
      }
    }
  }

  // ------------------------------------------------------- layer preparation

  void prepare_layer(const Layer& l) {
    if (is_alias(l)) return;
    switch (l.type) {
      case OpType::Input: prepare_input(l); break;
      case OpType::Conv:
      case OpType::FullyConnected: prepare_matrix(l); break;
      case OpType::MaxPool:
      case OpType::AvgPool: prepare_pool(l); break;
      case OpType::GlobalAvgPool: prepare_global_avgpool(l); break;
      case OpType::Relu: prepare_relu(l); break;
      case OpType::Add: prepare_add(l); break;
      case OpType::Concat: prepare_concat(l); break;
      case OpType::Flatten: break;
    }
  }

  void prepare_input(const Layer& l) {
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint32_t row_elems = static_cast<uint32_t>(l.out_shape.w * l.out_shape.c);
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Row;
    t.units = l.out_shape.h;
    const uint64_t image_bytes = static_cast<uint64_t>(l.out_shape.elems());
    t.emit_unit = [this, &l, out, row_elems, image_bytes](int64_t row, int64_t img) {
      for (uint32_t off = 0; off < row_elems; off += kXferChunk) {
        const uint32_t n = std::min(kXferChunk, row_elems - off);
        Instruction in;
        in.op = Opcode::GLOAD;
        in.dtype = DType::I8;
        in.dst_addr = out.addr + static_cast<uint32_t>(row) * row_elems + off;
        in.imm = static_cast<int32_t>(opts_.input_gaddr +
                                      static_cast<uint64_t>(img) * image_bytes +
                                      static_cast<uint64_t>(row) * row_elems + off);
        in.len = n;
        emit(out.core, in, l.id);
      }
    };
    add_task(l.id, std::move(t));
  }

  void prepare_matrix(const Layer& l) {
    const LayerPlan& lp = *mapping_.find(l.id);
    const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[0])];
    const Buf out_buf = layer_out_[static_cast<size_t>(l.id)];
    const uint16_t P = in_buf.core;
    const uint16_t home = out_buf.core;  // replica 0's aggregator
    const uint32_t N = lp.cols;
    const uint32_t K = lp.rows;
    const bool conv = l.type == OpType::Conv;
    const int32_t C_in = conv ? l.in_shape.c : 0;
    const bool needs_gather = conv && l.kernel_h * l.kernel_w > 1;
    const bool fold_relu = has_folded_relu(l);

    // Per-replica, per-group one-time structures: group-table entries +
    // buffers. Separate buffers per replica are what let pixel u and pixel
    // u+1 execute concurrently when replication > 1 (no WAR serialization).
    struct GroupBufs {
      uint32_t staging = 0;
      uint32_t slice = 0;
      uint32_t recv = 0;
    };
    struct ReplicaBufs {
      uint16_t aggregator = 0;
      std::vector<GroupBufs> gbufs;
      uint32_t acc = 0;
      uint32_t bias = 0;
      uint32_t patch = 0;      // gather buffer on P
      uint32_t pix_stage = 0;  // quantized pixel staging when aggregator != home
    };
    auto reps = std::make_shared<std::vector<ReplicaBufs>>(lp.replicas.size());
    for (size_t ri = 0; ri < lp.replicas.size(); ++ri) {
      const ReplicaPlan& rp = lp.replicas[ri];
      ReplicaBufs& rb = (*reps)[ri];
      rb.aggregator = rp.aggregator;
      rb.gbufs.resize(rp.groups.size());
      for (size_t gi = 0; gi < rp.groups.size(); ++gi) {
        const GroupPlan& g = rp.groups[gi];
        isa::GroupDef def;
        def.id = g.group_id;
        def.in_len = g.in_len();
        def.out_len = g.out_len();
        def.xbar_count = g.xbar_count;
        if (opts_.include_weights && !l.weights.empty()) {
          def.weights.resize(size_t{def.in_len} * def.out_len);
          for (uint32_t r = 0; r < def.in_len; ++r) {
            const int8_t* src = l.weights.data() + size_t{g.row_lo + r} * N + g.col_lo;
            std::copy_n(src, def.out_len, def.weights.begin() + size_t{r} * def.out_len);
          }
        }
        program_.cores[g.core].groups.push_back(std::move(def));
        rb.gbufs[gi].staging = alloc(g.core, 4ull * g.out_len());
        if (g.core != P) rb.gbufs[gi].slice = alloc(g.core, g.in_len());
        if (g.core != rp.aggregator) rb.gbufs[gi].recv = alloc(rp.aggregator, 4ull * g.out_len());
      }
      rb.acc = alloc(rp.aggregator, 4ull * N);
      rb.bias = alloc(rp.aggregator, 4ull * N);
      isa::DataSegment seg;
      seg.addr = rb.bias;
      seg.bytes.resize(4ull * N);
      for (uint32_t n = 0; n < N; ++n) {
        const int32_t b = n < l.bias.size() ? l.bias[n] : 0;
        std::memcpy(seg.bytes.data() + 4ull * n, &b, 4);
      }
      program_.cores[rp.aggregator].lm_init.push_back(std::move(seg));
      if (needs_gather) rb.patch = alloc(P, K);
      if (rp.aggregator != home) rb.pix_stage = alloc(rp.aggregator, N);
    }

    Task t;
    t.layer = &l;
    t.kind = UnitKind::Pixel;
    t.units = int64_t{l.out_shape.h} * l.out_shape.w;
    if (l.type == OpType::FullyConnected) {
      t.kind = UnitKind::Whole;
      t.units = 1;
    }
    t.emit_unit = [this, &l, &lp, in_buf, out_buf, P, home, N, conv, C_in, needs_gather,
                   reps, fold_relu](int64_t u, int64_t) {
      const int32_t out_w = l.out_shape.w;
      const int32_t oy = static_cast<int32_t>(u) / out_w;
      const int32_t ox = static_cast<int32_t>(u) % out_w;
      const uint32_t pos = static_cast<uint32_t>(u);
      const int32_t in_h = conv ? l.in_shape.h : 0;
      const int32_t in_w = conv ? l.in_shape.w : 0;
      const size_t ri = static_cast<size_t>(u) % reps->size();
      const ReplicaPlan& rplan = lp.replicas[ri];
      const ReplicaBufs& rb = (*reps)[ri];
      const uint16_t A = rb.aggregator;
      const uint32_t acc = rb.acc;
      const uint32_t bias_buf = rb.bias;
      const uint32_t patch = rb.patch;

      // 1. Patch gather on P.
      uint32_t patch_base;
      if (needs_gather) {
        patch_base = patch;
        for (int32_t ky = 0; ky < l.kernel_h; ++ky) {
          const int32_t iy = oy * l.stride_h - l.pad_h + ky;
          const uint32_t row_off = patch + static_cast<uint32_t>(ky * l.kernel_w * C_in);
          if (iy < 0 || iy >= in_h) {
            vec(P, Opcode::VSET, DType::I8, row_off, 0, 0, 0,
                static_cast<uint32_t>(l.kernel_w * C_in), l.id);
            continue;
          }
          const int32_t ix0 = ox * l.stride_w - l.pad_w;
          const int32_t kx_lo = std::max(0, -ix0);
          const int32_t kx_hi = std::min<int32_t>(l.kernel_w, in_w - ix0);
          if (kx_lo > 0) {
            vec(P, Opcode::VSET, DType::I8, row_off, 0, 0, 0,
                static_cast<uint32_t>(kx_lo * C_in), l.id);
          }
          if (kx_hi > kx_lo) {
            vec(P, Opcode::VMOV, DType::I8, row_off + static_cast<uint32_t>(kx_lo * C_in),
                in_buf.addr + static_cast<uint32_t>(((iy * in_w) + ix0 + kx_lo) * C_in), 0, 0,
                static_cast<uint32_t>((kx_hi - kx_lo) * C_in), l.id);
          }
          if (kx_hi < l.kernel_w) {
            vec(P, Opcode::VSET, DType::I8, row_off + static_cast<uint32_t>(kx_hi * C_in), 0,
                0, 0, static_cast<uint32_t>((l.kernel_w - kx_hi) * C_in), l.id);
          }
        }
      } else if (conv) {
        const int32_t iy = oy * l.stride_h, ix = ox * l.stride_w;
        patch_base = in_buf.addr + static_cast<uint32_t>((iy * in_w + ix) * C_in);
      } else {
        patch_base = in_buf.addr;
      }

      // 2./3. Scatter the slices, run the MVMs on this pixel's replica.
      for (size_t gi = 0; gi < rplan.groups.size(); ++gi) {
        const GroupPlan& g = rplan.groups[gi];
        const uint32_t slice_on_p = patch_base + g.row_lo;
        uint32_t mvm_src;
        if (g.core == P) {
          mvm_src = slice_on_p;
        } else {
          xfer(P, slice_on_p, g.core, rb.gbufs[gi].slice, g.in_len(), DType::I8, l.id);
          mvm_src = rb.gbufs[gi].slice;
        }
        Instruction mvm;
        mvm.op = Opcode::MVM;
        mvm.group = g.group_id;
        mvm.dst_addr = rb.gbufs[gi].staging;
        mvm.src1_addr = mvm_src;
        mvm.len = g.in_len();
        emit(g.core, mvm, l.id);
      }

      // 4. Aggregate: acc = bias + sum(partials); relu?; quantize.
      vec(A, Opcode::VMOV, DType::I32, acc, bias_buf, 0, 0, N, l.id);
      for (size_t gi = 0; gi < rplan.groups.size(); ++gi) {
        const GroupPlan& g = rplan.groups[gi];
        uint32_t partial;
        if (g.core == A) {
          partial = rb.gbufs[gi].staging;
        } else {
          xfer(g.core, rb.gbufs[gi].staging, A, rb.gbufs[gi].recv, g.out_len(), DType::I32,
               l.id);
          partial = rb.gbufs[gi].recv;
        }
        vec(A, Opcode::VADD, DType::I32, acc + 4 * g.col_lo, acc + 4 * g.col_lo, partial, 0,
            g.out_len(), l.id);
      }
      if (fold_relu) vec(A, Opcode::VRELU, DType::I32, acc, acc, 0, 0, N, l.id);
      // 5. Quantize into the layer's output buffer; a replica whose
      // aggregator is remote stages the pixel locally and ships it home.
      if (A == home) {
        vec(A, Opcode::VQUANT, DType::I8, out_buf.addr + pos * N, acc, 0, l.out_shift, N,
            l.id);
      } else {
        vec(A, Opcode::VQUANT, DType::I8, rb.pix_stage, acc, 0, l.out_shift, N, l.id);
        xfer(A, rb.pix_stage, home, out_buf.addr + pos * N, N, DType::I8, l.id);
      }
    };
    add_task(l.id, std::move(t));
  }

  void prepare_pool(const Layer& l) {
    const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[0])];
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint16_t core = out.core;
    const uint32_t C = static_cast<uint32_t>(l.in_shape.c);
    const bool is_max = l.type == OpType::MaxPool;
    uint32_t acc = 0, tmp = 0;
    if (!is_max) {
      acc = alloc(core, 4ull * C);
      tmp = alloc(core, 4ull * C);
    }
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Pixel;
    t.units = int64_t{l.out_shape.h} * l.out_shape.w;
    t.emit_unit = [this, &l, in_buf, out, core, C, is_max, acc, tmp](int64_t u, int64_t) {
      const int32_t oy = static_cast<int32_t>(u) / l.out_shape.w;
      const int32_t ox = static_cast<int32_t>(u) % l.out_shape.w;
      const uint32_t out_pos = out.addr + static_cast<uint32_t>(u) * C;
      std::vector<uint32_t> srcs;
      for (int32_t ky = 0; ky < l.kernel_h; ++ky) {
        for (int32_t kx = 0; kx < l.kernel_w; ++kx) {
          const int32_t iy = oy * l.stride_h - l.pad_h + ky;
          const int32_t ix = ox * l.stride_w - l.pad_w + kx;
          if (iy < 0 || iy >= l.in_shape.h || ix < 0 || ix >= l.in_shape.w) continue;
          srcs.push_back(in_buf.addr + static_cast<uint32_t>((iy * l.in_shape.w + ix)) * C);
        }
      }
      if (is_max) {
        vec(core, Opcode::VMOV, DType::I8, out_pos, srcs[0], 0, 0, C, l.id);
        for (size_t i = 1; i < srcs.size(); ++i) {
          vec(core, Opcode::VMAX, DType::I8, out_pos, out_pos, srcs[i], 0, C, l.id);
        }
      } else {
        vec(core, Opcode::VDEQUANT, DType::I8, acc, srcs[0], 0, 0, C, l.id);
        for (size_t i = 1; i < srcs.size(); ++i) {
          vec(core, Opcode::VDEQUANT, DType::I8, tmp, srcs[i], 0, 0, C, l.id);
          vec(core, Opcode::VADD, DType::I32, acc, acc, tmp, 0, C, l.id);
        }
        vec(core, Opcode::VDIVI, DType::I32, acc, acc, 0, static_cast<int32_t>(srcs.size()),
            C, l.id);
        vec(core, Opcode::VQUANT, DType::I8, out_pos, acc, 0, 0, C, l.id);
      }
    };
    add_task(l.id, std::move(t));
  }

  void prepare_global_avgpool(const Layer& l) {
    const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[0])];
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint16_t core = out.core;
    const uint32_t C = static_cast<uint32_t>(l.in_shape.c);
    const uint32_t acc = alloc(core, 4ull * C);
    const uint32_t tmp = alloc(core, 4ull * C);
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Whole;
    t.emit_unit = [this, &l, in_buf, out, core, C, acc, tmp](int64_t, int64_t) {
      const int32_t positions = l.in_shape.h * l.in_shape.w;
      vec(core, Opcode::VDEQUANT, DType::I8, acc, in_buf.addr, 0, 0, C, l.id);
      for (int32_t p = 1; p < positions; ++p) {
        vec(core, Opcode::VDEQUANT, DType::I8, tmp, in_buf.addr + static_cast<uint32_t>(p) * C,
            0, 0, C, l.id);
        vec(core, Opcode::VADD, DType::I32, acc, acc, tmp, 0, C, l.id);
      }
      vec(core, Opcode::VDIVI, DType::I32, acc, acc, 0, positions, C, l.id);
      vec(core, Opcode::VQUANT, DType::I8, out.addr, acc, 0, 0, C, l.id);
    };
    add_task(l.id, std::move(t));
  }

  void prepare_relu(const Layer& l) {
    const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[0])];
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint32_t row = static_cast<uint32_t>(l.out_shape.w * l.out_shape.c);
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Row;
    t.units = l.out_shape.h;
    t.emit_unit = [this, &l, in_buf, out, row](int64_t r, int64_t) {
      vec(out.core, Opcode::VRELU, DType::I8, out.addr + static_cast<uint32_t>(r) * row,
          in_buf.addr + static_cast<uint32_t>(r) * row, 0, 0, row, l.id);
    };
    add_task(l.id, std::move(t));
  }

  void prepare_add(const Layer& l) {
    const Buf a = layer_out_[static_cast<size_t>(l.inputs[0])];
    const Buf b = layer_out_[static_cast<size_t>(l.inputs[1])];
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint32_t row = static_cast<uint32_t>(l.out_shape.w * l.out_shape.c);
    uint32_t b_local = b.addr;
    if (b.core != out.core) {
      b_local = alloc(out.core, static_cast<uint64_t>(l.out_shape.elems()));
    }
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Row;
    t.units = l.out_shape.h;
    t.emit_unit = [this, &l, a, b, out, row, b_local](int64_t r, int64_t) {
      const uint32_t off = static_cast<uint32_t>(r) * row;
      if (b.core != out.core) {
        xfer(b.core, b.addr + off, out.core, b_local + off, row, DType::I8, l.id);
      }
      vec(out.core, Opcode::VADD, DType::I8, out.addr + off, a.addr + off, b_local + off, 0,
          row, l.id);
    };
    add_task(l.id, std::move(t));
  }

  void prepare_concat(const Layer& l) {
    const Buf out = layer_out_[static_cast<size_t>(l.id)];
    const uint32_t C_out = static_cast<uint32_t>(l.out_shape.c);
    // Remote operands get a local staging copy, moved row by row.
    auto srcs = std::make_shared<std::vector<uint32_t>>(l.inputs.size());
    auto remote = std::make_shared<std::vector<bool>>(l.inputs.size(), false);
    for (size_t i = 0; i < l.inputs.size(); ++i) {
      const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[i])];
      if (in_buf.core != out.core) {
        (*srcs)[i] = alloc(out.core,
                           static_cast<uint64_t>(graph_.layer(l.inputs[i]).out_shape.elems()));
        (*remote)[i] = true;
      } else {
        (*srcs)[i] = in_buf.addr;
      }
    }
    Task t;
    t.layer = &l;
    t.kind = UnitKind::Row;
    t.units = l.out_shape.h;
    t.emit_unit = [this, &l, out, C_out, srcs, remote](int64_t r, int64_t) {
      const int32_t W = l.out_shape.w;
      // Bring remote rows local first.
      for (size_t i = 0; i < l.inputs.size(); ++i) {
        if (!(*remote)[i]) continue;
        const Buf in_buf = layer_out_[static_cast<size_t>(l.inputs[i])];
        const uint32_t Ci = static_cast<uint32_t>(graph_.layer(l.inputs[i]).out_shape.c);
        const uint32_t off = static_cast<uint32_t>(r) * W * Ci;
        xfer(in_buf.core, in_buf.addr + off, out.core, (*srcs)[i] + off,
             static_cast<uint32_t>(W) * Ci, DType::I8, l.id);
      }
      // Interleave the channel vectors per position.
      for (int32_t x = 0; x < W; ++x) {
        const uint32_t p = static_cast<uint32_t>(r) * W + static_cast<uint32_t>(x);
        uint32_t chan_off = 0;
        for (size_t i = 0; i < l.inputs.size(); ++i) {
          const uint32_t Ci = static_cast<uint32_t>(graph_.layer(l.inputs[i]).out_shape.c);
          vec(out.core, Opcode::VMOV, DType::I8, out.addr + p * C_out + chan_off,
              (*srcs)[i] + p * Ci, 0, 0, Ci, l.id);
          chan_off += Ci;
        }
      }
    };
    add_task(l.id, std::move(t));
  }

  void prepare_outputs() {
    store_tasks_.reserve(graph_.outputs().size());
    for (int32_t id : graph_.outputs()) {
      const Layer& l = graph_.layer(id);
      const Buf out = layer_out_[static_cast<size_t>(id)];
      const uint64_t elems = static_cast<uint64_t>(l.out_shape.elems());
      Task t;
      t.layer = &l;
      t.kind = UnitKind::Whole;
      t.is_store = true;
      t.per_image = 1;
      t.units = opts_.batch;
      t.emit_unit = [this, id, out, elems](int64_t, int64_t img) {
        for (uint64_t off = 0; off < elems; off += kXferChunk) {
          const uint32_t n =
              static_cast<uint32_t>(std::min<uint64_t>(kXferChunk, elems - off));
          Instruction in;
          in.op = Opcode::GSTORE;
          in.dtype = DType::I8;
          in.src1_addr = out.addr + static_cast<uint32_t>(off);
          in.imm = static_cast<int32_t>(opts_.output_gaddr +
                                        static_cast<uint64_t>(img) * elems + off);
          in.len = n;
          emit(out.core, in, id);
        }
      };
      store_tasks_.push_back(std::move(t));
    }
  }

  const nn::Graph& graph_;
  const config::ArchConfig& cfg_;
  const CompileOptions& opts_;
  Mapping mapping_;
  isa::Program program_;
  std::vector<uint32_t> alloc_;
  std::vector<Buf> layer_out_;
  std::vector<std::vector<int32_t>> consumers_;
  std::map<uint32_t, uint16_t> tags_;
  std::map<int32_t, Task> tasks_;
  std::vector<Task> store_tasks_;
  std::map<int32_t, std::vector<Task*>> effective_consumers_;
};

}  // namespace

isa::Program compile(const nn::Graph& graph, const config::ArchConfig& cfg,
                     const CompileOptions& options, CompileReport* report,
                     std::optional<isa::VerifyProof>* proof) {
  Codegen cg(graph, cfg, options);
  isa::Program program = cg.run(report);
  std::vector<std::string> errors = program.verify(cfg, proof);
  if (!errors.empty()) {
    std::string msg = "compiler produced an invalid program:\n";
    for (size_t i = 0; i < errors.size() && i < 10; ++i) msg += "  " + errors[i] + "\n";
    throw std::logic_error(msg);
  }
  PIM_LOG(Info) << "compiled " << graph.name() << " (" << policy_name(options.policy)
                << "): " << program.total_instructions() << " instructions, "
                << program.total_groups() << " groups";
  return program;
}

}  // namespace pim::compiler
