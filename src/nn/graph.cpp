#include "nn/graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pim::nn {

const char* op_name(OpType t) {
  switch (t) {
    case OpType::Input: return "input";
    case OpType::Conv: return "conv";
    case OpType::FullyConnected: return "fc";
    case OpType::MaxPool: return "maxpool";
    case OpType::AvgPool: return "avgpool";
    case OpType::GlobalAvgPool: return "global_avgpool";
    case OpType::Relu: return "relu";
    case OpType::Add: return "add";
    case OpType::Concat: return "concat";
    case OpType::Flatten: return "flatten";
  }
  return "?";
}

OpType op_from_name(const std::string& name) {
  static const std::pair<const char*, OpType> table[] = {
      {"input", OpType::Input},   {"conv", OpType::Conv},
      {"fc", OpType::FullyConnected}, {"maxpool", OpType::MaxPool},
      {"avgpool", OpType::AvgPool},   {"global_avgpool", OpType::GlobalAvgPool},
      {"relu", OpType::Relu},     {"add", OpType::Add},
      {"concat", OpType::Concat}, {"flatten", OpType::Flatten},
  };
  for (const auto& [n, t] : table) {
    if (name == n) return t;
  }
  throw std::invalid_argument("unknown op type '" + name + "'");
}

int64_t Layer::weight_rows() const {
  if (type == OpType::Conv) return int64_t{in_shape.c} * kernel_h * kernel_w;
  if (type == OpType::FullyConnected) return in_shape.elems();
  return 0;
}

int64_t Layer::weight_cols() const {
  if (type == OpType::Conv || type == OpType::FullyConnected) return out_channels;
  return 0;
}

// ----------------------------------------------------------------- builders

int32_t Graph::push(Layer layer) {
  layer.id = static_cast<int32_t>(layers_.size());
  if (layer.name.empty()) {
    layer.name = strformat("%s_%d", op_name(layer.type), layer.id);
  }
  for (int32_t in : layer.inputs) {
    if (in < 0 || static_cast<size_t>(in) >= layers_.size()) {
      throw std::invalid_argument("layer '" + layer.name + "' references unknown input " +
                                  std::to_string(in));
    }
  }
  layers_.push_back(std::move(layer));
  return layers_.back().id;
}

int32_t Graph::add_input(Shape shape, const std::string& name) {
  Layer l;
  l.type = OpType::Input;
  l.name = name;
  l.out_shape = shape;
  l.out_channels = shape.c;
  return push(std::move(l));
}

int32_t Graph::add_conv(int32_t input, int32_t out_channels, int32_t kernel, int32_t stride,
                        int32_t pad, const std::string& name) {
  Layer l;
  l.type = OpType::Conv;
  l.name = name;
  l.inputs = {input};
  l.out_channels = out_channels;
  l.kernel_h = l.kernel_w = kernel;
  l.stride_h = l.stride_w = stride;
  l.pad_h = l.pad_w = pad;
  return push(std::move(l));
}

int32_t Graph::add_fc(int32_t input, int32_t out_features, const std::string& name) {
  Layer l;
  l.type = OpType::FullyConnected;
  l.name = name;
  l.inputs = {input};
  l.out_channels = out_features;
  return push(std::move(l));
}

int32_t Graph::add_maxpool(int32_t input, int32_t kernel, int32_t stride, int32_t pad,
                           const std::string& name) {
  Layer l;
  l.type = OpType::MaxPool;
  l.name = name;
  l.inputs = {input};
  l.kernel_h = l.kernel_w = kernel;
  l.stride_h = l.stride_w = stride;
  l.pad_h = l.pad_w = pad;
  return push(std::move(l));
}

int32_t Graph::add_avgpool(int32_t input, int32_t kernel, int32_t stride, int32_t pad,
                           const std::string& name) {
  Layer l;
  l.type = OpType::AvgPool;
  l.name = name;
  l.inputs = {input};
  l.kernel_h = l.kernel_w = kernel;
  l.stride_h = l.stride_w = stride;
  l.pad_h = l.pad_w = pad;
  return push(std::move(l));
}

int32_t Graph::add_global_avgpool(int32_t input, const std::string& name) {
  Layer l;
  l.type = OpType::GlobalAvgPool;
  l.name = name;
  l.inputs = {input};
  return push(std::move(l));
}

int32_t Graph::add_relu(int32_t input, const std::string& name) {
  Layer l;
  l.type = OpType::Relu;
  l.name = name;
  l.inputs = {input};
  return push(std::move(l));
}

int32_t Graph::add_add(int32_t a, int32_t b, const std::string& name) {
  Layer l;
  l.type = OpType::Add;
  l.name = name;
  l.inputs = {a, b};
  return push(std::move(l));
}

int32_t Graph::add_concat(std::vector<int32_t> inputs, const std::string& name) {
  Layer l;
  l.type = OpType::Concat;
  l.name = name;
  l.inputs = std::move(inputs);
  return push(std::move(l));
}

int32_t Graph::add_flatten(int32_t input, const std::string& name) {
  Layer l;
  l.type = OpType::Flatten;
  l.name = name;
  l.inputs = {input};
  return push(std::move(l));
}

// -------------------------------------------------------------------- graph

std::vector<std::vector<int32_t>> Graph::consumers() const {
  std::vector<std::vector<int32_t>> out(layers_.size());
  for (const Layer& l : layers_) {
    for (int32_t in : l.inputs) out[static_cast<size_t>(in)].push_back(l.id);
  }
  return out;
}

std::vector<int32_t> Graph::outputs() const {
  auto cons = consumers();
  std::vector<int32_t> out;
  for (const Layer& l : layers_) {
    if (cons[static_cast<size_t>(l.id)].empty()) out.push_back(l.id);
  }
  return out;
}

std::vector<int32_t> Graph::inputs() const {
  std::vector<int32_t> out;
  for (const Layer& l : layers_) {
    if (l.type == OpType::Input) out.push_back(l.id);
  }
  return out;
}

std::vector<int32_t> Graph::topo_order() const {
  std::vector<int32_t> indeg(layers_.size(), 0);
  for (const Layer& l : layers_) indeg[static_cast<size_t>(l.id)] = static_cast<int32_t>(l.inputs.size());
  auto cons = consumers();
  std::vector<int32_t> ready;
  for (const Layer& l : layers_) {
    if (indeg[static_cast<size_t>(l.id)] == 0) ready.push_back(l.id);
  }
  std::vector<int32_t> order;
  order.reserve(layers_.size());
  // Lowest-id-first pop keeps the order deterministic and close to
  // construction order (the layer-by-layer order mapping policies assume).
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    int32_t id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (int32_t c : cons[static_cast<size_t>(id)]) {
      if (--indeg[static_cast<size_t>(c)] == 0) {
        ready.push_back(c);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order.size() != layers_.size()) throw std::logic_error("graph contains a cycle");
  return order;
}

void Graph::infer_shapes() {
  for (int32_t id : topo_order()) {
    Layer& l = layers_[static_cast<size_t>(id)];
    auto in_shape = [&](size_t i) -> const Shape& {
      return layers_[static_cast<size_t>(l.inputs.at(i))].out_shape;
    };
    auto spatial = [&](const Shape& s, int32_t kh, int32_t kw, int32_t sh, int32_t sw,
                       int32_t ph, int32_t pw) {
      Shape out;
      out.h = (s.h + 2 * ph - kh) / sh + 1;
      out.w = (s.w + 2 * pw - kw) / sw + 1;
      if (out.h <= 0 || out.w <= 0) {
        throw std::invalid_argument(strformat(
            "layer '%s': window %dx%d stride %dx%d does not fit input %dx%d", l.name.c_str(),
            kh, kw, sh, sw, s.h, s.w));
      }
      return out;
    };
    switch (l.type) {
      case OpType::Input:
        break;  // out_shape set at construction
      case OpType::Conv: {
        l.in_shape = in_shape(0);
        Shape sp = spatial(l.in_shape, l.kernel_h, l.kernel_w, l.stride_h, l.stride_w, l.pad_h,
                           l.pad_w);
        l.out_shape = {l.out_channels, sp.h, sp.w};
        break;
      }
      case OpType::FullyConnected:
        l.in_shape = in_shape(0);
        l.out_shape = {l.out_channels, 1, 1};
        break;
      case OpType::MaxPool:
      case OpType::AvgPool: {
        l.in_shape = in_shape(0);
        Shape sp = spatial(l.in_shape, l.kernel_h, l.kernel_w, l.stride_h, l.stride_w, l.pad_h,
                           l.pad_w);
        l.out_shape = {l.in_shape.c, sp.h, sp.w};
        l.out_channels = l.in_shape.c;
        break;
      }
      case OpType::GlobalAvgPool:
        l.in_shape = in_shape(0);
        l.out_shape = {l.in_shape.c, 1, 1};
        l.out_channels = l.in_shape.c;
        break;
      case OpType::Relu:
      case OpType::Flatten:
        l.in_shape = in_shape(0);
        l.out_shape = l.type == OpType::Flatten
                          ? Shape{static_cast<int32_t>(l.in_shape.elems()), 1, 1}
                          : l.in_shape;
        l.out_channels = l.out_shape.c;
        break;
      case OpType::Add: {
        l.in_shape = in_shape(0);
        if (!(in_shape(0) == in_shape(1))) {
          throw std::invalid_argument("layer '" + l.name + "': add operands differ in shape");
        }
        l.out_shape = l.in_shape;
        l.out_channels = l.out_shape.c;
        break;
      }
      case OpType::Concat: {
        if (l.inputs.empty()) throw std::invalid_argument("concat with no inputs");
        l.in_shape = in_shape(0);
        int32_t c = 0;
        for (size_t i = 0; i < l.inputs.size(); ++i) {
          const Shape& s = in_shape(i);
          if (s.h != l.in_shape.h || s.w != l.in_shape.w) {
            throw std::invalid_argument("layer '" + l.name +
                                        "': concat operands differ in spatial dims");
          }
          c += s.c;
        }
        l.out_shape = {c, l.in_shape.h, l.in_shape.w};
        l.out_channels = c;
        break;
      }
    }
  }
}

void Graph::init_parameters(uint64_t seed) {
  for (Layer& l : layers_) {
    if (l.type != OpType::Conv && l.type != OpType::FullyConnected) continue;
    const int64_t rows = l.weight_rows();
    const int64_t cols = l.weight_cols();
    if (rows <= 0 || cols <= 0) {
      throw std::logic_error("init_parameters before infer_shapes for layer '" + l.name + "'");
    }
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(l.id) + 1);
    l.weights.resize(static_cast<size_t>(rows * cols));
    for (int8_t& w : l.weights) w = rng.weight(7);
    l.bias.resize(static_cast<size_t>(cols));
    for (int32_t& b : l.bias) b = static_cast<int32_t>(rng.uniform(-64, 64));
    // The shift divides by at least 16 * rows while |acc| <= rows * 7 * 128
    // + 64, so sat8(round_shift(acc)) never saturates. It also shrinks the
    // activations so far that every zoo network's are all zero after its
    // first block: a functional run with these shifts moves and checks
    // zeros. Tests that need live activations set ceil(log2(rows) / 2) + 1,
    // which keeps every layer non-zero.
    l.out_shift = static_cast<int32_t>(std::ceil(std::log2(static_cast<double>(rows)))) + 4;
  }
}

int64_t Graph::total_weight_elems() const {
  int64_t n = 0;
  for (const Layer& l : layers_) n += l.weight_rows() * l.weight_cols();
  return n;
}

int64_t Graph::total_macs() const {
  int64_t n = 0;
  for (const Layer& l : layers_) {
    if (l.type == OpType::Conv || l.type == OpType::FullyConnected) {
      n += l.weight_rows() * l.weight_cols() * l.out_shape.h * l.out_shape.w;
    }
  }
  return n;
}

// ------------------------------------------------------------- serialization

json::Value Graph::to_json(bool include_params) const {
  json::Value v;
  v["name"] = json::Value(name_);
  json::Array layers_json;
  for (const Layer& l : layers_) {
    json::Value lj;
    lj["id"] = json::Value(l.id);
    lj["name"] = json::Value(l.name);
    lj["type"] = json::Value(op_name(l.type));
    if (!l.inputs.empty()) {
      json::Array in;
      for (int32_t i : l.inputs) in.emplace_back(static_cast<int64_t>(i));
      lj["inputs"] = json::Value(std::move(in));
    }
    if (l.type == OpType::Input) {
      lj["shape"] = json::Value(json::Array{json::Value(l.out_shape.c), json::Value(l.out_shape.h),
                                            json::Value(l.out_shape.w)});
    }
    if (l.out_channels && l.type != OpType::Input) lj["out_channels"] = json::Value(l.out_channels);
    if (l.kernel_h) {
      lj["kernel"] = json::Value(l.kernel_h);
      lj["stride"] = json::Value(l.stride_h);
      lj["pad"] = json::Value(l.pad_h);
    }
    if (l.out_shift) lj["out_shift"] = json::Value(l.out_shift);
    if (include_params && !l.weights.empty()) {
      json::Array w;
      w.reserve(l.weights.size());
      for (int8_t x : l.weights) w.emplace_back(static_cast<int64_t>(x));
      lj["weights"] = json::Value(std::move(w));
      json::Array b;
      for (int32_t x : l.bias) b.emplace_back(static_cast<int64_t>(x));
      lj["bias"] = json::Value(std::move(b));
    }
    layers_json.push_back(std::move(lj));
  }
  v["layers"] = json::Value(std::move(layers_json));
  return v;
}

Graph Graph::from_json(const json::Value& v) {
  Graph g(v.get_or("name", "net"));
  for (const json::Value& lj : v.at("layers").as_array()) {
    Layer l;
    l.type = op_from_name(lj.at("type").as_string());
    l.name = lj.get_or("name", "");
    if (lj.contains("inputs")) {
      for (const json::Value& i : lj.at("inputs").as_array()) {
        l.inputs.push_back(static_cast<int32_t>(i.as_int()));
      }
    }
    if (l.type == OpType::Input) {
      const json::Array& s = lj.at("shape").as_array();
      l.out_shape = {static_cast<int32_t>(s.at(0).as_int()), static_cast<int32_t>(s.at(1).as_int()),
                     static_cast<int32_t>(s.at(2).as_int())};
      l.out_channels = l.out_shape.c;
    }
    l.out_channels = static_cast<int32_t>(lj.get_or("out_channels", l.out_channels));
    if (lj.contains("kernel")) {
      l.kernel_h = l.kernel_w = static_cast<int32_t>(lj.at("kernel").as_int());
      l.stride_h = l.stride_w = static_cast<int32_t>(lj.get_or("stride", 1));
      l.pad_h = l.pad_w = static_cast<int32_t>(lj.get_or("pad", 0));
    }
    l.out_shift = static_cast<int32_t>(lj.get_or("out_shift", 0));
    if (lj.contains("weights")) {
      for (const json::Value& w : lj.at("weights").as_array()) {
        l.weights.push_back(static_cast<int8_t>(w.as_int()));
      }
      for (const json::Value& b : lj.at("bias").as_array()) {
        l.bias.push_back(static_cast<int32_t>(b.as_int()));
      }
    }
    g.push(std::move(l));
  }
  g.infer_shapes();
  return g;
}

}  // namespace pim::nn
