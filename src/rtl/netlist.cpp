#include "rtl/netlist.hpp"

#include <algorithm>

namespace mont::rtl {

const char* OpName(Op op) {
  switch (op) {
    case Op::kInput: return "input";
    case Op::kConst0: return "const0";
    case Op::kConst1: return "const1";
    case Op::kBuf: return "buf";
    case Op::kNot: return "not";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kNand: return "nand";
    case Op::kNor: return "nor";
    case Op::kXnor: return "xnor";
    case Op::kMux: return "mux";
    case Op::kDff: return "dff";
  }
  return "?";
}

bool IsCombinational(Op op) {
  switch (op) {
    case Op::kInput:
    case Op::kConst0:
    case Op::kConst1:
    case Op::kDff:
      return false;
    default:
      return true;
  }
}

NodeFanin FaninOf(const Node& node) {
  NodeFanin fanin;
  for (const NetId src : {node.a, node.b, node.c}) {
    if (src != kNoNet) fanin.nets[fanin.count++] = src;
  }
  return fanin;
}

bool IsBinaryGate(Op op) {
  switch (op) {
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNand:
    case Op::kNor:
    case Op::kXnor:
      return true;
    default:
      return false;
  }
}

Netlist::Netlist() {
  const0_ = Emit(Op::kConst0);
  const1_ = Emit(Op::kConst1);
}

NetId Netlist::Emit(Op op, NetId a, NetId b, NetId c) {
  nodes_.push_back(Node{op, a, b, c});
  topo_valid_ = false;
  return static_cast<NetId>(nodes_.size() - 1);
}

void Netlist::CheckNet(NetId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("Netlist: reference to unknown net");
  }
}

NetId Netlist::AddInput(const std::string& name) {
  const NetId id = Emit(Op::kInput);
  inputs_.emplace_back(id, name);
  names_[id] = name;
  return id;
}

NetId Netlist::Not(NetId a) {
  CheckNet(a);
  return Emit(Op::kNot, a);
}

NetId Netlist::Buf(NetId a) {
  CheckNet(a);
  return Emit(Op::kBuf, a);
}

NetId Netlist::And(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kAnd, a, b);
}

NetId Netlist::Or(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kOr, a, b);
}

NetId Netlist::Xor(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kXor, a, b);
}

NetId Netlist::Nand(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kNand, a, b);
}

NetId Netlist::Nor(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kNor, a, b);
}

NetId Netlist::Xnor(NetId a, NetId b) {
  CheckNet(a);
  CheckNet(b);
  return Emit(Op::kXnor, a, b);
}

NetId Netlist::Mux(NetId sel, NetId if0, NetId if1) {
  CheckNet(sel);
  CheckNet(if0);
  CheckNet(if1);
  return Emit(Op::kMux, sel, if0, if1);
}

NetId Netlist::Dff(NetId d, NetId enable, NetId sync_reset) {
  if (d != kNoNet) CheckNet(d);
  if (enable != kNoNet) CheckNet(enable);
  if (sync_reset != kNoNet) CheckNet(sync_reset);
  return Emit(Op::kDff, d, enable, sync_reset);
}

void Netlist::RewireDff(NetId dff, NetId d, NetId enable, NetId sync_reset) {
  CheckNet(dff);
  if (nodes_[dff].op != Op::kDff) {
    throw std::logic_error("RewireDff: target is not a DFF");
  }
  CheckNet(d);
  if (enable != kNoNet) CheckNet(enable);
  if (sync_reset != kNoNet) CheckNet(sync_reset);
  nodes_[dff].a = d;
  nodes_[dff].b = enable;
  nodes_[dff].c = sync_reset;
  topo_valid_ = false;
}

void Netlist::RewireOperand(NetId node, int slot, NetId src) {
  CheckNet(node);
  Node& n = nodes_[node];
  if (n.op == Op::kInput || n.op == Op::kConst0 || n.op == Op::kConst1) {
    throw std::logic_error("RewireOperand: source nodes have no operands");
  }
  if (slot < 0 || slot > 2) {
    throw std::out_of_range("RewireOperand: slot must be 0, 1 or 2");
  }
  if (src != kNoNet) CheckNet(src);
  (slot == 0 ? n.a : slot == 1 ? n.b : n.c) = src;
  topo_valid_ = false;
}

void Netlist::MarkSecret(NetId net) {
  CheckNet(net);
  if (!IsSecret(net)) secret_nets_.push_back(net);
}

bool Netlist::IsSecret(NetId net) const {
  return std::find(secret_nets_.begin(), secret_nets_.end(), net) !=
         secret_nets_.end();
}

void Netlist::MarkRandom(NetId net, unsigned mask_group) {
  CheckNet(net);
  random_nets_.emplace_back(net, mask_group);
}

void Netlist::WaiveLint(NetId net, const std::string& reason) {
  CheckNet(net);
  lint_waivers_.emplace_back(net, reason);
}

void Netlist::MarkOutput(NetId net, const std::string& name) {
  CheckNet(net);
  outputs_.emplace_back(net, name);
  names_.emplace(net, name);
}

void Netlist::NameNet(NetId net, const std::string& name) {
  CheckNet(net);
  names_[net] = name;
}

void Netlist::MarkFastCarry(NetId net) {
  CheckNet(net);
  if (fast_carry_.size() < nodes_.size()) fast_carry_.resize(nodes_.size(), 0);
  fast_carry_[net] = 1;
}

bool Netlist::IsFastCarry(NetId net) const {
  return net < fast_carry_.size() && fast_carry_[net] != 0;
}

std::string Netlist::NetName(NetId id) const {
  const auto it = names_.find(id);
  if (it != names_.end()) return it->second;
  return IndexedName("n", id);
}

NetlistStats Netlist::Stats() const {
  NetlistStats stats;
  for (const Node& node : nodes_) {
    switch (node.op) {
      case Op::kInput: ++stats.inputs; break;
      case Op::kAnd:
      case Op::kNand: ++stats.and_gates; break;
      case Op::kOr:
      case Op::kNor: ++stats.or_gates; break;
      case Op::kXor:
      case Op::kXnor: ++stats.xor_gates; break;
      case Op::kNot: ++stats.not_gates; break;
      case Op::kMux: ++stats.mux_gates; break;
      case Op::kDff: ++stats.flip_flops; break;
      default: break;
    }
  }
  return stats;
}

std::vector<std::vector<NetId>> Netlist::BuildFanout() const {
  std::vector<std::vector<NetId>> fanout(nodes_.size());
  for (NetId id = 0; id < nodes_.size(); ++id) {
    for (const NetId src : FaninOf(nodes_[id])) {
      if (src < nodes_.size()) fanout[src].push_back(id);
    }
  }
  return fanout;
}

const std::vector<NetId>& Netlist::TopoOrder() const {
  if (topo_valid_) return topo_cache_;
  topo_cache_.clear();
  topo_cache_.reserve(nodes_.size());
  // Kahn's algorithm restricted to combinational nodes; DFF outputs,
  // inputs and constants are sources whose values are known before
  // combinational settling.  The fanout is one flat array: the consumers
  // of net i sit at fanout[offsets[i] .. offsets[i + 1]), in NetId order
  // (a node reading a net in two slots appears twice).
  const auto comb_source = [this](NetId src) {
    return src != kNoNet && IsCombinational(nodes_[src].op);
  };
  std::vector<std::uint8_t> pending(nodes_.size(), 0);
  std::vector<std::uint32_t> offsets(nodes_.size() + 1, 0);
  std::vector<NetId> ready;
  std::size_t comb_total = 0;
  for (NetId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (!IsCombinational(node.op)) continue;
    ++comb_total;
    int deps = 0;
    for (const NetId src : {node.a, node.b, node.c}) {
      if (!comb_source(src)) continue;
      ++offsets[src + 1];
      ++deps;
    }
    pending[id] = static_cast<std::uint8_t>(deps);
    if (deps == 0) ready.push_back(id);
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<NetId> fanout(offsets.back());
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (NetId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (!IsCombinational(node.op)) continue;
    for (const NetId src : {node.a, node.b, node.c}) {
      if (comb_source(src)) fanout[fill[src]++] = id;
    }
  }
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    topo_cache_.push_back(id);
    for (std::uint32_t f = offsets[id]; f < offsets[id + 1]; ++f) {
      if (--pending[fanout[f]] == 0) ready.push_back(fanout[f]);
    }
  }
  if (topo_cache_.size() != comb_total) {
    throw std::logic_error("Netlist: combinational cycle detected");
  }
  topo_valid_ = true;
  return topo_cache_;
}

}  // namespace mont::rtl
