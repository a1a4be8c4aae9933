#include "instr/region.hpp"

#include "support/error.hpp"

namespace exareq::instr {

RegionProfiler::RegionProfiler() {
  Node root;
  root.name = "";
  root.parent = 0;
  root.visits = 1;
  nodes_.push_back(std::move(root));
}

std::size_t RegionProfiler::find_or_create_child(std::size_t parent,
                                                 std::string_view name) {
  for (std::size_t child : nodes_[parent].children) {
    if (nodes_[child].name == name) return child;
  }
  Node node;
  node.name = std::string(name);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  const std::size_t index = nodes_.size() - 1;
  nodes_[parent].children.push_back(index);
  return index;
}

void RegionProfiler::enter(std::string_view name) {
  exareq::require(!name.empty(), "RegionProfiler::enter: empty region name");
  current_ = find_or_create_child(current_, name);
  ++nodes_[current_].visits;
}

void RegionProfiler::exit() {
  exareq::require(current_ != 0, "RegionProfiler::exit: no open region");
  current_ = nodes_[current_].parent;
}

std::size_t RegionProfiler::depth() const {
  std::size_t depth = 0;
  std::size_t node = current_;
  while (node != 0) {
    node = nodes_[node].parent;
    ++depth;
  }
  return depth;
}

std::vector<CallPathMetrics> RegionProfiler::flatten() const {
  // Compute inclusive metrics bottom-up. Children always have larger
  // indices than their parents (creation order), so one reverse pass works.
  std::vector<OpCounters> inclusive(nodes_.size());
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    inclusive[i] += nodes_[i].exclusive;
    if (i != 0) inclusive[nodes_[i].parent] += inclusive[i];
  }

  std::vector<std::string> paths(nodes_.size());
  std::vector<CallPathMetrics> result;
  result.reserve(nodes_.size());
  // Depth-first emission.
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t index = stack.back();
    stack.pop_back();
    const Node& node = nodes_[index];
    if (index != 0) {
      const std::string& parent_path = paths[node.parent];
      paths[index] =
          parent_path.empty() ? node.name : parent_path + "/" + node.name;
    }
    CallPathMetrics metrics;
    metrics.path = paths[index];
    metrics.visits = node.visits;
    metrics.exclusive = node.exclusive;
    metrics.inclusive = inclusive[index];
    result.push_back(std::move(metrics));
    // Push children in reverse so they pop in creation order.
    for (std::size_t c = node.children.size(); c-- > 0;) {
      stack.push_back(node.children[c]);
    }
  }
  return result;
}

OpCounters RegionProfiler::totals() const {
  OpCounters total;
  for (const Node& node : nodes_) total += node.exclusive;
  return total;
}

}  // namespace exareq::instr
