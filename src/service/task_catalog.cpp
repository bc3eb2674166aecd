#include "service/task_catalog.h"

#include <stdexcept>

#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "service/protocol.h"
#include "util/parse_number.h"

namespace oraclesize::service {

TreeKind parse_tree(const std::string& name) {
  if (name == "bfs") return TreeKind::kBfs;
  if (name == "dfs") return TreeKind::kDfs;
  if (name == "kruskal") return TreeKind::kKruskal;
  if (name == "light") return TreeKind::kLight;
  throw std::invalid_argument("unknown tree '" + name + "'");
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "sync") return SchedulerKind::kSynchronous;
  if (name == "random") return SchedulerKind::kAsyncRandom;
  if (name == "fifo") return SchedulerKind::kAsyncFifo;
  if (name == "lifo") return SchedulerKind::kAsyncLifo;
  if (name == "linkfifo") return SchedulerKind::kAsyncLinkFifo;
  if (name == "adversarial") return SchedulerKind::kAsyncAdversarial;
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

TaskRequest parse_task_request(const std::map<std::string, std::string>& kv) {
  TaskRequest req;
  auto get = [&kv](const char* key) -> const std::string* {
    auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  if (const auto* v = get("digest")) req.digest = *v;
  if (const auto* v = get("task")) req.task = *v;
  if (const auto* v = get("source")) {
    req.source = parse_number<NodeId>(*v, "source");
  }
  if (const auto* v = get("tree")) req.tree = *v;
  if (const auto* v = get("fraction")) {
    req.fraction = parse_probability(*v, "fraction");
  }
  if (const auto* v = get("oracle_seed")) {
    req.oracle_seed = parse_number<std::uint64_t>(*v, "oracle_seed");
  }
  if (const auto* v = get("scheduler")) req.scheduler = *v;
  if (const auto* v = get("seed")) {
    req.seed = parse_number<std::uint64_t>(*v, "seed");
  }
  if (const auto* v = get("fault_drop")) {
    req.fault_drop = parse_probability(*v, "fault_drop");
  }
  if (const auto* v = get("fault_seed")) {
    req.fault_seed = parse_number<std::uint64_t>(*v, "fault_seed");
  }
  if (const auto* v = get("deadline_ms")) {
    req.deadline_ms = parse_number<std::uint64_t>(*v, "deadline_ms");
  }
  if (req.digest.empty()) throw std::invalid_argument("missing digest");
  return req;
}

std::string encode_task_request(const TaskRequest& req, bool run) {
  std::string body;
  append_kv(body, "digest", req.digest);
  append_kv(body, "task", req.task);
  append_kv(body, "source", static_cast<std::uint64_t>(req.source));
  if (!req.tree.empty()) append_kv(body, "tree", req.tree);
  if (req.task == "hybrid") {
    append_kv(body, "fraction", std::to_string(req.fraction));
    append_kv(body, "oracle_seed", req.oracle_seed);
  }
  if (run) {
    append_kv(body, "scheduler", req.scheduler);
    append_kv(body, "seed", req.seed);
    if (req.fault_drop > 0.0) {
      append_kv(body, "fault_drop", std::to_string(req.fault_drop));
      append_kv(body, "fault_seed", req.fault_seed);
    }
    if (req.deadline_ms > 0) append_kv(body, "deadline_ms", req.deadline_ms);
  }
  return body;
}

TaskBinding bind_task(const TaskRequest& req) {
  TaskBinding binding;
  std::string algorithm_name;
  const bool tree_set = !req.tree.empty();
  const TreeKind tree = tree_set ? parse_tree(req.tree) : TreeKind::kBfs;
  if (req.task == "wakeup") {
    algorithm_name = "wakeup-tree";
    binding.oracle = std::make_unique<TreeWakeupOracle>(tree);
  } else if (req.task == "census") {
    algorithm_name = "census-echo";
    binding.oracle = std::make_unique<TreeWakeupOracle>(tree);
  } else if (req.task == "gossip") {
    algorithm_name = "gossip-tree";
    binding.oracle = std::make_unique<TreeWakeupOracle>(tree);
  } else if (req.task == "broadcast") {
    algorithm_name = "broadcast-B";
    binding.oracle = std::make_unique<LightBroadcastOracle>(
        tree_set ? tree : TreeKind::kLight);
  } else if (req.task == "flooding") {
    algorithm_name = "flooding";
    binding.oracle = std::make_unique<NullOracle>();
  } else if (req.task == "hybrid") {
    algorithm_name = "hybrid-wakeup";
    binding.oracle = std::make_unique<PartialTreeOracle>(
        req.fraction, req.oracle_seed, tree);
  } else {
    throw std::invalid_argument("unknown task '" + req.task + "'");
  }
  binding.algorithm = algorithm_by_name(algorithm_name);
  return binding;
}

RunOptions run_options_for(const TaskRequest& req) {
  RunOptions options;
  options.scheduler = parse_scheduler(req.scheduler);
  options.seed = req.seed;
  options.fault.drop = req.fault_drop;
  options.fault.seed = req.fault_seed;
  return options;
}

}  // namespace oraclesize::service
