// Post-hoc analysis of recorded transmissions.
//
// A TraceSink (sim/trace_recorder.h) sees every transmission as a kSend
// event: sender (`node`), port, receiver (`peer`), message kind (`msg`),
// whether the sender was informed (`flag`) and the key of the triggering
// event. These helpers turn a recorded stream into the quantities
// invariants are stated about: per-edge traffic, per-direction traffic,
// per-kind breakdowns, and the "does all traffic ride a given edge set"
// predicate the Theorem 3.1 proofs use. Events other than kSend are
// skipped, so a stream recorded at any TraceLevel can be passed whole.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/trace_recorder.h"

namespace oraclesize {

/// Normalized undirected edge key (min id, max id).
using EdgeKey = std::pair<NodeId, NodeId>;
/// Directed key (from, to).
using DirectedKey = std::pair<NodeId, NodeId>;

/// Messages per undirected edge, optionally restricted to one kind.
std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events);
std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events, MsgKind kind);

/// Messages per directed (from, to) pair.
std::map<DirectedKey, std::uint64_t> traffic_per_direction(
    const std::vector<TraceEvent>& events);

/// The heaviest undirected edge's message count (0 for an empty trace).
std::uint64_t max_edge_traffic(const std::vector<TraceEvent>& events);

/// True iff every traced message traveled inside `allowed` (normalized
/// undirected keys) — e.g. the spanning-tree edge set.
bool traffic_within(const std::vector<TraceEvent>& events,
                    const std::set<EdgeKey>& allowed);

/// Number of messages sent by nodes that were not informed at send time
/// (0 for any wakeup-legal execution).
std::uint64_t uninformed_sends(const std::vector<TraceEvent>& events);

}  // namespace oraclesize
