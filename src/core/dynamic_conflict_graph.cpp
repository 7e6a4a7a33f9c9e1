#include "core/dynamic_conflict_graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace pslocal {

namespace {

constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// The current edge lists seen through Hypergraph's edge / edges_of, the
/// interface ConflictRows reads.
struct Incidence {
  const std::vector<std::vector<VertexId>>& edges;
  const std::vector<std::vector<EdgeId>>& incidence;
  [[nodiscard]] std::span<const VertexId> edge(EdgeId e) const {
    return edges[e];
  }
  [[nodiscard]] std::span<const EdgeId> edges_of(VertexId v) const {
    return incidence[v];
  }
};

/// Shared sentinel for triples with no neighbors; counts as "shared"
/// between any two graphs, which is exactly right for the memory probe.
const std::shared_ptr<const std::vector<TripleId>>& empty_row() {
  static const auto row = std::make_shared<const std::vector<TripleId>>();
  return row;
}

struct DeltaMetrics {
  obs::Counter applies{"dynamic_conflict_graph.applies"};
  obs::Counter triples_removed{"dynamic_conflict_graph.triples_removed"};
  obs::Counter triples_added{"dynamic_conflict_graph.triples_added"};
  obs::Counter gk_edges_removed{"dynamic_conflict_graph.gk_edges_removed"};
  obs::Counter gk_edges_added{"dynamic_conflict_graph.gk_edges_added"};
};

const DeltaMetrics& delta_metrics() {
  static DeltaMetrics m;
  return m;
}

}  // namespace

DynamicConflictGraph::DynamicConflictGraph(const Hypergraph& h, std::size_t k,
                                           runtime::Scheduler&)
    : DynamicConflictGraph(ConflictGraph(h, k)) {}

DynamicConflictGraph::DynamicConflictGraph(const ConflictGraph& cg) {
  const Hypergraph& h = cg.hypergraph();
  n_ = h.vertex_count();
  k_ = cg.k();
  edges_.reserve(h.edge_count());
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto vs = h.edge(e);
    edges_.emplace_back(vs.begin(), vs.end());
  }
  rebuild_pair_offsets();
  rebuild_incidence();
  const Graph& g = cg.graph();
  adj_.resize(g.vertex_count());
  for (TripleId t = 0; t < adj_.size(); ++t) {
    const auto nbrs = g.neighbors(static_cast<VertexId>(t));
    adj_[t] = nbrs.empty() ? empty_row()
                           : std::make_shared<const std::vector<TripleId>>(
                                 nbrs.begin(), nbrs.end());
  }
  gk_edges_ = g.edge_count();
}

void DynamicConflictGraph::rebuild_pair_offsets() {
  pair_offset_.assign(edges_.size() + 1, 0);
  for (EdgeId e = 0; e < edges_.size(); ++e)
    pair_offset_[e + 1] = pair_offset_[e] + edges_[e].size();
}

void DynamicConflictGraph::rebuild_incidence() {
  incidence_.assign(n_, {});
  for (EdgeId e = 0; e < edges_.size(); ++e)
    for (const VertexId v : edges_[e]) incidence_[v].push_back(e);
}

Triple DynamicConflictGraph::triple(TripleId t) const {
  PSL_EXPECTS(t < triple_count());
  const std::size_t pair = t / k_;
  const auto it = std::upper_bound(pair_offset_.begin(), pair_offset_.end(),
                                   pair);
  const EdgeId e = static_cast<EdgeId>(
      std::distance(pair_offset_.begin(), it) - 1);
  Triple out;
  out.e = e;
  out.v = edges_[e][pair - pair_offset_[e]];
  out.c = t % k_ + 1;
  return out;
}

DynamicConflictGraph::Delta DynamicConflictGraph::apply(const Mutation& mut) {
  PSL_OBS_SPAN("conflict_graph.apply_delta");
  const auto invalid = validate_mutation(n_, edges_, mut);
  PSL_CHECK_MSG(!invalid.has_value(), "dynamic conflict graph: " << *invalid);
  delta_metrics().applies.add(1);

  Delta delta;
  const std::size_t old_triples = adj_.size();
  const std::size_t old_m = edges_.size();

  if (mut.op == MutationOp::kAddVertex) {
    ++n_;
    incidence_.emplace_back();
    delta.remap.resize(old_triples);
    std::iota(delta.remap.begin(), delta.remap.end(), TripleId{0});
    return delta;
  }

  // Plan: which old blocks disappear, which new contents are fresh.
  std::vector<char> edge_touched(old_m, 0);  // old block removed
  std::vector<std::vector<VertexId>> replacement(old_m);
  std::vector<char> replaced(old_m, 0);
  std::vector<std::vector<VertexId>> appended;
  switch (mut.op) {
    case MutationOp::kAddEdge: {
      std::vector<VertexId> vs = mut.vertices;
      std::sort(vs.begin(), vs.end());
      appended.push_back(std::move(vs));
      break;
    }
    case MutationOp::kRemoveEdge:
      edge_touched[mut.edge] = 1;
      break;
    case MutationOp::kRemoveVertex: {
      const VertexId v = mut.vertices[0];
      for (const EdgeId e : incidence_[v]) {
        edge_touched[e] = 1;
        if (edges_[e].size() > 1) {
          replaced[e] = 1;
          std::vector<VertexId> shrunk;
          shrunk.reserve(edges_[e].size() - 1);
          for (const VertexId u : edges_[e])
            if (u != v) shrunk.push_back(u);
          replacement[e] = std::move(shrunk);
        }
      }
      break;
    }
    case MutationOp::kAddVertex:
      break;  // handled above
  }

  // Removed triple set = the blocks of every touched old edge.
  std::vector<char> removed_flag(old_triples, 0);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (!edge_touched[e]) continue;
    for (std::size_t t = pair_offset_[e] * k_; t < pair_offset_[e + 1] * k_;
         ++t) {
      removed_flag[t] = 1;
      delta.removed.push_back(t);
    }
  }

  // Detach: count the G_k edges that die with the removed blocks, and
  // filter them out of every surviving neighbor's list.
  std::vector<TripleId> dirty_old;
  for (const TripleId t : delta.removed) {
    for (const TripleId nb : *adj_[t]) {
      if (removed_flag[nb]) {
        if (t < nb) ++delta.gk_edges_removed;
      } else {
        ++delta.gk_edges_removed;
        dirty_old.push_back(nb);
      }
    }
  }
  std::sort(dirty_old.begin(), dirty_old.end());
  dirty_old.erase(std::unique(dirty_old.begin(), dirty_old.end()),
                  dirty_old.end());
  for (const TripleId nb : dirty_old) {
    // Rows are immutable (shared COW); publish a filtered replacement.
    const std::vector<TripleId>& old_row = *adj_[nb];
    std::vector<TripleId> kept;
    kept.reserve(old_row.size());
    for (const TripleId x : old_row)
      if (!removed_flag[x]) kept.push_back(x);
    adj_[nb] = std::make_shared<const std::vector<TripleId>>(std::move(kept));
  }

  // New edge list: survivors keep relative order, replaced edges keep
  // their position with fresh content, appends go at the end.
  std::vector<std::vector<VertexId>> new_edges;
  new_edges.reserve(old_m + appended.size());
  std::vector<char> fresh;
  fresh.reserve(old_m + appended.size());
  std::vector<EdgeId> old_to_new(old_m, kNoEdge);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (edge_touched[e] && !replaced[e]) continue;  // deleted
    old_to_new[e] = static_cast<EdgeId>(new_edges.size());
    if (replaced[e]) {
      new_edges.push_back(std::move(replacement[e]));
      fresh.push_back(1);
    } else {
      new_edges.push_back(std::move(edges_[e]));
      fresh.push_back(0);
    }
  }
  for (auto& vs : appended) {
    new_edges.push_back(std::move(vs));
    fresh.push_back(1);
  }

  const std::vector<std::size_t> old_offset = std::move(pair_offset_);
  edges_ = std::move(new_edges);
  rebuild_pair_offsets();
  rebuild_incidence();

  const std::size_t new_triples = pair_offset_.back() * k_;
  PSL_EXPECTS_MSG(new_triples < (std::uint64_t{1} << 32),
                  "conflict graph too large for 32-bit triple ids");

  // Survivor remap: untouched blocks move en bloc (strictly increasing,
  // so remapped sorted lists stay sorted).
  delta.remap.assign(old_triples, kRemoved);
  for (EdgeId e = 0; e < old_m; ++e) {
    if (edge_touched[e]) continue;
    const EdgeId ne = old_to_new[e];
    const std::size_t old_first = old_offset[e] * k_;
    const std::size_t new_first = pair_offset_[ne] * k_;
    const std::size_t count = (old_offset[e + 1] - old_offset[e]) * k_;
    for (std::size_t i = 0; i < count; ++i)
      delta.remap[old_first + i] = new_first + i;
  }

  std::vector<Row> new_adj(new_triples);
  for (TripleId t = 0; t < old_triples; ++t) {
    const TripleId nt = delta.remap[t];
    if (nt == kRemoved) continue;
    const std::vector<TripleId>& row = *adj_[t];
    // A row whose every neighbor keeps its id is content-unchanged under
    // the remap: keep sharing its storage instead of reallocating.  This
    // is what preserves structural sharing for mutations far from the
    // rows a stored session copy still points at.
    bool unchanged = true;
    for (const TripleId x : row) {
      if (delta.remap[x] != x) {
        unchanged = false;
        break;
      }
    }
    if (unchanged) {
      new_adj[nt] = std::move(adj_[t]);
      continue;
    }
    std::vector<TripleId> remapped;
    remapped.reserve(row.size());
    for (const TripleId x : row) remapped.push_back(delta.remap[x]);
    new_adj[nt] =
        std::make_shared<const std::vector<TripleId>>(std::move(remapped));
  }
  adj_ = std::move(new_adj);

  // Fresh blocks: their rows come from ConflictRows, the enumerator
  // ConflictGraph builds with, against the new layout.  Every new G_k
  // edge has a fresh endpoint, so these rows name all of them; a
  // survivor's new neighbors are the fresh triples whose rows name it,
  // collected in ascending order because fresh ids are visited so.
  std::vector<char> is_fresh(new_triples, 0);
  for (EdgeId ne = 0; ne < edges_.size(); ++ne) {
    if (!fresh[ne]) continue;
    for (std::size_t t = pair_offset_[ne] * k_; t < pair_offset_[ne + 1] * k_;
         ++t) {
      is_fresh[t] = 1;
      delta.added.push_back(t);
    }
  }
  // Dirty region: survivors that lost or gained a neighbor, plus fresh
  // triples with a neighbor.
  for (const TripleId t : dirty_old) delta.dirty.push_back(delta.remap[t]);
  std::vector<std::vector<TripleId>> gained(new_triples);
  std::size_t fresh_pairs = 0;  // fresh-fresh edges, seen from both ends
  ConflictRows rows(k_);
  std::vector<VertexId> pair_rows;  // the k rows of one incidence pair
  const Incidence incidence{edges_, incidence_};
  for (EdgeId ne = 0; ne < edges_.size(); ++ne) {
    if (!fresh[ne]) continue;
    rows.load(incidence, pair_offset_, ne);
    for (std::size_t i = 0; i < edges_[ne].size(); ++i) {
      const std::size_t size = rows.row_size(i);
      pair_rows.resize(k_ * size);
      rows.write_rows(i, pair_rows.data());
      for (std::size_t c0 = 0; c0 < k_; ++c0) {
        const TripleId t = (pair_offset_[ne] + i) * k_ + c0;
        const std::span<const VertexId> row(pair_rows.data() + c0 * size,
                                            size);
        for (const VertexId x : row) {
          if (is_fresh[x]) {
            ++fresh_pairs;
          } else {
            gained[x].push_back(t);
            ++delta.gk_edges_added;
          }
        }
        if (row.empty()) {
          adj_[t] = empty_row();  // no neighbors at all
          continue;
        }
        adj_[t] = std::make_shared<const std::vector<TripleId>>(row.begin(),
                                                                row.end());
        delta.dirty.push_back(t);
      }
    }
  }
  delta.gk_edges_added += fresh_pairs / 2;

  // Fresh ids are disjoint from survivor ids, so a merge never meets a
  // neighbor twice.
  for (TripleId x = 0; x < new_triples; ++x) {
    if (gained[x].empty()) continue;
    const std::vector<TripleId>& list = *adj_[x];
    std::vector<TripleId> merged(list.size() + gained[x].size());
    std::merge(list.begin(), list.end(), gained[x].begin(), gained[x].end(),
               merged.begin());
    adj_[x] = std::make_shared<const std::vector<TripleId>>(std::move(merged));
    delta.dirty.push_back(x);
  }
  gk_edges_ = gk_edges_ - delta.gk_edges_removed + delta.gk_edges_added;
  std::sort(delta.dirty.begin(), delta.dirty.end());
  delta.dirty.erase(std::unique(delta.dirty.begin(), delta.dirty.end()),
                    delta.dirty.end());

  delta_metrics().triples_removed.add(delta.removed.size());
  delta_metrics().triples_added.add(delta.added.size());
  delta_metrics().gk_edges_removed.add(delta.gk_edges_removed);
  delta_metrics().gk_edges_added.add(delta.gk_edges_added);
  return delta;
}

Hypergraph DynamicConflictGraph::hypergraph() const {
  return Hypergraph(n_, edges_);
}

std::uint64_t DynamicConflictGraph::content_hash() const {
  Fnv1a64 hash;
  hash.update_u64(n_);
  hash.update_u64(edges_.size());
  for (const auto& edge : edges_) {
    hash.update_u64(edge.size());
    for (const VertexId v : edge) hash.update_u64(v);
  }
  return hash.digest();
}

Graph DynamicConflictGraph::snapshot(runtime::Scheduler&) const {
  std::vector<std::size_t> offsets(adj_.size() + 1, 0);
  for (TripleId t = 0; t < adj_.size(); ++t)
    offsets[t + 1] = offsets[t] + adj_[t]->size();
  std::vector<VertexId> neighbors;
  neighbors.reserve(offsets.back());
  for (const Row& row : adj_)
    neighbors.insert(neighbors.end(), row->begin(), row->end());
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

std::uint64_t DynamicConflictGraph::graph_hash() const {
  Fnv1a64 hash;
  hash.update_u64(adj_.size());
  for (const Row& list : adj_) {
    hash.update_u64(list->size());
    for (const TripleId nb : *list) hash.update_u64(nb);
  }
  return hash.digest();
}

std::size_t DynamicConflictGraph::shared_rows_with(
    const DynamicConflictGraph& other) const {
  const std::size_t common = std::min(adj_.size(), other.adj_.size());
  std::size_t shared = 0;
  for (std::size_t t = 0; t < common; ++t)
    if (adj_[t] != nullptr && adj_[t] == other.adj_[t]) ++shared;
  return shared;
}

}  // namespace pslocal
