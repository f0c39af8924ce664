// Property test for DeltaGraph under random FOLLOW/UNFOLLOW/RELABEL
// interleavings (ISSUE 6 satellite): the overlay must agree, op by op,
// with a naive map<(src,dst) -> labels> model — same accept/reject
// verdicts, same degrees, same labels — and Materialize() must produce a
// graph whose CSR arrays are byte-equal to one built directly from the
// model's edge set (GraphBuilder canonicalizes edge order, so equal edge
// sets imply equal CSR bytes).
//
// Failures shrink by drop-one-op delta debugging before reporting, so a
// broken invariant surfaces as a minimal reproducer trace.

#include "dynamic/delta_graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"
#include "topics/topic.h"
#include "util/rng.h"

namespace mbr::dynamic {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using graph::NodeId;
using topics::TopicSet;

constexpr NodeId kNodes = 24;
constexpr int kTopics = 6;

enum class OpKind : uint8_t { kFollow, kUnfollow, kRelabel };

struct Op {
  OpKind kind;
  NodeId src;
  NodeId dst;
  uint64_t labels;  // ignored for kUnfollow
};

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kFollow: return "FOLLOW";
    case OpKind::kUnfollow: return "UNFOLLOW";
    case OpKind::kRelabel: return "RELABEL";
  }
  return "?";
}

std::string TraceToString(const std::vector<Op>& ops) {
  std::ostringstream os;
  for (const Op& op : ops) {
    os << OpName(op.kind) << " " << op.src << "->" << op.dst;
    if (op.kind != OpKind::kUnfollow) os << " labels=0x" << std::hex
                                         << op.labels << std::dec;
    os << "\n";
  }
  return os.str();
}

// The naive model: a sorted edge map plus the base node labels.
using EdgeMap = std::map<std::pair<NodeId, NodeId>, TopicSet>;

bool ModelApply(EdgeMap* model, const Op& op) {
  auto key = std::make_pair(op.src, op.dst);
  switch (op.kind) {
    case OpKind::kFollow:
      if (op.src == op.dst || model->count(key)) return false;
      (*model)[key] = TopicSet(op.labels);
      return true;
    case OpKind::kUnfollow:
      return model->erase(key) > 0;
    case OpKind::kRelabel: {
      auto it = model->find(key);
      if (it == model->end()) return false;
      it->second = TopicSet(op.labels);
      return true;
    }
  }
  return false;
}

LabeledGraph BuildFromModel(const EdgeMap& model, const LabeledGraph& base) {
  GraphBuilder b(kNodes, kTopics);
  for (NodeId u = 0; u < kNodes; ++u) b.SetNodeLabels(u, base.NodeLabels(u));
  for (const auto& [edge, labels] : model) {
    b.AddEdge(edge.first, edge.second, labels);
  }
  return std::move(b).Build();
}

LabeledGraph SeedBase(uint64_t seed, EdgeMap* model) {
  util::Rng rng(seed);
  GraphBuilder b(kNodes, kTopics);
  for (NodeId u = 0; u < kNodes; ++u) {
    b.SetNodeLabels(u, TopicSet(1 + rng.UniformU64((1u << kTopics) - 1)));
  }
  for (int i = 0; i < 60; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(kNodes));
    NodeId v = static_cast<NodeId>(rng.UniformU64(kNodes));
    if (u == v || model->count({u, v})) continue;
    TopicSet labels(1 + rng.UniformU64((1u << kTopics) - 1));
    b.AddEdge(u, v, labels);
    (*model)[{u, v}] = labels;
  }
  return std::move(b).Build();
}

// Runs one trace against both the overlay and the model. Returns
// std::nullopt on success, or a description of the first violated
// invariant.
std::optional<std::string> RunTrace(const LabeledGraph& base,
                                    const EdgeMap& base_model,
                                    const std::vector<Op>& ops) {
  DeltaGraph d(&base);
  EdgeMap model = base_model;

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    bool model_ok = ModelApply(&model, op);
    bool delta_ok = false;
    switch (op.kind) {
      case OpKind::kFollow:
        delta_ok = d.AddEdge(op.src, op.dst, TopicSet(op.labels));
        break;
      case OpKind::kUnfollow:
        delta_ok = d.RemoveEdge(op.src, op.dst);
        break;
      case OpKind::kRelabel:
        delta_ok = d.RelabelEdge(op.src, op.dst, TopicSet(op.labels));
        break;
    }
    std::ostringstream where;
    where << "op " << i << " (" << OpName(op.kind) << " " << op.src << "->"
          << op.dst << "): ";
    if (delta_ok != model_ok) {
      return where.str() + (delta_ok ? "overlay accepted, model rejected"
                                     : "overlay rejected, model accepted");
    }
    if (d.num_edges() != model.size()) {
      return where.str() + "num_edges " + std::to_string(d.num_edges()) +
             " != model " + std::to_string(model.size());
    }
    if (d.HasEdge(op.src, op.dst) != (model.count({op.src, op.dst}) > 0)) {
      return where.str() + "HasEdge disagrees with model";
    }
    auto it = model.find({op.src, op.dst});
    TopicSet want = it == model.end() ? TopicSet() : it->second;
    if (d.EdgeLabels(op.src, op.dst) != want) {
      return where.str() + "EdgeLabels disagrees with model";
    }
  }

  // Full sweep after the trace: degrees per node, then CSR byte-equality
  // of the materialized graph against one built straight from the model.
  std::vector<uint32_t> out(kNodes, 0), in(kNodes, 0);
  for (const auto& [edge, labels] : model) {
    ++out[edge.first];
    ++in[edge.second];
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    if (d.OutDegree(u) != out[u]) {
      return "final OutDegree(" + std::to_string(u) + ") = " +
             std::to_string(d.OutDegree(u)) + ", model " +
             std::to_string(out[u]);
    }
    if (d.InDegree(u) != in[u]) {
      return "final InDegree(" + std::to_string(u) + ") = " +
             std::to_string(d.InDegree(u)) + ", model " +
             std::to_string(in[u]);
    }
  }

  LabeledGraph got = d.Materialize();
  LabeledGraph want = BuildFromModel(model, base);
  if (got.num_edges() != want.num_edges()) {
    return "materialized num_edges mismatch";
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    if (got.NodeLabels(u) != want.NodeLabels(u)) {
      return "materialized NodeLabels(" + std::to_string(u) + ") mismatch";
    }
    auto gn = got.OutNeighbors(u);
    auto wn = want.OutNeighbors(u);
    auto gl = got.OutEdgeLabels(u);
    auto wl = want.OutEdgeLabels(u);
    if (gn.size() != wn.size()) {
      return "materialized OutNeighbors(" + std::to_string(u) +
             ") size mismatch";
    }
    for (size_t i = 0; i < gn.size(); ++i) {
      if (gn[i] != wn[i] || gl[i] != wl[i]) {
        return "materialized CSR row " + std::to_string(u) +
               " differs at slot " + std::to_string(i);
      }
    }
  }
  return std::nullopt;
}

// Drop-one-op shrinking: repeatedly remove any op whose removal keeps the
// trace failing, until no single removal does.
std::vector<Op> Shrink(const LabeledGraph& base, const EdgeMap& base_model,
                       std::vector<Op> ops) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (RunTrace(base, base_model, candidate).has_value()) {
        ops = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return ops;
}

std::vector<Op> RandomTrace(util::Rng* rng, size_t len) {
  std::vector<Op> ops;
  ops.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    Op op;
    uint64_t roll = rng->UniformU64(10);
    op.kind = roll < 4   ? OpKind::kFollow
              : roll < 7 ? OpKind::kUnfollow
                         : OpKind::kRelabel;
    op.src = static_cast<NodeId>(rng->UniformU64(kNodes));
    // Small node space on purpose: collisions make rejected duplicates,
    // re-adds of tombstoned base edges, and relabels of live edges common.
    op.dst = static_cast<NodeId>(rng->UniformU64(kNodes));
    op.labels = 1 + rng->UniformU64((1u << kTopics) - 1);
    ops.push_back(op);
  }
  return ops;
}

TEST(DeltaGraphPropertyTest, RandomInterleavingsMatchNaiveModel) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    EdgeMap base_model;
    LabeledGraph base = SeedBase(seed, &base_model);
    util::Rng rng(seed * 7919);
    std::vector<Op> ops = RandomTrace(&rng, 300);
    auto failure = RunTrace(base, base_model, ops);
    if (failure.has_value()) {
      std::vector<Op> minimal = Shrink(base, base_model, ops);
      auto refailure = RunTrace(base, base_model, minimal);
      FAIL() << "seed " << seed << ": " << *failure << "\nminimal trace ("
             << minimal.size() << " ops):\n"
             << TraceToString(minimal) << "shrunk failure: "
             << refailure.value_or("(no longer fails?)");
    }
  }
}

TEST(DeltaGraphPropertyTest, DeterministicCornerTraces) {
  // Corner traces the random walk may not always hit: self-loop follow,
  // relabel of a base edge, unfollow + re-follow + relabel of the same
  // pair, relabel-to-identical-labels (still applied), double-unfollow.
  EdgeMap base_model;
  LabeledGraph base = SeedBase(3, &base_model);
  ASSERT_FALSE(base_model.empty());
  auto [edge, labels] = *base_model.begin();
  std::vector<Op> trace = {
      {OpKind::kFollow, edge.first, edge.first, 0x1},  // self-loop: rejected
      {OpKind::kRelabel, edge.first, edge.second, 0x5},
      {OpKind::kUnfollow, edge.first, edge.second, 0},
      {OpKind::kFollow, edge.first, edge.second, 0x3},
      {OpKind::kRelabel, edge.first, edge.second, 0x3},
      {OpKind::kUnfollow, edge.first, edge.second, 0},
      {OpKind::kUnfollow, edge.first, edge.second, 0},  // double-unfollow
  };
  auto failure = RunTrace(base, base_model, trace);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(DeltaGraphPropertyTest, DeterministicAcrossIdenticalRuns) {
  EdgeMap base_model;
  LabeledGraph base = SeedBase(11, &base_model);
  util::Rng r1(42), r2(42);
  std::vector<Op> t1 = RandomTrace(&r1, 200);
  std::vector<Op> t2 = RandomTrace(&r2, 200);
  ASSERT_EQ(t1.size(), t2.size());
  DeltaGraph d1(&base), d2(&base);
  for (size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i].kind, t2[i].kind);
    for (DeltaGraph* d : {&d1, &d2}) {
      const Op& op = (d == &d1) ? t1[i] : t2[i];
      switch (op.kind) {
        case OpKind::kFollow:
          d->AddEdge(op.src, op.dst, TopicSet(op.labels));
          break;
        case OpKind::kUnfollow:
          d->RemoveEdge(op.src, op.dst);
          break;
        case OpKind::kRelabel:
          d->RelabelEdge(op.src, op.dst, TopicSet(op.labels));
          break;
      }
    }
  }
  EXPECT_EQ(d1.num_edges(), d2.num_edges());
  LabeledGraph g1 = d1.Materialize();
  LabeledGraph g2 = d2.Materialize();
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (NodeId u = 0; u < kNodes; ++u) {
    auto a = g1.OutNeighbors(u);
    auto b = g2.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

}  // namespace
}  // namespace mbr::dynamic
