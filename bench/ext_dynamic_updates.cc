// EXTENSION (paper §6 future work): graph dynamicity and landmark
// staleness.
//
// "As future work we intend to study updating strategies since many
//  following links have a short lifespan. This graph dynamicity may impact
//  the scores stored by the landmarks."
//
// We churn the follow graph (x% unfollows + x% new follows per round) and
// measure, per cumulative churn level, the Kendall-tau distance between the
// exact ranking on the *current* graph and (a) a stale landmark index built
// before any churn vs (b) a freshly rebuilt index — quantifying how fast
// stored landmark recommendations rot and what a rebuild buys back.
//
// The refresh study then runs on the serving path: each churn round is one
// service::MutationApplier batch, after which service::LandmarkRepairer
// repairs a fixed budget of stale landmarks (oldest lists first), compared
// with never refreshing.
//
// Output: the human-readable tables on stdout plus
// BENCH_dynamic_updates.json (machine-readable drift + refresh curves,
// same convention as BENCH_churn_drift.json) in the working directory.
// Exits 1 if the applier rejects a churn record or the repairer's drift
// is not below no refresh at some checkpoint.

#include <cstdio>

#include "bench_common.h"
#include "coord/serving_node.h"
#include "core/authority.h"
#include "core/scorer.h"
#include "dynamic/churn.h"
#include "dynamic/delta_graph.h"
#include "dynamic/incremental_authority.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/kendall.h"
#include "util/table_printer.h"
#include "util/top_k.h"

namespace {

using namespace mbr;

std::vector<uint32_t> TopIds(const std::unordered_map<graph::NodeId, double>& scores,
                             graph::NodeId self, uint32_t k) {
  util::TopK topk(k);
  for (const auto& [v, s] : scores) {
    if (v != self && s > 0.0) topk.Offer(v, s);
  }
  std::vector<uint32_t> ids;
  for (const auto& r : topk.Take()) ids.push_back(r.id);
  return ids;
}

std::vector<uint32_t> ExactTop(const core::Scorer& scorer, graph::NodeId u,
                               topics::TopicId t, uint32_t k) {
  core::ExplorationResult res =
      scorer.Explore(u, topics::TopicSet::Single(t));
  util::TopK topk(k);
  for (graph::NodeId v : res.reached()) {
    if (v != u && res.Sigma(v, t) > 0.0) topk.Offer(v, res.Sigma(v, t));
  }
  std::vector<uint32_t> ids;
  for (const auto& r : topk.Take()) ids.push_back(r.id);
  return ids;
}

// Mean Kendall-tau distance between the stored lists of `a` and `b` over
// a sample of landmarks and topics ("the scores stored by the landmarks"
// the paper worries about).
double StoredListDrift(const landmark::LandmarkIndex& a,
                       const landmark::LandmarkIndex& b,
                       const std::vector<graph::NodeId>& landmarks,
                       int num_topics) {
  auto ids_of = [](const std::vector<landmark::StoredRec>& recs) {
    std::vector<uint32_t> ids;
    for (const auto& r : recs) ids.push_back(r.node);
    return ids;
  };
  double drift = 0;
  uint32_t lists = 0;
  for (size_t li = 0; li < landmarks.size(); li += 7) {
    for (int t = 0; t < num_topics; t += 5) {
      const auto topic = static_cast<topics::TopicId>(t);
      drift += util::KendallTauTopK(
          ids_of(a.Recommendations(landmarks[li], topic)),
          ids_of(b.Recommendations(landmarks[li], topic)));
      ++lists;
    }
  }
  return lists > 0 ? drift / lists : 0.0;
}

// One cumulative-churn checkpoint of the staleness study.
struct RoundSample {
  double cumulative_churn = 0.0;
  double tau_stale = 0.0;
  double tau_fresh = 0.0;
  double max_staleness_err = 0.0;
  double stored_list_tau = 0.0;
};

// One round of the fixed-budget refresh study.
struct PolicySample {
  double cumulative_churn = 0.0;
  double drift_none = 0.0;
  double drift_repairer = 0.0;
  uint32_t applied = 0;
  uint32_t rejected = 0;
};

void WriteJson(const std::vector<RoundSample>& curve,
               const std::vector<PolicySample>& policies, uint32_t num_nodes,
               uint32_t num_landmarks, uint32_t refresh_budget) {
  FILE* f = std::fopen("BENCH_dynamic_updates.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_dynamic_updates.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ext_dynamic_updates\",\n");
  std::fprintf(f, "  \"num_nodes\": %u,\n  \"num_landmarks\": %u,\n",
               num_nodes, num_landmarks);
  std::fprintf(f, "  \"checkpoints\": [\n");
  for (size_t i = 0; i < curve.size(); ++i) {
    const RoundSample& s = curve[i];
    std::fprintf(f,
                 "    {\"cumulative_churn\": %.4f, \"tau_stale\": %.6f, "
                 "\"tau_fresh\": %.6f, \"max_staleness_err\": %.6f, "
                 "\"stored_list_tau\": %.6f}%s\n",
                 s.cumulative_churn, s.tau_stale, s.tau_fresh,
                 s.max_staleness_err, s.stored_list_tau,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"refresh_budget_per_round\": %u,\n", refresh_budget);
  std::fprintf(f, "  \"refresh_policies\": [\n");
  for (size_t i = 0; i < policies.size(); ++i) {
    const PolicySample& p = policies[i];
    std::fprintf(f,
                 "    {\"cumulative_churn\": %.4f, \"none\": %.6f, "
                 "\"repairer\": %.6f, \"applied\": %u, "
                 "\"rejected\": %u}%s\n",
                 p.cumulative_churn, p.drift_none, p.drift_repairer,
                 p.applied, p.rejected, i + 1 < policies.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_dynamic_updates.json\n");
}

}  // namespace

int main() {
  bench::PrintHeader(
      "EXT — Landmark staleness under follow-graph churn",
      "EDBT'16 §6 future work (updating strategies for dynamic graphs)");

  datagen::GeneratedDataset ds =
      datagen::GenerateTwitter(bench::BenchTwitterConfig(10000));
  const auto& sim = topics::TwitterSimilarity();
  std::printf("dataset: %u nodes, %llu edges; 100 landmarks (Follow), "
              "top-100 stored\n",
              ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()));

  // Landmarks + index built at time zero.
  core::AuthorityIndex auth0(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = 100;
  auto sel = SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 100;
  landmark::LandmarkIndex stale_index(ds.graph, auth0, sim, sel.landmarks,
                                      icfg);

  dynamic::DeltaGraph overlay(&ds.graph);
  dynamic::IncrementalAuthority inc_auth(ds.graph);
  util::Rng rng(bench::EnvSeed(77));
  dynamic::ChurnConfig churn;  // 5% + 5% per round

  const uint32_t queries = bench::EnvTrials(12);
  const uint32_t compare_k = 20;
  util::TablePrinter tp({"cumulative churn", "tau stale index",
                         "tau rebuilt index", "max-staleness err"});
  util::TablePrinter stored_drift(
      {"cumulative churn", "stored-list tau (stale vs fresh)"});

  std::vector<RoundSample> curve;
  double cumulative = 0.0;
  for (int round = 0; round <= 4; ++round) {
    if (round > 0) {
      ApplyChurnRound(&overlay, &inc_auth, churn, &rng);
      cumulative += churn.unfollow_fraction + churn.follow_fraction;
    }
    graph::LabeledGraph current = overlay.Materialize();
    core::AuthorityIndex fresh_auth(current);
    core::ScoreParams params;
    core::Scorer exact(current, fresh_auth, sim, params);

    // Rebuilt index on the current graph (same landmark set).
    landmark::LandmarkIndex fresh_index(current, fresh_auth, sim,
                                        sel.landmarks, icfg);
    landmark::ApproxConfig acfg;
    landmark::ApproxRecommender stale(current, fresh_auth, sim, stale_index,
                                      acfg);
    landmark::ApproxRecommender rebuilt(current, fresh_auth, sim,
                                        fresh_index, acfg);

    double tau_stale = 0, tau_fresh = 0;
    uint32_t done = 0;
    util::Rng qrng(1234);
    for (uint32_t q = 0; q < queries; ++q) {
      graph::NodeId u =
          static_cast<graph::NodeId>(qrng.UniformU64(current.num_nodes()));
      if (current.OutDegree(u) == 0) continue;
      topics::TopicId t =
          static_cast<topics::TopicId>(qrng.UniformU64(current.num_topics()));
      auto exact_ids = ExactTop(exact, u, t, compare_k);
      tau_stale += util::KendallTauTopK(
          TopIds(stale.ApproximateScores(u, t), u, compare_k), exact_ids);
      tau_fresh += util::KendallTauTopK(
          TopIds(rebuilt.ApproximateScores(u, t), u, compare_k), exact_ids);
      ++done;
    }
    if (done > 0) {
      tau_stale /= done;
      tau_fresh /= done;
    }

    // Incremental-authority drift caused by the stale per-topic maxima
    // (exact until RefreshMax is called): max relative error over topics.
    double max_err = 0;
    for (int t = 0; t < current.num_topics(); ++t) {
      double stale_max = inc_auth.MaxFollowersOnTopic(
          static_cast<topics::TopicId>(t));
      double true_max = fresh_auth.MaxFollowersOnTopic(
          static_cast<topics::TopicId>(t));
      if (true_max > 0) {
        max_err = std::max(max_err, (stale_max - true_max) / true_max);
      }
    }

    // Landmark-level staleness: how far the stale stored top-100 lists
    // have drifted from freshly recomputed ones.
    const double list_tau = StoredListDrift(stale_index, fresh_index,
                                            sel.landmarks,
                                            current.num_topics());

    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.0f%%", cumulative * 100);
    tp.AddRow({pct, util::TablePrinter::Num(tau_stale, 3),
               util::TablePrinter::Num(tau_fresh, 3),
               util::TablePrinter::Num(max_err, 3)});
    stored_drift.AddRow({pct, util::TablePrinter::Num(list_tau, 3)});
    curve.push_back({cumulative, tau_stale, tau_fresh, max_err, list_tau});
  }
  tp.Print("Approximation quality vs cumulative churn");
  stored_drift.Print("Stored landmark-list drift vs cumulative churn");

  std::printf(
      "\nexpected shape: the stale index degrades as churn accumulates "
      "while a rebuilt index stays at its time-zero quality; the paper's "
      "periodic-refresh argument for max_v|Γv(t)| shows up as a small "
      "max-staleness error that a RefreshMax() would clear\n");

  // ---- Refresh under a budget, on the serving path: each round's churn
  // is one MutationApplier batch (its UNFOLLOWs, then its FOLLOWs), after
  // which the repairer recomputes 10 stale landmarks (10% of the index),
  // oldest lists first. None is the time-zero index, never refreshed.
  std::vector<PolicySample> policy_curve;
  const uint32_t budget = 10;
  bool ok = true;
  {
    coord::NodeConfig nc;
    nc.graph = ds.graph;
    nc.index.emplace(ds.graph, auth0, sim, sel.landmarks, icfg);
    nc.engine.num_threads = 1;
    nc.mutable_serving = true;
    auto node = coord::ServingNode::Build(std::move(nc)).value();
    service::MutationApplier& applier = *node->applier();
    service::LandmarkRepairer& repairer = *node->repairer();
    const landmark::LandmarkIndex& live_index = *node->index();

    util::TablePrinter rp({"cumulative churn", "None", "Repairer-10",
                           "applied", "rejected"});
    dynamic::DeltaGraph overlay2(&ds.graph);
    util::Rng rng2(bench::EnvSeed(78));
    double cum = 0.0;
    for (int round = 1; round <= 4; ++round) {
      const std::vector<service::Mutation> batch = service::ChurnBatch(
          ApplyChurnRound(&overlay2, nullptr, churn, &rng2));
      cum += churn.unfollow_fraction + churn.follow_fraction;
      const service::MutationOutcome out = applier.Apply(batch);
      repairer.RepairStale(budget);

      const auto current = applier.current_graph();
      landmark::LandmarkIndex fresh_index(*current,
                                          *applier.current_authority(), sim,
                                          sel.landmarks, icfg);
      PolicySample p;
      p.cumulative_churn = cum;
      p.drift_none = StoredListDrift(stale_index, fresh_index, sel.landmarks,
                                     current->num_topics());
      p.drift_repairer = StoredListDrift(live_index, fresh_index,
                                         sel.landmarks, current->num_topics());
      p.applied = out.applied;
      p.rejected = out.rejected;
      if (p.rejected > 0) {
        std::fprintf(stderr, "FAIL: round %d: applier rejected %u of %zu "
                     "churn records\n", round, p.rejected, batch.size());
        ok = false;
      }
      if (!(p.drift_repairer < p.drift_none)) {
        std::fprintf(stderr, "FAIL: round %d: repairer drift %.6f is not "
                     "below None's %.6f\n", round, p.drift_repairer,
                     p.drift_none);
        ok = false;
      }
      rp.AddRow({util::TablePrinter::Num(cum * 100, 0) + "%",
                 util::TablePrinter::Num(p.drift_none, 3),
                 util::TablePrinter::Num(p.drift_repairer, 3),
                 std::to_string(p.applied), std::to_string(p.rejected)});
      policy_curve.push_back(p);
    }
    rp.Print(
        "Stored-list drift under a 10-landmark/round repair budget "
        "(lower = fresher)");
    std::printf(
        "\nexpected shape: None degrades steadily; the repairer spends its "
        "budget on the oldest lists, which under churn that touches every "
        "landmark each round is round-robin, and keeps drift well below "
        "None — the §6 'updating strategies' question, answered on the "
        "serving path\n");
  }
  WriteJson(curve, policy_curve, ds.graph.num_nodes(), scfg.num_landmarks,
            budget);
  return ok ? 0 : 1;
}
