// Evolving-graph scenario: keep serving landmark-based recommendations
// while the follow graph churns. Each day's churn is one mutation batch on
// the serving path, and the landmark repairer recomputes a small budget of
// stale landmarks per day (the §6 "updating strategies" extension, end to
// end).
//
//   ./build/examples/evolving_graph [num_nodes] [rounds]

#include <cstdio>
#include <cstdlib>

#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "dynamic/churn.h"
#include "dynamic/delta_graph.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "topics/vocabulary.h"

using namespace mbr;

int main(int argc, char** argv) {
  uint32_t num_nodes = argc > 1 ? std::atoi(argv[1]) : 8000;
  int rounds = argc > 2 ? std::atoi(argv[2]) : 4;

  datagen::TwitterConfig config;
  config.num_nodes = num_nodes;
  datagen::GeneratedDataset ds = GenerateTwitter(config);
  const auto& sim = topics::TwitterSimilarity();
  std::printf("day 0: %u users, %llu follow edges\n", ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()));

  // Offline pre-processing at day 0.
  core::AuthorityIndex auth0(ds.graph);
  landmark::SelectionConfig scfg;
  scfg.num_landmarks = 80;
  auto sel = SelectLandmarks(ds.graph, landmark::SelectionStrategy::kFollow,
                             scfg);
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 100;
  landmark::LandmarkIndex index(ds.graph, auth0, sim, sel.landmarks, icfg);

  // The serving stack: a landmark engine, the applier that turns each
  // day's churn into a new graph generation (authority kept exact), and a
  // repairer that recomputes at most 8 stale landmarks per day, oldest
  // lists first.
  service::EngineConfig ec;
  ec.num_threads = 1;
  ec.landmarks = &index;
  service::QueryEngine engine(ds.graph, auth0, sim, ec);
  service::MutationApplier applier(ds.graph, auth0, engine);
  service::LandmarkRepairer repairer(index, engine, sim,
                                     applier.current_graph(),
                                     applier.current_authority());
  applier.SetRepairer(&repairer);

  // The churn workload reads its own view of the evolving graph.
  dynamic::DeltaGraph overlay(&ds.graph);
  util::Rng rng(2026);
  dynamic::ChurnConfig churn;  // 5% unfollows + 5% follows per "day"

  const topics::TopicId tech = topics::TwitterVocabulary().Id("technology");
  const graph::NodeId user = 42;

  for (int day = 1; day <= rounds; ++day) {
    dynamic::ChurnRound changes =
        ApplyChurnRound(&overlay, nullptr, churn, &rng);
    service::MutationOutcome out =
        applier.Apply(service::ChurnBatch(changes));
    std::vector<graph::NodeId> repaired = repairer.RepairStale(8);

    std::printf(
        "day %d: -%zu/+%zu edges (%u applied, %u rejected, epoch %llu), "
        "repaired %zu landmarks (%zu still stale); top tech "
        "recommendations for user %u:",
        day, changes.removed.size(), changes.added.size(), out.applied,
        out.rejected, static_cast<unsigned long long>(out.graph_epoch),
        repaired.size(), repairer.stale_count(), user);
    auto recs = engine.TopN(user, tech, 3);
    if (!recs.ok()) {
      std::printf(" %s\n", recs.status().ToString().c_str());
      return 1;
    }
    for (const auto& r : recs.value()) std::printf("  #%u", r.id);
    std::printf("\n");
  }
  std::printf("total landmark recomputations: %llu (vs %zu x %d for full "
              "rebuilds)\n",
              static_cast<unsigned long long>(repairer.repairs_done()),
              sel.landmarks.size(), rounds);
  return 0;
}
