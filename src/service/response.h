#ifndef MBR_SERVICE_RESPONSE_H_
#define MBR_SERVICE_RESPONSE_H_

// The serving reply value object (DESIGN.md §6.8).
//
// Offline recommenders answer with a bare core::Ranking — a pure ranked
// list. The serving engine wraps that list in a Response that additionally
// says *how* it was served: which tier of the degradation ladder produced
// it, whether it came out of the result cache, and which graph epoch the
// ranking was computed under. Callers that only care about the list read
// `.ranking`; callers that surface serving provenance (the wire encoder,
// the stats rollup) read `.meta`.

#include <cstdint>

#include "core/recommender_iface.h"

namespace mbr::service {

// Serving provenance for one answered query.
struct ServeMeta {
  // The ladder tier that produced the ranking. For cache hits this is the
  // tier that originally computed the cached list, not the (free) lookup.
  core::Tier served_tier = core::Tier::kExact;
  // True when the ranking came out of the result cache (fresh- or
  // stale-epoch hit) rather than a scorer run.
  bool cache_hit = false;
  // Graph epoch the ranking was computed under. A stale-tier reply carries
  // the dead epoch its entry was cached at — never the current one.
  uint64_t graph_epoch = 0;
  // How many epochs behind the current graph this reply is; 0 for every
  // tier but kStale.
  uint32_t stale_age_epochs = 0;
};

struct Response {
  core::Ranking ranking;
  ServeMeta meta;
};

}  // namespace mbr::service

#endif  // MBR_SERVICE_RESPONSE_H_
