// Shared plumbing for concrete NSMs: an RPC client rooted at the process
// the instance actually runs in (its *locus*), and the NSM result cache the
// paper added to the prototype ("the NSMs were modified to cache the
// results of remote lookups").
//
// The locus is distinct from info().host: info() describes where the
// *served* instance of this NSM is registered; the same class can also be
// linked into a client or agent process, in which case its remote lookups
// originate there.

#ifndef HCS_SRC_NSM_NSM_BASE_H_
#define HCS_SRC_NSM_NSM_BASE_H_

#include <string>
#include <string_view>
#include <utility>

#include "src/common/strings.h"
#include "src/hns/cache.h"
#include "src/hns/nsm_interface.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

// An NSM cache key, "<tag>|<part>[|<second>]" with the parts case-folded,
// built in place: a warm query probes with view() and allocates no key; a
// miss makes the one std::string the cache stores.
inline InlineKey NsmCacheKey(std::string_view tag, std::string_view part) {
  InlineKey key;
  key.Append(tag).Push('|').AppendLower(part);
  return key;
}
inline InlineKey NsmCacheKey(std::string_view tag, std::string_view part,
                             std::string_view second) {
  InlineKey key;
  key.Append(tag).Push('|').AppendLower(part).Push('|').AppendLower(second);
  return key;
}

class NsmBase : public Nsm {
 public:
  const NsmInfo& info() const override { return info_; }
  HnsCache* cache() override { return &cache_; }

 protected:
  NsmBase(World* world, std::string locus_host, Transport* transport, NsmInfo info,
          CacheMode cache_mode)
      : world_(world),
        locus_host_(std::move(locus_host)),
        rpc_client_(world, locus_host_, transport),
        info_(std::move(info)),
        cache_(world, cache_mode) {}

  // Budget check for the top of Query: kTimeout when the ambient request
  // context (installed by the serving runtime before dispatch, or by the
  // caller for a linked instance) has already spent its budget. NSMs shed
  // such queries instead of interrogating the underlying name service.
  HCS_NODISCARD Status CheckBudget(const char* op) const { return ShedIfBudgetSpent(op); }

  World* world_;
  std::string locus_host_;
  RpcClient rpc_client_;
  NsmInfo info_;
  HnsCache cache_;
};

}  // namespace hcs

#endif  // HCS_SRC_NSM_NSM_BASE_H_
