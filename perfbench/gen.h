// The benchmark's input generator. Everything the federation serves and
// every name a caller resolves is a pure function of the run's seed:
//
//   - the population: BIND hosts (A record, a Sun RPC service descriptor,
//     a portmapper mapping), BIND mail domains (two MX records), CH hosts
//     (address and service properties) and CH users (mailbox property);
//   - the op stream of each caller: a (query pair, population index) per op,
//     drawn from the E5 mix of bench/bench_workload.cc;
//   - the ground truth: the address, binding or mailbox the generator put
//     into the zone or CH domain for that index.
//
// The program under test sees only the generated names and records.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/common/status.h"
#include "src/hns/name.h"
#include "src/wire/value.h"
#include "src/workload/distributions.h"

namespace hnsbench {

// The six (context, query class) pairs of the E5 mix, over BIND and CH.
enum class Pair : uint8_t { kBindBinding, kBindHost, kBindMail, kChHost, kChBinding, kChMail };
constexpr int kPairs = 6;

struct PairSpec {
  const char* context;
  const char* query_class;
  const char* service;  // HRPCBinding argument, else nullptr
  int weight;           // share of the mix, out of 100
};
const PairSpec& SpecOf(Pair pair);

// Names the population lives under.
inline constexpr char kBindDomain[] = "cs.washington.edu";
inline constexpr char kChDomain[] = "CSL";
inline constexpr char kChOrganization[] = "Xerox";
inline constexpr char kBindService[] = "DesiredService";
inline constexpr char kChService[] = "PrintService";

// One generated entity per kind and index.
struct BindHost {
  std::string name;  // "h<i>.cs.washington.edu"
  uint32_t address = 0;
  uint32_t program = 0;  // Sun RPC program of its DesiredService
};
struct MailDomain {
  std::string name;  // "m<i>.cs.washington.edu"
  std::string best_relay;
  uint32_t best_preference = 0;
  std::string other_relay;
  uint32_t other_preference = 0;
  bool best_first = true;  // order the two MX records are added in
};
struct ChHost {
  std::string name;  // "h<i>:CSL:Xerox"
  uint32_t address = 0;
  uint32_t program = 0;
  uint16_t port = 0;
};
struct ChUser {
  std::string name;  // "u<i>:CSL:Xerox"
  std::string mail_host;
};

// A resolvable name and the answer the generator stored for it.
struct Target {
  Pair pair = Pair::kBindHost;
  hcs::HnsName name;
  uint32_t address = 0;   // HostAddress, HRPCBinding
  uint16_t port = 0;      // HRPCBinding
  uint32_t program = 0;   // HRPCBinding
  std::string mail_host;  // MailboxInfo
  uint32_t preference = 0;
};

class Population {
 public:
  // `size` entities of each kind.
  Population(uint64_t seed, uint32_t size);

  uint64_t seed() const { return seed_; }
  uint32_t size() const { return size_; }

  BindHost BindHostAt(uint32_t i) const;
  MailDomain MailDomainAt(uint32_t i) const;
  ChHost ChHostAt(uint32_t i) const;
  ChUser ChUserAt(uint32_t i) const;

  // The portmapper port registered for a Sun RPC program.
  static uint16_t PortForProgram(uint32_t program);
  // Every program some BIND host exports (the portmapper's table).
  static std::vector<uint32_t> AllPrograms();

  Target TargetAt(Pair pair, uint32_t index) const;

 private:
  uint64_t Draw(uint64_t stream, uint64_t index) const;

  uint64_t seed_;
  uint32_t size_;
};

// The per-pair call argument (the service an HRPCBinding query names).
const hcs::WireValue& ArgsOf(Pair pair);

// Checks an answer against the ground truth. Any mismatch — wrong address,
// port, program or mail host, or a malformed result — is an error naming
// the field.
hcs::Status CheckAnswer(const Target& target, const hcs::WireValue& result);

// How a caller draws names.
enum class DrawMode {
  kHotZipf,  // Zipf(1.1) over a hot set of each pair's names
  kUniform,  // uniform over the whole population
};

// One op of a caller's stream.
struct Op {
  Pair pair = Pair::kBindHost;
  uint32_t index = 0;  // population index (kUniform) or hot rank (kHotZipf)
  bool write = false;  // re-register the caller's churn NSM instead of reading
};

// A hot set: for each pair, the population indices of its hot names, by
// popularity rank.
class HotSet {
 public:
  HotSet(const Population& population, uint32_t names_per_pair);
  uint32_t size() const { return names_per_pair_; }
  uint32_t IndexAt(Pair pair, uint32_t rank) const {
    return ranks_[static_cast<int>(pair)][rank];
  }

 private:
  uint32_t names_per_pair_;
  std::vector<uint32_t> ranks_[kPairs];
};

// The deterministic op stream of one caller: same (seed, caller, mode)
// gives the same sequence.
class OpStream {
 public:
  // `write_every` > 0 makes every write_every-th op a write.
  OpStream(uint64_t seed, int caller, DrawMode mode, uint32_t population_size,
           uint32_t hot_size, int write_every);

  Op Next();

 private:
  hcs::Rng rng_;
  DrawMode mode_;
  uint32_t population_size_;
  hcs::ZipfSampler zipf_;
  int write_every_;
  uint64_t issued_ = 0;
};

// FNV-1a over the first `count` ops of a stream (the determinism check).
uint64_t HashOps(OpStream stream, int count);

}  // namespace hnsbench

#endif  // PERFBENCH_GEN_H_
