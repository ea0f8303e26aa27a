#include "perfbench/gen.h"

#include <algorithm>
#include <numeric>

#include "src/common/strings.h"
#include "src/rpc/binding.h"
#include "src/rpc/ports.h"

namespace hnsbench {

namespace {

// E5's six pairs and weights (bench/bench_workload.cc kWorkload).
const PairSpec kSpecs[kPairs] = {
    {"HRPCBinding-BIND", hcs::kQueryClassHrpcBinding, kBindService, 40},
    {"BIND", hcs::kQueryClassHostAddress, nullptr, 25},
    {"Mail-BIND", hcs::kQueryClassMailboxInfo, nullptr, 15},
    {"CH", hcs::kQueryClassHostAddress, nullptr, 10},
    {"HRPCBinding-CH", hcs::kQueryClassHrpcBinding, kChService, 6},
    {"Mail-CH", hcs::kQueryClassMailboxInfo, nullptr, 4},
};

// Streams of the population draw, one per attribute.
enum Stream : uint64_t {
  kBindAddress = 1,
  kBindProgram,
  kMailRelay,
  kMailPreference,
  kMailOrder,
  kChAddress,
  kChProgram,
  kChMailHost,
  kHotSet,
  kCaller,
};

// Distinct Sun RPC programs the BIND hosts export.
constexpr uint32_t kPrograms = 512;
constexpr uint32_t kProgramBase = hcs::kUserProgramBase + 1000;

constexpr double kZipfExponent = 1.1;

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

const PairSpec& SpecOf(Pair pair) { return kSpecs[static_cast<int>(pair)]; }

Population::Population(uint64_t seed, uint32_t size) : seed_(seed), size_(size) {}

uint64_t Population::Draw(uint64_t stream, uint64_t index) const {
  hcs::Rng rng(seed_ ^ (stream << 56) ^ (index * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

BindHost Population::BindHostAt(uint32_t i) const {
  BindHost host;
  host.name = hcs::StrFormat("h%u.%s", i, kBindDomain);
  // 10.0.0.0/8 with the index in the low bits: distinct per host, and the
  // seed decides the rest.
  host.address = 0x0a000000u |
                 ((i & 0xffffffu) ^ (static_cast<uint32_t>(Draw(kBindAddress, i)) & 0xff0000u));
  host.program = kProgramBase + static_cast<uint32_t>(Draw(kBindProgram, i) % kPrograms);
  return host;
}

MailDomain Population::MailDomainAt(uint32_t i) const {
  MailDomain domain;
  domain.name = hcs::StrFormat("m%u.%s", i, kBindDomain);
  uint64_t relay = Draw(kMailRelay, i);
  domain.best_relay = hcs::StrFormat("h%u.%s", static_cast<uint32_t>(relay % size_), kBindDomain);
  domain.other_relay =
      hcs::StrFormat("h%u.%s", static_cast<uint32_t>((relay >> 32) % size_), kBindDomain);
  uint64_t preference = Draw(kMailPreference, i);
  domain.best_preference = 1 + static_cast<uint32_t>(preference % 50);
  domain.other_preference = domain.best_preference + 1 + static_cast<uint32_t>((preference >> 32) % 50);
  domain.best_first = (Draw(kMailOrder, i) & 1) == 0;
  return domain;
}

ChHost Population::ChHostAt(uint32_t i) const {
  ChHost host;
  host.name = hcs::StrFormat("h%u:%s:%s", i, kChDomain, kChOrganization);
  host.address = 0x0b000000u |
                 ((i & 0xffffffu) ^ (static_cast<uint32_t>(Draw(kChAddress, i)) & 0xff0000u));
  uint64_t program = Draw(kChProgram, i);
  host.program = kProgramBase + kPrograms + static_cast<uint32_t>(program % kPrograms);
  host.port = static_cast<uint16_t>(3000 + (program >> 32) % 20000);
  return host;
}

ChUser Population::ChUserAt(uint32_t i) const {
  ChUser user;
  user.name = hcs::StrFormat("u%u:%s:%s", i, kChDomain, kChOrganization);
  user.mail_host = hcs::StrFormat("h%u:%s:%s", static_cast<uint32_t>(Draw(kChMailHost, i) % size_),
                                  kChDomain, kChOrganization);
  return user;
}

uint16_t Population::PortForProgram(uint32_t program) {
  return static_cast<uint16_t>(20000 + (program - kProgramBase) % kPrograms);
}

std::vector<uint32_t> Population::AllPrograms() {
  std::vector<uint32_t> programs(kPrograms);
  std::iota(programs.begin(), programs.end(), kProgramBase);
  return programs;
}

Target Population::TargetAt(Pair pair, uint32_t index) const {
  Target target;
  target.pair = pair;
  target.name.context = SpecOf(pair).context;
  switch (pair) {
    case Pair::kBindBinding:
    case Pair::kBindHost: {
      BindHost host = BindHostAt(index);
      target.name.individual = host.name;
      target.address = host.address;
      target.program = host.program;
      target.port = PortForProgram(host.program);
      break;
    }
    case Pair::kBindMail: {
      MailDomain domain = MailDomainAt(index);
      target.name.individual = domain.name;
      target.mail_host = domain.best_relay;
      target.preference = domain.best_preference;
      break;
    }
    case Pair::kChHost:
    case Pair::kChBinding: {
      ChHost host = ChHostAt(index);
      target.name.individual = host.name;
      target.address = host.address;
      target.program = host.program;
      target.port = host.port;
      break;
    }
    case Pair::kChMail: {
      ChUser user = ChUserAt(index);
      target.name.individual = user.name;
      target.mail_host = user.mail_host;
      break;
    }
  }
  return target;
}

const hcs::WireValue& ArgsOf(Pair pair) {
  static const hcs::WireValue kNoArgs = hcs::WireValue::OfRecord({});
  static const hcs::WireValue kBindArgs = hcs::RecordBuilder().Str("service", kBindService).Build();
  static const hcs::WireValue kChArgs = hcs::RecordBuilder().Str("service", kChService).Build();
  switch (pair) {
    case Pair::kBindBinding:
      return kBindArgs;
    case Pair::kChBinding:
      return kChArgs;
    default:
      return kNoArgs;
  }
}

namespace {

hcs::Status Mismatch(const Target& target, const char* field, const std::string& got,
                     const std::string& want) {
  return hcs::InternalError(hcs::StrFormat("wrong answer for %s/%s: %s=%s, want %s",
                                           target.name.context.c_str(),
                                           target.name.individual.c_str(), field, got.c_str(),
                                           want.c_str()));
}

}  // namespace

hcs::Status CheckAnswer(const Target& target, const hcs::WireValue& result) {
  switch (target.pair) {
    case Pair::kBindHost:
    case Pair::kChHost: {
      HCS_ASSIGN_OR_RETURN(uint32_t address, result.Uint32Field("address"));
      if (address != target.address) {
        return Mismatch(target, "address", std::to_string(address),
                        std::to_string(target.address));
      }
      return hcs::Status::Ok();
    }
    case Pair::kBindBinding:
    case Pair::kChBinding: {
      HCS_ASSIGN_OR_RETURN(hcs::HrpcBinding binding, hcs::HrpcBinding::FromWire(result));
      if (binding.address != target.address) {
        return Mismatch(target, "address", std::to_string(binding.address),
                        std::to_string(target.address));
      }
      if (binding.port != target.port) {
        return Mismatch(target, "port", std::to_string(binding.port),
                        std::to_string(target.port));
      }
      if (binding.program != target.program) {
        return Mismatch(target, "program", std::to_string(binding.program),
                        std::to_string(target.program));
      }
      return hcs::Status::Ok();
    }
    case Pair::kBindMail:
    case Pair::kChMail: {
      HCS_ASSIGN_OR_RETURN(std::string mail_host, result.StringField("mail_host"));
      if (mail_host != target.mail_host) {
        return Mismatch(target, "mail_host", mail_host, target.mail_host);
      }
      HCS_ASSIGN_OR_RETURN(uint32_t preference, result.Uint32Field("preference"));
      if (preference != target.preference) {
        return Mismatch(target, "preference", std::to_string(preference),
                        std::to_string(target.preference));
      }
      return hcs::Status::Ok();
    }
  }
  return hcs::InternalError("unknown pair");
}

HotSet::HotSet(const Population& population, uint32_t names_per_pair)
    : names_per_pair_(std::min(names_per_pair, population.size())) {
  for (int p = 0; p < kPairs; ++p) {
    // A partial Fisher-Yates shuffle: distinct indices, seed-decided.
    std::vector<uint32_t> indices(population.size());
    std::iota(indices.begin(), indices.end(), 0u);
    hcs::Rng rng(population.seed() ^ (static_cast<uint64_t>(kHotSet) << 56) ^
                 static_cast<uint64_t>(p));
    for (uint32_t r = 0; r < names_per_pair_; ++r) {
      uint32_t pick = r + static_cast<uint32_t>(rng.Uniform(indices.size() - r));
      std::swap(indices[r], indices[pick]);
    }
    indices.resize(names_per_pair_);
    ranks_[p] = std::move(indices);
  }
}

OpStream::OpStream(uint64_t seed, int caller, DrawMode mode, uint32_t population_size,
                   uint32_t hot_size, int write_every)
    : rng_(seed ^ (static_cast<uint64_t>(kCaller) << 56) ^
           (static_cast<uint64_t>(caller + 1) * 0xd1b54a32d192ed03ULL)),
      mode_(mode),
      population_size_(population_size),
      zipf_(std::max(hot_size, 1u), kZipfExponent),
      write_every_(write_every) {}

Op OpStream::Next() {
  ++issued_;
  Op op;
  if (write_every_ > 0 && issued_ % static_cast<uint64_t>(write_every_) == 0) {
    op.write = true;
    return op;
  }
  int pick = static_cast<int>(rng_.Uniform(100));
  int p = 0;
  while (pick >= SpecOf(static_cast<Pair>(p)).weight) {
    pick -= SpecOf(static_cast<Pair>(p)).weight;
    ++p;
  }
  op.pair = static_cast<Pair>(p);
  op.index = mode_ == DrawMode::kHotZipf ? zipf_.Sample(rng_)
                                         : static_cast<uint32_t>(rng_.Uniform(population_size_));
  return op;
}

uint64_t HashOps(OpStream stream, int count) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < count; ++i) {
    Op op = stream.Next();
    hash = Fnv(hash, static_cast<uint64_t>(op.pair));
    hash = Fnv(hash, op.index);
    hash = Fnv(hash, op.write ? 1 : 0);
  }
  return hash;
}

}  // namespace hnsbench
