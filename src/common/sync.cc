#include "src/common/sync.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

namespace hcs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

#ifdef NDEBUG
std::atomic<bool> g_detector_enabled{false};
#else
std::atomic<bool> g_detector_enabled{true};
#endif
std::atomic<bool> g_timing_enabled{false};

// --- Lock-order graph -------------------------------------------------------
// Nodes are mutex ids; a directed edge a -> b means "some thread acquired b
// while holding a". A cycle is a lock-order inversion: two threads running
// those paths concurrently can deadlock. Edges remember the held-lock
// context that created them so the abort report shows *both* sides.
//
// All detector state is guarded by a plain std::mutex — deliberately not an
// hcs::Mutex, which would recurse into the detector.

struct Edge {
  uint64_t to = 0;
  std::string context;  // held-lock stack when the edge was first recorded
};

struct OrderGraph {
  std::mutex mu;
  std::unordered_map<uint64_t, std::vector<Edge>> adjacency;
  // Names of the mutexes that appear in at least one edge, registered when
  // that edge is first recorded. A mutex that never orders against another
  // (the common case: a future's lock, a per-conn lock) costs the graph
  // nothing, so construction stays lock- and allocation-free.
  std::unordered_map<uint64_t, const char*> names;
};

// Mutex ids: 64-bit and never reused, so a dead mutex's edges stay inert
// however many mutexes a long run constructs.
std::atomic<uint64_t> g_next_mutex_id{1};

OrderGraph& Graph() {
  // Leaked: mutexes (and the log sink) live into static destruction.
  static OrderGraph* graph = new OrderGraph();
  return *graph;
}

// The stack of hcs::Mutexes this thread currently holds, oldest first.
thread_local std::vector<const Mutex*> tls_held;

const char* DisplayName(const char* name) { return name[0] != '\0' ? name : "<anonymous>"; }

// Name of a mutex known only by id: every edge endpoint has one on record.
const char* DisplayName(const OrderGraph& graph, uint64_t id) {
  auto it = graph.names.find(id);
  return it != graph.names.end() ? DisplayName(it->second) : "<anonymous>";
}

std::string DescribeHeldStack(const Mutex* acquiring) {
  std::string out;
  for (const Mutex* held : tls_held) {
    out += DisplayName(held->name());
    out += " -> ";
  }
  out += DisplayName(acquiring->name());
  return out;
}

// Depth-first reachability from `from` to `target` along recorded edges;
// fills `path` with the edge chain when found. Caller holds graph.mu.
bool FindPath(const OrderGraph& graph, uint64_t from, uint64_t target,
              std::unordered_set<uint64_t>* visited, std::vector<const Edge*>* path) {
  if (from == target) {
    return true;
  }
  if (!visited->insert(from).second) {
    return false;
  }
  auto it = graph.adjacency.find(from);
  if (it == graph.adjacency.end()) {
    return false;
  }
  for (const Edge& edge : it->second) {
    path->push_back(&edge);
    if (FindPath(graph, edge.to, target, visited, path)) {
      return true;
    }
    path->pop_back();
  }
  return false;
}

[[noreturn]] void ReportInversionAndAbort(const OrderGraph& graph, const Mutex* held,
                                          const Mutex* acquiring,
                                          const std::vector<const Edge*>& reverse_path) {
  const char* held_name = DisplayName(held->name());
  const char* acquiring_name = DisplayName(acquiring->name());
  std::fprintf(stderr,
               "\n=== hcs lock-order inversion detected ===\n"
               "this thread:   holds '%s' (id %llu), acquiring '%s' (id %llu)\n",
               held_name, static_cast<unsigned long long>(held->id()), acquiring_name,
               static_cast<unsigned long long>(acquiring->id()));
  std::fprintf(stderr, "  acquisition stack: %s\n", DescribeHeldStack(acquiring).c_str());
  std::fprintf(stderr, "conflicting order '%s' ... '%s' was established by:\n", acquiring_name,
               held_name);
  uint64_t from = acquiring->id();
  for (const Edge* edge : reverse_path) {
    std::fprintf(stderr, "  edge %s -> %s, first recorded with held stack: %s\n",
                 DisplayName(graph, from), DisplayName(graph, edge->to),
                 edge->context.c_str());
    from = edge->to;
  }
  std::fprintf(stderr,
               "a thread running the recorded path concurrently with this one can "
               "deadlock; fix the acquisition order (DESIGN.md §9)\n");
  std::abort();
}

// Records held -> acquiring edges for every lock this thread holds, checking
// each new edge for a cycle. Called after the acquisition succeeded (the
// abort makes "before or after" moot).
void NoteAcquisition(const Mutex* acquiring) {
  if (tls_held.empty()) {
    return;
  }
  const uint64_t acquiring_id = acquiring->id();
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  for (const Mutex* held : tls_held) {
    uint64_t held_id = held->id();
    if (held_id == acquiring_id) {
      continue;  // recursive re-acquisition would already have deadlocked
    }
    std::vector<Edge>& edges = graph.adjacency[held_id];
    bool known = false;
    for (const Edge& edge : edges) {
      if (edge.to == acquiring_id) {
        known = true;
        break;
      }
    }
    if (known) {
      continue;
    }
    // New edge: a path acquiring_id -> ... -> held_id closes a cycle.
    std::unordered_set<uint64_t> visited;
    std::vector<const Edge*> path;
    if (FindPath(graph, acquiring_id, held_id, &visited, &path)) {
      ReportInversionAndAbort(graph, held, acquiring, path);
    }
    edges.push_back(Edge{acquiring_id, DescribeHeldStack(acquiring)});
    graph.names.emplace(held_id, held->name());
    graph.names.emplace(acquiring_id, acquiring->name());
  }
}

void PushHeld(const Mutex* mu) { tls_held.push_back(mu); }

void PopHeld(const Mutex* mu) {
  // Search from the back: locks are usually released in reverse acquisition
  // order. Missing is fine (detector enabled mid-hold).
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == mu) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

// --- Named-mutex registry ---------------------------------------------------

struct Registry {
  std::mutex mu;
  std::unordered_set<const Mutex*> named;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

void SetDeadlockDetectorEnabled(bool enabled) {
  g_detector_enabled.store(enabled, std::memory_order_relaxed);
}

bool DeadlockDetectorEnabled() { return g_detector_enabled.load(std::memory_order_relaxed); }

void SetMutexTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

bool MutexTimingEnabled() { return g_timing_enabled.load(std::memory_order_relaxed); }

void ResetLockOrderGraph() {
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  graph.adjacency.clear();
  graph.names.clear();
}

size_t LockOrderGraphNodeCount() {
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  return graph.names.size();
}

std::vector<MutexStats> AllMutexStats() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<MutexStats> out;
  out.reserve(registry.named.size());
  for (const Mutex* mu : registry.named) {
    out.push_back(mu->Stats());
  }
  return out;
}

Mutex::Mutex() : Mutex("") {}

Mutex::Mutex(const char* name)
    : name_(name), id_(g_next_mutex_id.fetch_add(1, std::memory_order_relaxed)) {
  if (name_[0] != '\0') {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.named.insert(this);
  }
}

Mutex::~Mutex() {
  if (name_[0] != '\0') {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.named.erase(this);
  }
  // Any edges (and the name recorded with them) stay in the order graph:
  // they record code-path facts, and ids are never reused, so a dead
  // mutex's edges are inert.
}

void Mutex::Lock() {
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  bool timing = MutexTimingEnabled();
  if (mu_.try_lock()) {
    if (timing) {
      acquired_at_ns_ = NowNs();
    }
  } else {
    contended_.fetch_add(1, std::memory_order_relaxed);
    uint64_t t0 = timing ? NowNs() : 0;
    mu_.lock();
    if (timing) {
      uint64_t now = NowNs();
      wait_ns_.fetch_add(now - t0, std::memory_order_relaxed);
      acquired_at_ns_ = now;
    }
  }
  if (DeadlockDetectorEnabled()) {
    NoteAcquisition(this);
    PushHeld(this);
  }
}

void Mutex::Unlock() {
  if (MutexTimingEnabled() && acquired_at_ns_ != 0) {
    held_ns_.fetch_add(NowNs() - acquired_at_ns_, std::memory_order_relaxed);
    acquired_at_ns_ = 0;
  }
  if (DeadlockDetectorEnabled()) {
    PopHeld(this);
  }
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) {
    return false;
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (MutexTimingEnabled()) {
    acquired_at_ns_ = NowNs();
  }
  // A successful try-lock joins the held stack (later blocking acquisitions
  // order against it) but records no incoming edge: it cannot block, so it
  // cannot be the waiting party of a deadlock cycle.
  if (DeadlockDetectorEnabled()) {
    PushHeld(this);
  }
  return true;
}

MutexStats Mutex::Stats() const {
  MutexStats stats;
  stats.name = name_;
  stats.acquisitions = acquisitions_.load(std::memory_order_relaxed);
  stats.contended = contended_.load(std::memory_order_relaxed);
  stats.wait_ns = wait_ns_.load(std::memory_order_relaxed);
  stats.held_ns = held_ns_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hcs
