#ifndef DELEX_COMMON_MUTEX_H_
#define DELEX_COMMON_MUTEX_H_

// Annotated mutex layer: delex::Mutex / MutexLock / CondVar wrap the std
// primitives with Clang thread-safety capability attributes (see
// annotations.h) and an optional runtime lock-order detector. All
// synchronization in the tree goes through these types — ci/lint.py rule
// raw-mutex bans raw std::mutex / lock_guard / condition_variable outside
// this header.
//
// The lock-order detector (compiled in unless DELEX_DEADLOCK_DETECTOR=0,
// which the build sets for Release) maintains a global acquires-after graph
// keyed by construction site. Each Mutex registers a site — the name passed
// to its constructor, or file:line of the construction otherwise — and each
// Lock() while other locks are held adds held-site -> new-site edges. A new
// edge that closes a cycle is a lock-order inversion: some thread acquired
// these sites in the opposite order, so the program can deadlock under the
// right interleaving even if it never has. The report shows both acquisition
// chains (the current thread's and the one first recorded for the reverse
// order). DELEX_DEADLOCK=off|warn|fatal selects the response (warn reports
// each site pair once; fatal aborts); unset, the detector is on in warn mode
// when paranoid mode is enabled (DELEX_PARANOID / -DDELEX_PARANOID=ON) and
// off otherwise.
//
// Two mutexes constructed at the same site (same name) are indistinguishable
// to the detector, so orderings among them are not checked — give mutexes
// that participate in a nesting distinct names. The detector never calls
// DELEX_LOG (log.h's sink lock is itself a delex::Mutex; reporting through
// it would recurse), it writes straight to stderr.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <source_location>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"

#ifndef DELEX_DEADLOCK_DETECTOR
#define DELEX_DEADLOCK_DETECTOR 1
#endif

namespace delex {

enum class DeadlockMode { kOff = 0, kWarn = 1, kFatal = 2 };

#if DELEX_DEADLOCK_DETECTOR

namespace mutex_internal {

constexpr int kModeOff = 0;
constexpr int kModeWarn = 1;
constexpr int kModeFatal = 2;

inline int ResolveModeFromEnv() {
  const char* v = std::getenv("DELEX_DEADLOCK");
  if (v != nullptr && *v != '\0') {
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) return kModeOff;
    if (std::strcmp(v, "fatal") == 0) return kModeFatal;
    return kModeWarn;  // "warn", "1", or anything unrecognized: report, don't kill
  }
  // Unset: piggyback on paranoid mode (same resolution order as
  // delex/paranoid.cc — env wins, then the build default).
  const char* p = std::getenv("DELEX_PARANOID");
  if (p != nullptr && *p != '\0') return (*p != '0') ? kModeWarn : kModeOff;
#ifdef DELEX_PARANOID_DEFAULT
  if (DELEX_PARANOID_DEFAULT != 0) return kModeWarn;
#endif
  return kModeOff;
}

inline std::atomic<int>& ModeFlag() {
  static std::atomic<int> mode{ResolveModeFromEnv()};
  return mode;
}

struct EdgeInfo {
  std::string first_chain;  // acquisition chain when this edge was first seen
};

struct LockOrderGraph {
  // Raw std::mutex on purpose: the detector must not recurse into itself.
  std::mutex mu;
  std::map<std::string, int> site_ids;
  std::vector<std::string> site_names;
  std::vector<std::vector<int>> out_edges;
  std::map<std::pair<int, int>, EdgeInfo> edges;
  int64_t inversions = 0;
};

inline LockOrderGraph& Graph() {
  // Leaked: mutexes in atexit handlers and detached threads may lock after
  // static destruction has begun.
  static LockOrderGraph* graph = new LockOrderGraph;
  return *graph;
}

// Set when this thread's held stack has been destroyed. Trivially
// destructible, so it stays readable after the thread's other
// thread-locals are gone.
inline thread_local bool held_stack_gone = false;

struct HeldSites {
  std::vector<int> sites;
  ~HeldSites() { held_stack_gone = true; }
};

// Per-thread stack of currently held site ids, innermost last. Null once
// the thread's thread-locals are destroyed: a lock taken after that (by an
// atexit handler on the main thread) is not tracked.
inline std::vector<int>* HeldStack() {
  if (held_stack_gone) return nullptr;
  thread_local HeldSites held;
  return &held.sites;
}


inline int RegisterSite(const char* name, const std::source_location& loc) {
  std::string key;
  if (name != nullptr && *name != '\0') {
    key.assign(name);
  } else {
    key.assign(loc.file_name());
    key += ':';
    key += std::to_string(loc.line());
  }
  LockOrderGraph& g = Graph();
  std::lock_guard<std::mutex> lock(g.mu);
  auto it = g.site_ids.find(key);
  if (it != g.site_ids.end()) return it->second;
  int id = static_cast<int>(g.site_names.size());
  g.site_names.push_back(key);
  g.out_edges.emplace_back();
  g.site_ids.emplace(std::move(key), id);
  return id;
}

inline int MaybeRegisterSite(const char* name, const std::source_location& loc) {
  if (ModeFlag().load(std::memory_order_relaxed) == kModeOff) return -1;
  return RegisterSite(name, loc);
}

// Caller holds g.mu.
inline std::string DescribeChain(const LockOrderGraph& g, const std::vector<int>& held,
                                 int acquiring) {
  std::string out;
  for (int h : held) {
    out += g.site_names[static_cast<size_t>(h)];
    out += " -> ";
  }
  out += g.site_names[static_cast<size_t>(acquiring)];
  return out;
}

// Caller holds g.mu. DFS for a path from -> to in the acquires-after graph;
// fills *path with the site sequence when found.
inline bool FindPath(const LockOrderGraph& g, int from, int to, std::vector<int>* path) {
  std::vector<int> parent(g.site_names.size(), -1);
  std::vector<char> visited(g.site_names.size(), 0);
  std::vector<int> stack;
  stack.push_back(from);
  visited[static_cast<size_t>(from)] = 1;
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    if (cur == to) {
      path->clear();
      for (int n = to; n != -1; n = parent[static_cast<size_t>(n)]) path->push_back(n);
      for (size_t i = 0, j = path->size() - 1; i < j; ++i, --j) std::swap((*path)[i], (*path)[j]);
      return true;
    }
    for (int next : g.out_edges[static_cast<size_t>(cur)]) {
      if (!visited[static_cast<size_t>(next)]) {
        visited[static_cast<size_t>(next)] = 1;
        parent[static_cast<size_t>(next)] = cur;
        stack.push_back(next);
      }
    }
  }
  return false;
}

// Caller holds g.mu. `path` runs site -> ... -> held_site: the already
// recorded opposite order.
inline void ReportInversion(LockOrderGraph& g, const std::vector<int>& held, int held_site,
                            int site, const std::vector<int>& path) {
  std::string now = DescribeChain(g, held, site);
  std::string prior;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i != 0) prior += " -> ";
    prior += g.site_names[static_cast<size_t>(path[i])];
  }
  const EdgeInfo& first = g.edges.at({path[0], path[1]});
  std::fprintf(stderr,
               "delex: lock-order inversion: acquiring \"%s\" while holding \"%s\"\n"
               "  this thread's acquisition chain:   %s\n"
               "  established opposite order:        %s\n"
               "  first recorded by a thread doing:  %s\n",
               g.site_names[static_cast<size_t>(site)].c_str(),
               g.site_names[static_cast<size_t>(held_site)].c_str(), now.c_str(),
               prior.c_str(), first.first_chain.c_str());
  if (ModeFlag().load(std::memory_order_relaxed) == kModeFatal) {
    std::fprintf(stderr, "delex: DELEX_DEADLOCK=fatal, aborting\n");
    std::fflush(stderr);
    std::abort();
  }
}

// Blocking acquisition about to happen at `site`. Records acquires-after
// edges from every currently held site and checks each new edge for a cycle
// *before* blocking, so a true deadlock still gets reported.
inline void OnAcquire(int site) {
  std::vector<int>* held_stack = HeldStack();
  if (held_stack == nullptr) return;
  std::vector<int>& held = *held_stack;
  if (!held.empty() && ModeFlag().load(std::memory_order_relaxed) != kModeOff) {
    LockOrderGraph& g = Graph();
    std::lock_guard<std::mutex> lock(g.mu);
    for (int h : held) {
      // Same site: instances constructed at one site are indistinguishable,
      // orderings among them are not checked (see header comment).
      if (h == site) continue;
      std::pair<int, int> key(h, site);
      if (g.edges.find(key) != g.edges.end()) continue;  // known edge: already vetted
      std::vector<int> path;
      if (FindPath(g, site, h, &path)) {
        ++g.inversions;
        ReportInversion(g, held, h, site, path);
      }
      EdgeInfo info;
      info.first_chain = DescribeChain(g, held, site);
      g.out_edges[static_cast<size_t>(h)].push_back(site);
      g.edges.emplace(key, std::move(info));
    }
  }
  held.push_back(site);
}

// Non-blocking acquisition (TryLock success): cannot contribute to a
// deadlock itself, but must appear on the held stack so later blocking
// acquisitions record their edges against it.
inline void OnAcquireNonBlocking(int site) {
  std::vector<int>* held = HeldStack();
  if (held != nullptr) held->push_back(site);
}

inline void OnRelease(int site) {
  std::vector<int>* held_stack = HeldStack();
  if (held_stack == nullptr) return;
  std::vector<int>& held = *held_stack;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == site) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace mutex_internal

inline DeadlockMode DeadlockModeInEffect() {
  return static_cast<DeadlockMode>(
      mutex_internal::ModeFlag().load(std::memory_order_relaxed));
}

// Overrides the DELEX_DEADLOCK / DELEX_PARANOID resolution for the rest of
// the process. Mutexes constructed while the mode was kOff stay untracked.
inline void SetDeadlockModeForTesting(DeadlockMode mode) {
  mutex_internal::ModeFlag().store(static_cast<int>(mode), std::memory_order_relaxed);
}

// Total lock-order inversions reported so far (each inverted site pair
// counts once — repeat offenses hit the known-edge fast path).
inline int64_t LockOrderInversionCount() {
  mutex_internal::LockOrderGraph& g = mutex_internal::Graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.inversions;
}

// Number of registered construction sites (testing: proves construction
// while disabled registers nothing).
inline int64_t LockOrderSiteCount() {
  mutex_internal::LockOrderGraph& g = mutex_internal::Graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return static_cast<int64_t>(g.site_names.size());
}

#else  // !DELEX_DEADLOCK_DETECTOR

inline DeadlockMode DeadlockModeInEffect() { return DeadlockMode::kOff; }
inline void SetDeadlockModeForTesting(DeadlockMode) {}
inline int64_t LockOrderInversionCount() { return 0; }
inline int64_t LockOrderSiteCount() { return 0; }

#endif  // DELEX_DEADLOCK_DETECTOR

constexpr bool LockOrderDetectorCompiledIn() { return DELEX_DEADLOCK_DETECTOR != 0; }

class CondVar;

class DELEX_CAPABILITY("mutex") Mutex {
 public:
  // `name` doubles as the lock-order site key; mutexes that nest with each
  // other need distinct names (members default-initialized by one
  // constructor would otherwise share a file:line site).
  explicit Mutex(const char* name = nullptr,
                 std::source_location loc = std::source_location::current()) {
#if DELEX_DEADLOCK_DETECTOR
    site_ = mutex_internal::MaybeRegisterSite(name, loc);
#else
    (void)name;
    (void)loc;
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DELEX_ACQUIRE() DELEX_NO_THREAD_SAFETY_ANALYSIS {
#if DELEX_DEADLOCK_DETECTOR
    if (site_ >= 0) mutex_internal::OnAcquire(site_);
#endif
    mu_.lock();
  }

  void Unlock() DELEX_RELEASE() DELEX_NO_THREAD_SAFETY_ANALYSIS {
#if DELEX_DEADLOCK_DETECTOR
    // Pop BEFORE unlocking: a waiter may destroy this mutex the instant
    // unlock() returns (the engine's settle/teardown handoff does exactly
    // that), so `this` — including site_ — is off limits afterwards.
    // OnRelease touches only thread-local state, so popping a hair early
    // is invisible to other threads.
    if (site_ >= 0) mutex_internal::OnRelease(site_);
#endif
    mu_.unlock();
  }

  bool TryLock() DELEX_TRY_ACQUIRE(true) DELEX_NO_THREAD_SAFETY_ANALYSIS {
    bool acquired = mu_.try_lock();
#if DELEX_DEADLOCK_DETECTOR
    if (acquired && site_ >= 0) mutex_internal::OnAcquireNonBlocking(site_);
#endif
    return acquired;
  }

 private:
  friend class CondVar;

  // CondVar::Wait releases and reacquires the mutex around the underlying
  // wait; these keep the detector's held stack in sync.
  void DetectorWaitRelease() {
#if DELEX_DEADLOCK_DETECTOR
    if (site_ >= 0) mutex_internal::OnRelease(site_);
#endif
  }
  void DetectorWaitReacquire() {
#if DELEX_DEADLOCK_DETECTOR
    if (site_ >= 0) mutex_internal::OnAcquire(site_);
#endif
  }

  std::mutex mu_;
#if DELEX_DEADLOCK_DETECTOR
  int site_ = -1;
#endif
};

// RAII scoped lock.
class DELEX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DELEX_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DELEX_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to delex::Mutex. Deliberately no predicate
// overloads: Clang's analysis cannot see REQUIRES through a lambda, so call
// sites spell the standard loop explicitly —
//   while (!predicate) cv.Wait(&mu);
// which also keeps every wait visibly predicate-guarded (no missed-wakeup
// patterns hiding in helper layers).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) DELEX_REQUIRES(mu) DELEX_NO_THREAD_SAFETY_ANALYSIS {
    mu->DetectorWaitRelease();
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
    mu->DetectorWaitReacquire();
  }

  // Returns true if `deadline` passed without a notification (callers still
  // re-check their predicate — spurious wakeups return false early).
  bool WaitUntil(Mutex* mu, std::chrono::steady_clock::time_point deadline)
      DELEX_REQUIRES(mu) DELEX_NO_THREAD_SAFETY_ANALYSIS {
    mu->DetectorWaitRelease();
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    mu->DetectorWaitReacquire();
    return status == std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace delex

#endif  // DELEX_COMMON_MUTEX_H_
