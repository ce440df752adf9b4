// Live replay: a recorded trace driven through rt::Runtime by one OS thread
// per trace thread (README.md, workload `live`).
//
// Thread start, join, acquire, release, alloc and free are issued in the
// recorded global order; a free also waits until every access recorded
// before it has been issued, and no access recorded after a free is issued
// before it. Accesses otherwise run freely between their thread's ordered
// events, so each access lands in the same epoch of its thread as in the
// recording and happens-before is identical to it. Each thread is a closed
// loop: it issues its next event as soon as the runtime accepts the last.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "rt/runtime.hpp"
#include "rt/trace.hpp"

namespace dgbench {

struct LiveStep {
  bool ordered = false;
  std::uint32_t begin = 0, end = 0;    // accesses: [begin, end) of the thread's
  std::uint32_t frees_before = 0;      // accesses: frees issued first
  std::uint64_t turn = 0;              // ordered: position in the sync order
  std::uint64_t accesses_before = 0;   // ordered free: accesses issued first
  dg::rt::TraceEvent ev{};             // ordered
};

struct LiveThread {
  std::vector<LiveStep> steps;
  std::vector<dg::rt::TraceEvent> accesses;
};

struct LivePlan {
  std::vector<LiveThread> threads;  // by trace thread id
  dg::ThreadId root = 0;
};

inline LivePlan plan_live(const std::vector<dg::rt::TraceEvent>& trace) {
  using dg::rt::EventKind;
  LivePlan p;
  std::uint64_t turn = 0, accesses = 0;
  std::uint32_t frees = 0;
  auto thread = [&](dg::ThreadId t) -> LiveThread& {
    if (t >= p.threads.size()) p.threads.resize(t + 1);
    return p.threads[t];
  };
  auto ordered = [&](dg::ThreadId owner, const dg::rt::TraceEvent& e) {
    LiveStep s;
    s.ordered = true;
    s.turn = turn++;
    s.accesses_before = accesses;
    s.ev = e;
    thread(owner).steps.push_back(s);
  };
  for (const dg::rt::TraceEvent& e : trace) {
    switch (e.kind) {
      case EventKind::kRead:
      case EventKind::kWrite: {
        LiveThread& th = thread(e.tid);
        const auto idx = static_cast<std::uint32_t>(th.accesses.size());
        th.accesses.push_back(e);
        ++accesses;
        if (th.steps.empty() || th.steps.back().ordered ||
            th.steps.back().frees_before != frees) {
          LiveStep s;
          s.begin = idx;
          s.frees_before = frees;
          th.steps.push_back(s);
        }
        th.steps.back().end = idx + 1;
        break;
      }
      case EventKind::kThreadStart:
        if (e.aux == dg::kInvalidThread)
          p.root = e.tid;  // registered while the path is set up
        else
          ordered(static_cast<dg::ThreadId>(e.aux), e);  // forked by parent
        thread(e.tid);
        break;
      case EventKind::kFinish:
        break;  // the path calls Runtime::finish once run() returns
      case EventKind::kFree:
        ordered(e.tid, e);
        ++frees;
        break;
      default:
        ordered(e.tid, e);
        break;
    }
  }
  return p;
}

/// One live replay of a plan through `rt`. Construct and run() on the root
/// thread after registering it with the runtime; every thread has been
/// joined when run() returns. kTraced adds the order-wait and runtime-call
/// accumulators.
template <bool kTraced>
class LiveRun {
 public:
  LiveRun(const LivePlan& plan, dg::rt::Runtime& rt, Probe* probe)
      : plan_(&plan),
        rt_(&rt),
        probe_(probe),
        done_(std::make_unique<std::atomic<bool>[]>(plan.threads.size())),
        threads_(plan.threads.size()) {}

  void run() { run_thread(plan_->root); }

 private:
  static const void* ptr(std::uint64_t a) {
    return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(a));
  }

  template <typename Pred>
  void wait(Pred ready) {
    if (ready()) return;
    const std::uint64_t t0 = kTraced ? now_ns() : 0;
    for (unsigned spin = 0; !ready(); ++spin)
      if (spin >= 64) std::this_thread::yield();
    if constexpr (kTraced) probe_->local()[kOrderWait].add(now_ns() - t0, 1);
  }

  void run_thread(dg::ThreadId t) {
    const LiveThread& th = plan_->threads[t];
    for (const LiveStep& s : th.steps) {
      if (!s.ordered) {
        wait([&] {
          return frees_.load(std::memory_order_acquire) >= s.frees_before;
        });
        issue_accesses(th, s);
        continue;
      }
      wait([&] { return turn_.load(std::memory_order_acquire) == s.turn; });
      if (s.ev.kind == dg::rt::EventKind::kFree)
        wait([&] {
          return accesses_.load(std::memory_order_acquire) >= s.accesses_before;
        });
      if (s.ev.kind == dg::rt::EventKind::kThreadJoin) {
        const auto joined = static_cast<dg::ThreadId>(s.ev.aux);
        wait([&] { return done_[joined].load(std::memory_order_acquire); });
      }
      issue_ordered(s.ev);
      turn_.store(s.turn + 1, std::memory_order_release);
    }
    done_[t].store(true, std::memory_order_release);
  }

  void issue_accesses(const LiveThread& th, const LiveStep& s) {
    Timed tm(kTraced ? probe_ : nullptr, kRtAccess, s.end - s.begin);
    for (std::uint32_t i = s.begin; i < s.end; ++i) {
      const dg::rt::TraceEvent& e = th.accesses[i];
      if (e.kind == dg::rt::EventKind::kRead)
        rt_->read(ptr(e.addr), e.size);
      else
        rt_->write(ptr(e.addr), e.size);
    }
    accesses_.fetch_add(s.end - s.begin, std::memory_order_release);
  }

  void issue_ordered(const dg::rt::TraceEvent& e) {
    using dg::rt::EventKind;
    // A start is thread creation, not a runtime call; a join's OS-level
    // wait for the child's last access was already counted as order wait.
    Timed tm(kTraced && e.kind != EventKind::kThreadStart ? probe_ : nullptr,
             kRtSync);
    switch (e.kind) {
      case EventKind::kThreadStart: {
        const dg::ThreadId child = e.tid;
        threads_[child] = std::make_unique<dg::rt::Thread>(
            *rt_, [this, child](dg::rt::ThreadCtx&) { run_thread(child); });
        break;
      }
      case EventKind::kThreadJoin:
        threads_[static_cast<dg::ThreadId>(e.aux)]->join();
        break;
      case EventKind::kAcquire:
        rt_->acquire(ptr(e.addr));
        break;
      case EventKind::kRelease:
        rt_->release(ptr(e.addr));
        break;
      case EventKind::kAlloc:
        rt_->allocated(ptr(e.addr), e.aux);
        break;
      case EventKind::kFree:
        rt_->freed(ptr(e.addr), e.aux);
        frees_.fetch_add(1, std::memory_order_release);
        break;
      case EventKind::kFinish:
      case EventKind::kRead:
      case EventKind::kWrite:
        break;
    }
  }

  const LivePlan* plan_;
  dg::rt::Runtime* rt_;
  Probe* probe_;
  std::atomic<std::uint64_t> turn_{0};
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint32_t> frees_{0};
  std::unique_ptr<std::atomic<bool>[]> done_;  // thread issued its last step
  // Written by the parent at the child's start turn, read by the joiner at
  // a later turn: the turn counter orders the two.
  std::vector<std::unique_ptr<dg::rt::Thread>> threads_;
};

}  // namespace dgbench
