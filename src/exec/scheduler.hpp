#pragma once

// Worker pool for morsel-driven parallel pipelines (see
// docs/parallel_execution.md and exec/pipeline.hpp).
//
// One process-wide pool of GetExecThreads() workers executes the chunk
// tasks of parallel pipeline drains. The pool admits one parallel region at
// a time (regions from different user threads serialize); a region started
// inside another — on a pool worker or on the owner thread draining the
// outer region — runs inline instead of re-entering the pool, so nested
// pipelines can never deadlock it.

#include <cstddef>
#include <functional>

namespace quotient {

/// Degree of parallelism for pipeline drains, the only execution knob. Initialized on
/// first use from QUOTIENT_THREADS (falling back to
/// std::thread::hardware_concurrency), clamped to >= 1. 1 means parallel
/// plumbing runs inline on the calling thread.
size_t GetExecThreads();
void SetExecThreads(size_t threads);

/// RAII helper so tests can sweep thread counts without leaking state.
/// Restores on any unwind (including exceptions), so a faulted test cannot
/// poison the thread-count global for the rest of the suite; non-copyable
/// so an accidental copy can't restore twice.
struct ScopedExecThreads {
  explicit ScopedExecThreads(size_t threads) : saved(GetExecThreads()) {
    SetExecThreads(threads);
  }
  ~ScopedExecThreads() { SetExecThreads(saved); }
  ScopedExecThreads(const ScopedExecThreads&) = delete;
  ScopedExecThreads& operator=(const ScopedExecThreads&) = delete;
  size_t saved;
};

/// True on a pool worker thread: callers must run nested parallel work
/// inline rather than submitting it back to the pool.
bool OnWorkerThread();

/// Runs fn(0) .. fn(tasks - 1) across the worker pool, the calling thread
/// included; blocks until every task finished. Tasks are claimed from an
/// atomic counter, so the assignment of tasks to threads is nondeterministic
/// — callers needing deterministic results must make each task's output
/// independent of that assignment (the pipeline sinks do: one partial state
/// per task index, merged in index order afterwards).
///
/// Runs everything inline when tasks <= 1, GetExecThreads() == 1, or the
/// caller is itself a pool worker. The first exception thrown by any task is
/// rethrown on the calling thread after all tasks drain.
///
/// Lifecycle governance (exec/query_context.hpp): the region owner's
/// current QueryContext is re-installed on every worker for the region's
/// duration, so morsel tasks poll the owning statement's governor. Once a
/// task fails — or the governor trips — remaining not-yet-started tasks are
/// skipped (admission stops); in-flight tasks finish, and the pool stays
/// reusable for the next region.
void ParallelFor(size_t tasks, const std::function<void(size_t)>& fn);

}  // namespace quotient
