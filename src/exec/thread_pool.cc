#include "exec/thread_pool.hh"

#include <algorithm>
#include <chrono>

#include "common/check.hh"
#include "obs/tracer.hh"

namespace genesys::exec
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads)
{
    const int n = resolveThreads(threads);
    jobBusyNs_.assign(static_cast<std::size_t>(n), 0);
    threads_.reserve(static_cast<std::size_t>(n - 1));
    for (int w = 1; w < n; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

std::size_t
ThreadPool::drain(int worker)
{
    // Worker ids are dense: 0 is the caller, 1..threads_.size() the
    // spawned workers. Telemetry timelines and per-worker scratch
    // arrays are indexed by this id.
    GENESYS_DCHECK(worker >= 0 && static_cast<std::size_t>(worker) <=
                                      threads_.size(),
                   "drain called with worker id " << worker << ", pool"
                   " has " << threads_.size() + 1 << " workers");
    // jobCount_/jobBody_ are written under the mutex before jobId_
    // advances and read here after observing that advance (or, for
    // the caller, in its own posting frame), so the reads are ordered.
    const std::size_t count = jobCount_;
    std::size_t ran = 0;
    for (;;) {
        const std::size_t item =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (item >= count)
            return ran;
        jobBody_(item, worker);
        ++ran;
    }
}

void
ThreadPool::drainTimed(int worker)
{
    // Two clock reads per (job, worker) — per job, not per item, so
    // the accounting never touches the episode hot loop. The span is
    // the worker-timeline backbone in chrome://tracing; a null
    // tracer reduces it to one predicted branch.
    obs::Span span("pool.drain", "pool", worker);
    const uint64_t t0 = nowNs();
    const std::size_t ran = drain(worker);
    const uint64_t busy = nowNs() - t0;
    busyNs_.fetch_add(busy, std::memory_order_relaxed);
    // A worker that woke after the job drained ran nothing and may
    // still be here after the caller returned: it leaves its entry.
    if (ran > 0)
        jobBusyNs_[static_cast<std::size_t>(worker)] = busy;
}

void
ThreadPool::workerLoop(int worker)
{
    // Label this worker's timeline row up front (no-op without an
    // installed tracer), so even a worker that a short run never
    // hands an item to shows up named in the trace. The caller
    // thread keeps whatever name it claimed first ("main" under a
    // telemetry session).
    obs::nameThisThread("pool-worker", worker);
    std::size_t last_job = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_ || jobId_ != last_job;
            });
            if (stopping_)
                return;
            last_job = jobId_;
            ++busyWorkers_;
        }
        // A worker that wakes after the job already drained simply
        // claims no items; jobBody_ stays valid until the next post.
        drainTimed(worker);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--busyWorkers_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t, int)> &body)
{
    if (count == 0)
        return;

    // Single-threaded pool: run inline, no synchronization at all
    // (busy accounting still applies — worker 0 is the caller).
    if (threads_.empty()) {
        obs::Span span("pool.drain", "pool", 0);
        const uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < count; ++i)
            body(i, 0);
        jobBusyNs_[0] = nowNs() - t0;
        busyNs_.fetch_add(jobBusyNs_[0], std::memory_order_relaxed);
        return;
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        // A worker that woke late for the *previous* job may still be
        // inside drain() (claiming no items, since that cursor is
        // exhausted). Wait for it before touching job state, so
        // jobCount_/jobBody_ are never written while any worker reads
        // them.
        done_.wait(lock, [&] { return busyWorkers_ == 0; });
        jobCount_ = count;
        jobBody_ = body;
        std::fill(jobBusyNs_.begin(), jobBusyNs_.end(), uint64_t{0});
        cursor_.store(0, std::memory_order_relaxed);
        ++jobId_;
    }
    wake_.notify_all();

    // The caller participates as worker 0.
    drainTimed(0);

    // cursor >= count here, so every item was claimed; wait for the
    // workers still executing their claimed items to finish. (A
    // worker that never woke for this job can still register later —
    // it claims no items, and the pre-post wait above keeps it from
    // racing the next job's state.)
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return busyWorkers_ == 0; });
    GENESYS_DCHECK(cursor_.load(std::memory_order_relaxed) >= count,
                   "parallelFor returning with unclaimed items: cursor "
                       << cursor_.load(std::memory_order_relaxed)
                       << " < count " << count);
}

} // namespace genesys::exec
