/**
 * @file
 * Persistent worker-thread pool for the evaluation engine. The pool
 * exposes one primitive — parallelFor — that partitions an index
 * space across workers via an atomic cursor. The calling thread
 * participates as worker 0, so a single-threaded pool degenerates to
 * a plain loop with zero synchronization overhead, and results are
 * written by item index so the outcome is independent of scheduling.
 */

#ifndef GENESYS_EXEC_THREAD_POOL_HH
#define GENESYS_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace genesys::exec
{

/**
 * A fixed-size pool of persistent worker threads. Workers sleep on a
 * condition variable between jobs; a job is a (count, body) pair and
 * every worker drains items from a shared atomic cursor until the
 * index space is exhausted.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total worker count including the caller
     *        (so `threads - 1` OS threads are spawned).
     *        0 selects std::thread::hardware_concurrency().
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers, including the calling thread. */
    int size() const { return static_cast<int>(threads_.size()) + 1; }

    /**
     * Run `body(item, worker)` for every item in [0, count). Blocks
     * until all items complete. `worker` is in [0, size()) and is
     * stable for the duration of one item — use it to index
     * per-worker shards (environments, scratch buffers). Not
     * reentrant: one parallelFor at a time.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t item,
                                              int worker)> &body);

    /** Resolve a requested thread count (0 -> hardware concurrency). */
    static int resolveThreads(int requested);

    /**
     * Aggregate nanoseconds all workers (the caller included) spent
     * inside parallelFor bodies, since construction. Accounted per
     * job per worker — two clock reads around each drain, never
     * per item — so the accounting itself stays off the hot path.
     * With the generation wall clock this yields the barrier-idle
     * fraction: 1 - busyNs / (wall * size()).
     */
    uint64_t busyNs() const
    {
        return busyNs_.load(std::memory_order_relaxed);
    }

    /**
     * Nanoseconds `worker` spent inside the most recent non-empty
     * parallelFor's bodies — the same two clock reads busyNs() sums —
     * or 0 if it claimed no item. Read it after that parallelFor
     * returns; the spread across workers is the job's load imbalance.
     */
    uint64_t jobBusyNs(int worker) const
    {
        return jobBusyNs_[static_cast<std::size_t>(worker)];
    }

  private:
    void workerLoop(int worker);
    /** Run items off the cursor; returns how many this worker ran. */
    std::size_t drain(int worker);
    /** drain() plus busy accounting and a "pool.drain" span. */
    void drainTimed(int worker);

    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stopping_ = false;

    /** Monotonic job id: a worker runs each job at most once. */
    std::size_t jobId_ = 0;
    std::size_t jobCount_ = 0;
    /** Copied (not pointed-to) so late-waking workers see a live object. */
    std::function<void(std::size_t, int)> jobBody_;
    std::atomic<std::size_t> cursor_{0};
    int busyWorkers_ = 0;

    std::atomic<uint64_t> busyNs_{0};
    /**
     * Per-worker busy time of the current job. Reset under the mutex
     * when a job is posted; a worker writes only its own entry, and
     * only after claiming an item, i.e. while registered busy, so the
     * caller's reads after the join are ordered by the mutex.
     */
    std::vector<uint64_t> jobBusyNs_;
};

} // namespace genesys::exec

#endif // GENESYS_EXEC_THREAD_POOL_HH
