/**
 * @file
 * Compiled-plan slots with cross-generation elite carry-over. A NEAT
 * generation evaluates every genome over several episodes; the cache
 * gives each genome of the generation one slot, at its batch position,
 * and compiles the slot's plan once, on the first acquire. The
 * resulting immutable CompiledPlan is shared read-only by every
 * consumer — episode loops, the hardware-model workload accounting,
 * replay.
 *
 * Elite genomes are copied unchanged into the next generation under
 * the same globally-unique key — on chip they simply stay resident
 * in the Genome Buffer with no EvE work. beginGeneration(batch)
 * mirrors that: a slot whose key held a plan in the previous
 * generation starts filled, so elites incur zero recompiles, while
 * every other plan is dropped and the table never outgrows the
 * generation.
 */

#ifndef GENESYS_NN_PLAN_CACHE_HH
#define GENESYS_NN_PLAN_CACHE_HH

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "neat/population.hh"
#include "nn/compiled_plan.hh"

namespace genesys::nn
{

/**
 * One generation's plan slots, indexed by batch position. Keys are
 * globally unique within a run, so a key fully identifies a genome's
 * structure: the same key in a later generation is the same genome
 * (an elite), and its plan is still valid.
 *
 * Concurrency: beginGeneration runs serially, before the parallel
 * pass. During the pass each slot is acquired by the one worker that
 * claimed its batch index, so slots need no lock; the counters are
 * atomics. The pool's join orders the slot writes before the next
 * beginGeneration.
 */
class PlanCache
{
  public:
    /**
     * Start a generation with one empty slot per genome of `batch`.
     * A slot whose key held a plan in the previous generation's table
     * (an elite — children always get fresh keys) starts filled with
     * that plan, after its fingerprint is checked against the new
     * genome. Every other plan is dropped.
     */
    void beginGeneration(std::span<const neat::GenomeHandle> batch);

    /**
     * The plan in `slot`, compiling `genome` into it on the first
     * request — via CompiledPlan::compileFor, so feed-forward configs
     * get levelized plans and recurrent configs get recurrent plans
     * under the same carry-over rules. Only the worker that claimed
     * `slot` may call this during a parallel pass. A filled slot must
     * hold a plan of `tier`: one table serves one numerics tier.
     */
    std::shared_ptr<const CompiledPlan>
    acquire(std::size_t slot, const neat::Genome &genome,
            const neat::NeatConfig &cfg,
            NumericsTier tier = NumericsTier::Reference);

    /** Slots holding a plan (bounded by the generation size). */
    size_t size() const;

    /** Lifetime count of compiles: one per (generation, slot) filled. */
    long compiles() const { return compiles_.load(); }
    /** Lifetime count of acquires served from a filled slot. */
    long hits() const { return hits_.load(); }
    /** Lifetime count of plans carried across generations (elites). */
    long carriedOver() const { return carriedOver_; }
    /**
     * Aggregate nanoseconds spent compiling plans, summed across all
     * threads (CPU time, not wall clock — concurrent compiles
     * overlap). Two clock reads per compile, so the accounting is
     * always on.
     */
    long compileNs() const { return compileNs_.load(); }

  private:
    /**
     * A slot's key and plan, plus a cheap structural fingerprint of
     * the genome. Carry-over rests on run-global key uniqueness; the
     * fingerprint turns a violated precondition (e.g. one engine
     * reused across independent populations whose key counters both
     * start at 0) into an assertion instead of a silently wrong
     * phenotype.
     */
    struct Slot
    {
        int key = -1;
        uint64_t fingerprint = 0;
        std::shared_ptr<const CompiledPlan> plan;
    };

    static uint64_t fingerprintOf(const neat::Genome &genome);

    std::vector<Slot> slots_;
    std::atomic<long> compiles_{0};
    std::atomic<long> hits_{0};
    long carriedOver_ = 0;
    std::atomic<long> compileNs_{0};
};

} // namespace genesys::nn

#endif // GENESYS_NN_PLAN_CACHE_HH
