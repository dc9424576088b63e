#include "nn/plan_cache.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace genesys::nn
{

uint64_t
PlanCache::fingerprintOf(const neat::Genome &genome)
{
    // O(1) digest: gene counts, the last key of each sorted array,
    // and weight-sensitive terms (last connection weight, last node
    // bias) so a same-key genome whose attributes were rewritten
    // (e.g. by WeightTuner) is caught too, not just structural
    // divergence. Collisions across all terms are possible but
    // vanishingly unlikely for the misuse this guards.
    const auto &nk = genome.nodes().keys();
    const auto &ck = genome.connections().keys();
    uint64_t fp = (static_cast<uint64_t>(nk.size()) << 48) ^
                  (static_cast<uint64_t>(ck.size()) << 32);
    if (!nk.empty()) {
        fp ^= static_cast<uint64_t>(static_cast<uint32_t>(nk.back()));
        fp ^= std::rotr(std::bit_cast<uint64_t>(
                            genome.nodes().values().back().bias),
                        31);
    }
    if (!ck.empty()) {
        fp ^= static_cast<uint64_t>(
                  static_cast<uint32_t>(ck.back().first))
              << 16;
        fp ^= static_cast<uint64_t>(
                  static_cast<uint32_t>(ck.back().second))
              << 8;
        fp ^= std::rotr(
            std::bit_cast<uint64_t>(
                genome.connections().values().back().weight),
            17);
    }
    return fp;
}

void
PlanCache::beginGeneration(std::span<const neat::GenomeHandle> batch)
{
    std::vector<Slot> previous;
    previous.swap(slots_);
    // The batch's keys come in any order: sort the previous table by
    // key to look each one up.
    std::ranges::sort(previous, {}, &Slot::key);

    slots_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Slot &slot = slots_[i];
        slot.key = batch[i].key;
        slot.fingerprint = fingerprintOf(*batch[i].genome);
        const auto kept =
            std::ranges::lower_bound(previous, slot.key, {}, &Slot::key);
        if (kept == previous.end() || kept->key != slot.key ||
            !kept->plan)
            continue;
        GENESYS_ASSERT(kept->fingerprint == slot.fingerprint,
                       "plan carried over on key "
                           << slot.key
                           << " for a structurally different genome "
                              "— genome keys must be unique for a "
                              "cache's lifetime");
        slot.plan = kept->plan;
        ++carriedOver_;
    }
}

std::shared_ptr<const CompiledPlan>
PlanCache::acquire(std::size_t slot, const neat::Genome &genome,
                   const neat::NeatConfig &cfg, NumericsTier tier)
{
    GENESYS_ASSERT(slot < slots_.size(),
                   "plan slot " << slot << " outside a generation of "
                                << slots_.size());
    Slot &s = slots_[slot];
    if (s.plan) {
        GENESYS_ASSERT(s.plan->numericsTier() == tier,
                       "plan slot " << slot
                                    << " holds a plan of another "
                                       "numerics tier");
        hits_.fetch_add(1, std::memory_order_relaxed);
        return s.plan;
    }
    // One compile scratch per thread: steady-state compilation is
    // allocation-free, and workers never contend on compile buffers.
    // genesys-lint: allow(global-state, per-thread compile scratch) - keeps
    // steady-state compiles allocation-free; holds no cross-compile data.
    thread_local CompileScratch compile_scratch;
    const auto c0 = std::chrono::steady_clock::now();
    {
        obs::Span span("plan.compile", "compile", s.key);
        s.plan = std::make_shared<const CompiledPlan>(
            CompiledPlan::compileFor(genome, cfg, compile_scratch, tier));
    }
    compileNs_.fetch_add(
        static_cast<long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - c0)
                .count()),
        std::memory_order_relaxed);
    compiles_.fetch_add(1, std::memory_order_relaxed);
    return s.plan;
}

size_t
PlanCache::size() const
{
    return static_cast<size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Slot &s) { return s.plan != nullptr; }));
}

} // namespace genesys::nn
