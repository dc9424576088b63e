/**
 * @file
 * The episode loop's allocation contract: once a WaveScratch is warm,
 * env::evaluateWave allocates nothing per superstep. Observations go
 * into per-lane buffers through Environment::resetInto/stepInto,
 * actions decode into per-lane Actions, and the kernels aggregate in
 * their own scratch (Median included).
 *
 * This binary replaces the global operator new with a counting one.
 * Each case runs evaluateWave twice over the same items and the same
 * lanes; the second call may allocate exactly once, for the result
 * vector it sizes before the first superstep. Covered: all nine
 * environments, both numerics tiers, feed-forward and recurrent
 * plans, multi-genome waves with one episode per genome (E = 1, more
 * items than lanes, so lanes refill) and three episodes per genome
 * (E = 3, items sorted by plan, so neighbouring lanes share a plan).
 *
 * The pull form the engine runs writes into caller-owned results, so
 * its second run over a warm scratch may allocate nothing at all,
 * claims included (WavePullAllocations).
 *
 * The same counter checks that Genome::createNew sizes its storage up
 * front: building a genome makes as many allocations at 1024 inputs
 * as at 8, so no gene array grows one insert at a time.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <utility>

#include "common/rng.hh"
#include "env/eval_fixtures.hh"
#include "env/runner.hh"
#include "neat/genome.hh"
#include "nn/compiled_plan.hh"

namespace
{

std::atomic<bool> gCounting{false};
std::atomic<long> gAllocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
// The nothrow forms as well (std::stable_sort's temporary buffer uses
// them): left to a sanitizer runtime, they would come from its heap
// and the free() below would be a mismatched deallocation.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace genesys;

namespace
{

constexpr int kGenomes = 4;
constexpr int kLanes = 3;

/**
 * Mutation-grown genomes on `env`'s config with every aggregation in
 * play (Median nodes used to allocate on each activation) and nonzero
 * weights, so episodes take varied lengths and lanes refill at
 * different supersteps.
 */
oracle::GenomeSet
makeGenomes(const env::Environment &env, bool feed_forward, uint64_t seed)
{
    neat::NeatConfig cfg = env::configForEnvironment(env);
    cfg.feedForward = feed_forward;
    cfg.weight.initStdev = 1.0;
    cfg.aggregation.options = {
        neat::Aggregation::Sum,    neat::Aggregation::Product,
        neat::Aggregation::Max,    neat::Aggregation::Min,
        neat::Aggregation::Mean,   neat::Aggregation::Median,
        neat::Aggregation::MaxAbs,
    };
    cfg.aggregation.mutateRate = 0.5;
    cfg.nodeAddProb = 0.5;
    return oracle::growGenomes(cfg, kGenomes, seed, 8);
}

struct Case
{
    std::string env;
    nn::NumericsTier tier;
    bool feedForward;
    int episodesPerGenome;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.env << " tier " << static_cast<int>(c.tier)
        << (c.feedForward ? " feed-forward" : " recurrent") << " E="
        << c.episodesPerGenome;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string name = info.param.env;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    name += info.param.tier == nn::NumericsTier::HwFaithful ? "_hw" : "_ref";
    name += info.param.feedForward ? "_ff" : "_rec";
    name += "_E" + std::to_string(info.param.episodesPerGenome);
    return name;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const std::string &name : env::environmentNames()) {
        for (nn::NumericsTier tier :
             {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful}) {
            for (bool ff : {true, false}) {
                for (int e : {1, 3})
                    cases.push_back({name, tier, ff, e});
            }
        }
    }
    return cases;
}

} // namespace

class WaveAllocations : public ::testing::TestWithParam<Case>
{
};

TEST_P(WaveAllocations, SecondCallAllocatesOnlyItsResult)
{
    const Case &c = GetParam();
    const auto [owned, lanes] = oracle::makeLanes(c.env, kLanes);
    const auto [cfg, genomes] = makeGenomes(*lanes.front(), c.feedForward,
                                            std::hash<std::string>{}(c.env));
    std::vector<nn::CompiledPlan> plans;
    for (const auto &g : genomes)
        plans.push_back(nn::CompiledPlan::compileFor(g, cfg, c.tier));

    // Items sorted by plan: with E = 3 neighbouring lanes share a plan.
    std::vector<env::WaveItem> items;
    for (size_t p = 0; p < plans.size(); ++p) {
        for (int e = 0; e < c.episodesPerGenome; ++e)
            items.push_back(
                {&plans[p], deriveSeed(p, static_cast<uint64_t>(e))});
    }

    env::WaveScratch scratch;
    const env::WaveResult warm = env::evaluateWave(items, lanes, scratch);

    gAllocs.store(0);
    gCounting.store(true);
    const env::WaveResult steady = env::evaluateWave(items, lanes, scratch);
    gCounting.store(false);

    EXPECT_EQ(gAllocs.load(), 1)
        << "a warm evaluateWave may allocate only its result vector";
    EXPECT_GT(steady.stats.supersteps, 1);
    ASSERT_EQ(steady.episodes.size(), warm.episodes.size());
    for (size_t i = 0; i < warm.episodes.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(steady.episodes[i].fitness),
                  std::bit_cast<uint64_t>(warm.episodes[i].fitness))
            << "item " << i;
        EXPECT_EQ(steady.episodes[i].steps, warm.episodes[i].steps);
    }
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, WaveAllocations,
                         ::testing::ValuesIn(allCases()), caseName);

namespace
{

/**
 * The engine's claim pattern without the engine: groups of
 * `groupSize` episodes of one plan, handed out in order, each item
 * into its own result slot.
 */
class GroupSource final : public env::WaveSource
{
  public:
    GroupSource(const std::vector<nn::CompiledPlan> &plans, int items,
                int groupSize)
        : plans_(plans), items_(items), groupSize_(groupSize)
    {
    }

    int groupSize() const override { return groupSize_; }

    bool claim(std::span<env::WaveItem> group) override
    {
        if (next_ >= items_)
            return false;
        const auto &plan = plans_[static_cast<size_t>(next_ / groupSize_) %
                                  plans_.size()];
        for (auto &it : group) {
            it = {&plan, deriveSeed(7, static_cast<uint64_t>(next_)),
                  static_cast<size_t>(next_)};
            ++next_;
        }
        return true;
    }

  private:
    const std::vector<nn::CompiledPlan> &plans_;
    int items_;
    int groupSize_;
    int next_ = 0;
};

} // namespace

TEST(WavePullAllocations, WarmLoopAllocatesNothing)
{
    // Claiming a group, binding its lanes and writing results into
    // caller-owned storage allocate nothing once the scratch is warm —
    // at one episode per claim and at whole-genome claims of 4, with
    // more items than lanes so every path refills.
    for (const std::string name : {"CartPole_v0", "AirRaid-ram-v0"}) {
        const auto [owned, lanes] = oracle::makeLanes(name, kLanes);
        const auto [cfg, genomes] =
            makeGenomes(*lanes.front(), /*feed_forward=*/true, 11);
        std::vector<nn::CompiledPlan> plans;
        for (const auto &g : genomes)
            plans.push_back(nn::CompiledPlan::compileFor(g, cfg));

        for (int items : {8, 64}) {
            for (int group : {1, 4}) {
                SCOPED_TRACE(name + " items " + std::to_string(items) +
                             " group " + std::to_string(group));
                std::vector<env::EpisodeResult> warm(
                    static_cast<size_t>(items));
                std::vector<env::EpisodeResult> steady(warm.size());
                env::WaveScratch scratch;
                GroupSource first(plans, items, group);
                env::evaluateWave(first, lanes, scratch, warm);

                GroupSource second(plans, items, group);
                gAllocs.store(0);
                gCounting.store(true);
                const env::WaveStats stats =
                    env::evaluateWave(second, lanes, scratch, steady);
                gCounting.store(false);

                EXPECT_EQ(gAllocs.load(), 0)
                    << "a warm pull-form evaluateWave allocates nothing";
                EXPECT_GT(stats.refills, 0);
                for (size_t i = 0; i < warm.size(); ++i) {
                    EXPECT_EQ(std::bit_cast<uint64_t>(steady[i].fitness),
                              std::bit_cast<uint64_t>(warm[i].fitness))
                        << "item " << i;
                    EXPECT_EQ(steady[i].steps, warm[i].steps);
                    EXPECT_GT(steady[i].steps, 0);
                }
            }
        }
    }
}

namespace
{

/** Allocations made by one createNew at `inputs` inputs. */
long
createNewAllocations(int inputs, int hidden)
{
    neat::NeatConfig cfg;
    cfg.numInputs = inputs;
    cfg.numOutputs = 6;
    cfg.numHidden = hidden;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(5);
    gAllocs.store(0);
    gCounting.store(true);
    const neat::Genome g = neat::Genome::createNew(0, cfg, idx, rng);
    gCounting.store(false);
    EXPECT_EQ(g.numConnectionGenes(),
              static_cast<size_t>(inputs * cfg.numOutputs +
                                  hidden * (inputs + cfg.numOutputs)));
    return gAllocs.load();
}

} // namespace

TEST(CreateNewAllocations, IndependentOfInputCount)
{
    for (int hidden : {0, 2}) {
        const long small = createNewAllocations(8, hidden);
        const long large = createNewAllocations(1024, hidden);
        EXPECT_EQ(small, large) << "numHidden " << hidden;
        EXPECT_GT(small, 0);
    }
}

namespace
{

/**
 * Allocations made by compiling one fixed genome of `envName`'s
 * default config through a warm CompileScratch: everything the
 * compiler needs beyond the plan's own arrays must come from the
 * scratch.
 */
long
warmCompileAllocations(const std::string &envName, nn::NumericsTier tier)
{
    const auto env = env::makeEnvironment(envName);
    neat::NeatConfig cfg = env::configForEnvironment(*env);
    cfg.nodeAddProb = 0.5;
    const neat::Genome g = oracle::grownGenome(cfg, 12, 29);
    nn::CompileScratch scratch;
    const nn::CompiledPlan warm =
        nn::CompiledPlan::compileFor(g, cfg, scratch, tier);
    gAllocs.store(0);
    gCounting.store(true);
    const nn::CompiledPlan plan =
        nn::CompiledPlan::compileFor(g, cfg, scratch, tier);
    gCounting.store(false);
    EXPECT_EQ(plan.macsPerInference(), warm.macsPerInference());
    EXPECT_GT(plan.numNodes(), cfg.numOutputs) << envName;
    return gAllocs.load();
}

} // namespace

TEST(CompileAllocations, WarmScratchAllocatesOnlyThePlan)
{
    // The counts a warm compile made before the Sum nodes were lowered
    // into tiles; the tile layout must not raise them.
    const std::pair<std::string, long> pinned[] = {
        {"AirRaid-ram-v0", 11},
        {"LunarLander_v2", 12},
    };
    for (const auto &[name, count] : pinned) {
        for (nn::NumericsTier tier :
             {nn::NumericsTier::Reference, nn::NumericsTier::HwFaithful}) {
            const long allocs = warmCompileAllocations(name, tier);
            EXPECT_LE(allocs, count)
                << name << " tier " << static_cast<int>(tier);
        }
    }
}
