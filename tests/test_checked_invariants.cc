/**
 * @file
 * Proof that the GENESYS_DCHECK layer actually fires.
 *
 * A debug-check layer that silently never triggers is worse than
 * none, so this suite corrupts real structures and expects the
 * checked build to panic: a FlatGeneMap whose embedded gene key
 * disagrees with the sorted key array. In an unchecked build the same
 * corruption must go unnoticed (the macros compile out), which
 * doubles as the zero-overhead-contract test — that case runs instead
 * of skipping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "env/atari_ram.hh"
#include "env/cartpole.hh"
#include "neat/flat_gene_map.hh"
#include "neat/gene.hh"
#include "neat/genome.hh"

using namespace genesys;
using namespace genesys::neat;

namespace
{

FlatGeneMap<int, NodeGene>
threeNodes()
{
    FlatGeneMap<int, NodeGene> map;
    for (int k : {1, 5, 9}) {
        NodeGene ng;
        ng.key = k;
        map.emplace(k, ng);
    }
    return map;
}

} // namespace

TEST(CheckedInvariants, IntactGeneMapPasses)
{
    threeNodes().dcheckInvariants("intact map");
}

TEST(CheckedInvariants, CorruptedEmbeddedGeneKeyPanics)
{
    FlatGeneMap<int, NodeGene> map = threeNodes();
    // Desynchronize the embedded key from the sorted key array — the
    // corruption mutableValues() callers are trusted never to commit.
    map.mutableValueAt(1).key = 99;
    if (!checkedBuild()) {
        // Macros compile out: the corruption must go unnoticed.
        map.dcheckInvariants("checks disabled");
        return;
    }
    EXPECT_THROW(map.dcheckInvariants("corrupted map"),
                 std::logic_error);
}

TEST(CheckedInvariants, MutateAndCrossoverKeepInvariants)
{
    // The production DCHECK sites in Genome::mutate/crossover must
    // pass on healthy genomes — checked-build digests stay identical
    // because checks observe, never mutate.
    NeatConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    NodeIndexer indexer(cfg.numOutputs);
    XorWow rng(0xabcdULL);
    Genome a = Genome::createNew(1, cfg, indexer, rng);
    Genome b = Genome::createNew(2, cfg, indexer, rng);
    for (int i = 0; i < 50; ++i) {
        a.mutate(cfg, indexer, rng);
        b.mutate(cfg, indexer, rng);
    }
    Genome child = Genome::crossover(3, a, b, rng, nullptr);
    child.nodes().dcheckInvariants("crossover child nodes");
    child.connections().dcheckInvariants("crossover child conns");
}

TEST(CheckedInvariants, MixedAtariRamLaneBatchPanics)
{
    // AtariRam::stepLanes treats every lane as an AtariRam, so a batch
    // that mixes in a CartPole is a caller bug. The checked build
    // catches it before any lane steps. An unchecked build has no check
    // to observe, and stepping the mixed batch there is undefined.
    if (!checkedBuild())
        GTEST_SKIP() << "the lane type check exists in checked builds";
    env::AtariRam atari(env::AtariVariant::AirRaid);
    env::CartPole cart;
    std::vector<std::vector<double>> obs = {std::vector<double>(128),
                                            std::vector<double>(4)};
    atari.resetInto(1, obs[0]);
    cart.resetInto(1, obs[1]);
    const std::vector<env::Environment *> lanes = {&atari, &cart};
    const std::vector<env::Action> actions(2); // action 0 suits both
    const std::vector<uint8_t> live = {1, 1};
    std::vector<env::StepOutcome> out(2);
    EXPECT_THROW(atari.stepLanes(lanes, actions, obs, live, out),
                 std::logic_error);
    EXPECT_EQ(atari.stepsTaken(), 0);
}

TEST(CheckedInvariants, CheckedBuildFollowsBuildFlag)
{
#ifdef GENESYS_CHECKED
    EXPECT_TRUE(checkedBuild());
#else
    EXPECT_FALSE(checkedBuild());
#endif
}
