/**
 * @file
 * Tests for the persist:: snapshot subsystem: lossless genome codec,
 * population capture/restore, System-level checkpoint/resume
 * bit-identity, corruption handling (distinct errors, no partial
 * state mutation), provenance validation and the env hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/genesys.hh"
#include "core/run_digest.hh"
#include "exec/thread_pool.hh"
#include "hw/gene_encoding.hh"
#include "neat/per_genome.hh"
#include "obs/metrics.hh"
#include "persist/snapshot.hh"

using namespace genesys;
namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / ("genesys-test-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A genome with a few mutation rounds of structure on it. */
neat::Genome
makeMutatedGenome(uint64_t seed)
{
    neat::NeatConfig cfg;
    cfg.numInputs = 4;
    cfg.numOutputs = 2;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(seed);
    neat::Genome g = neat::Genome::createNew(9, cfg, idx, rng);
    for (int i = 0; i < 12; ++i)
        g.mutate(cfg, idx, rng);
    g.setFitness(0.1 + 0.2); // deliberately not exactly representable
    return g;
}

/** Base config for the System-level round-trip tests. */
core::SystemConfig
smallSystemConfig()
{
    core::SystemConfig cfg;
    cfg.envName = "CartPole_v0";
    cfg.maxGenerations = 5;
    cfg.episodesPerEval = 1;
    cfg.seed = 424242;
    cfg.numThreads = 2;
    cfg.tweakNeat = [](neat::NeatConfig &ncfg) {
        ncfg.populationSize = 24;
        // Unreachable threshold: these tests need all 5 generations
        // to actually run, solved runs stop checkpointing.
        ncfg.fitnessThreshold = 1e18;
    };
    return cfg;
}

/**
 * Digest the observable per-generation state of a report list: the
 * golden-digest fields plus each generation's number, gene total and
 * species count.
 */
uint64_t
digestReports(const std::vector<core::GenerationReport> &reports)
{
    uint64_t h = oracle::digestFields({}, reports);
    for (const core::GenerationReport &r : reports) {
        oracle::fold(h, static_cast<uint64_t>(r.algo.generation));
        oracle::fold(h, static_cast<uint64_t>(r.algo.totalGenes));
        oracle::fold(h, static_cast<uint64_t>(r.algo.numSpecies));
    }
    return h;
}

/** Genome equality down to the last attribute bit. */
void
expectGenomesBitIdentical(const neat::Genome &a, const neat::Genome &b)
{
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.nodeDeletions(), b.nodeDeletions());
    ASSERT_EQ(a.hasFitness(), b.hasFitness());
    if (a.hasFitness()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.fitness()),
                  std::bit_cast<uint64_t>(b.fitness()));
    }
    ASSERT_EQ(a.numNodeGenes(), b.numNodeGenes());
    for (const auto &[nk, ng] : a.nodes()) {
        ASSERT_TRUE(b.nodes().contains(nk));
        const neat::NodeGene &bg = b.nodes().at(nk);
        EXPECT_EQ(std::bit_cast<uint64_t>(ng.bias),
                  std::bit_cast<uint64_t>(bg.bias));
        EXPECT_EQ(std::bit_cast<uint64_t>(ng.response),
                  std::bit_cast<uint64_t>(bg.response));
        EXPECT_EQ(ng.activation, bg.activation);
        EXPECT_EQ(ng.aggregation, bg.aggregation);
    }
    ASSERT_EQ(a.numConnectionGenes(), b.numConnectionGenes());
    for (const auto &[ck, cg] : a.connections()) {
        ASSERT_TRUE(b.connections().contains(ck));
        const neat::ConnectionGene &bg = b.connections().at(ck);
        EXPECT_EQ(std::bit_cast<uint64_t>(cg.weight),
                  std::bit_cast<uint64_t>(bg.weight));
        EXPECT_EQ(cg.enabled, bg.enabled);
    }
}

} // namespace

// --- lossless genome codec --------------------------------------------------

TEST(LosslessGenomeCodec, RoundTripIsBitExact)
{
    const neat::Genome g = makeMutatedGenome(7);
    const auto bytes = persist::encodeGenomeLossless(g);
    const neat::Genome back = persist::decodeGenomeLossless(bytes);
    expectGenomesBitIdentical(g, back);
}

TEST(LosslessGenomeCodec, BitExactWhereHwCodecIsNot)
{
    // The contrast the ROADMAP correction is about: the Q6.10 hw
    // codec quantizes attributes (resolution 2^-10), the persist
    // codec stores the raw IEEE-754 bits. 0.3 is representable in
    // neither Q6.10 nor any finite binary expansion — only the
    // bit-copy survives.
    neat::ConnectionGene cg;
    cg.key = {0, 1};
    cg.weight = 0.3;

    hw::GeneCodec hw_codec;
    const auto hw_back =
        hw_codec.decodeConnection(hw_codec.encodeConnection(cg));
    EXPECT_NE(hw_back.weight, 0.3);

    neat::Genome g(1);
    neat::NodeGene ng;
    ng.key = 0;
    ng.bias = 0.3;
    g.mutableNodes().emplace(0, ng);
    g.mutableConnections().emplace(cg.key, cg);
    const neat::Genome back =
        persist::decodeGenomeLossless(persist::encodeGenomeLossless(g));
    EXPECT_EQ(std::bit_cast<uint64_t>(back.connections().at(cg.key).weight),
              std::bit_cast<uint64_t>(0.3));
    EXPECT_EQ(std::bit_cast<uint64_t>(back.nodes().at(0).bias),
              std::bit_cast<uint64_t>(0.3));
}

TEST(LosslessGenomeCodec, RejectsTrailingGarbage)
{
    auto bytes = persist::encodeGenomeLossless(makeMutatedGenome(11));
    bytes.push_back(0xab);
    EXPECT_THROW((void)persist::decodeGenomeLossless(bytes),
                 persist::SnapshotError);
}

TEST(LosslessGenomeCodec, RejectsInvalidActivationId)
{
    // Corrupt the first node's activation id to the enum sentinel.
    // Layout: key 4 + deletions 4 + hasFitness 1 + fitness 8 +
    // node count 8 + node key 4 + bias 8 + response 8 = offset 45.
    auto bytes = persist::encodeGenomeLossless(makeMutatedGenome(13));
    bytes[45] = 0xee;
    EXPECT_THROW((void)persist::decodeGenomeLossless(bytes),
                 persist::SnapshotError);
}

TEST(LosslessGenomeCodec, RejectsGeneKeysNotAscending)
{
    // A writer emits gene keys strictly ascending; a stream whose keys
    // are swapped or repeated is malformed and rejected, not repaired.
    neat::NeatConfig cfg;
    cfg.numInputs = 4;
    cfg.numOutputs = 2;
    neat::NodeIndexer idx(cfg.numOutputs);
    XorWow rng(17);
    const neat::Genome g = neat::Genome::createNew(3, cfg, idx, rng);
    ASSERT_EQ(g.numConnectionGenes(), 8u);
    const auto bytes = persist::encodeGenomeLossless(g);
    // key 4 + deletions 4 + has-fitness 1 + fitness 8 + node count 8,
    // the node records, then the connection count.
    const size_t conns = 25 + 22 * g.numNodeGenes() + 8;
    const size_t last = conns + 17 * (g.numConnectionGenes() - 1);
    const auto expectRejected = [](const std::vector<uint8_t> &b) {
        try {
            (void)persist::decodeGenomeLossless(b);
            ADD_FAILURE() << "decoded";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("gene keys not ascending"),
                      std::string::npos)
                << e.what();
        }
    };

    auto swapped = bytes;
    std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(conns),
                     swapped.begin() + static_cast<std::ptrdiff_t>(conns + 17),
                     swapped.begin() + static_cast<std::ptrdiff_t>(last));
    expectRejected(swapped);

    // The first connection's key over the second's.
    auto duplicated = bytes;
    std::copy_n(duplicated.begin() + static_cast<std::ptrdiff_t>(conns), 8,
                duplicated.begin() + static_cast<std::ptrdiff_t>(conns + 17));
    expectRejected(duplicated);

    // The first node's key over the second's.
    auto node_dup = bytes;
    std::copy_n(node_dup.begin() + 25, 4, node_dup.begin() + 25 + 22);
    expectRejected(node_dup);
}

// --- population capture / restore -------------------------------------------

TEST(PopulationSnapshot, RestoredPopulationEvolvesBitIdentically)
{
    neat::NeatConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 1;
    cfg.populationSize = 20;
    cfg.fitnessThreshold = 1e18;

    // Any deterministic pure function of the genome works as fitness.
    const auto fitness = neat::oracle::perGenome([](const neat::Genome &g) {
        return static_cast<double>(g.numGenes()) * 0.125 +
               static_cast<double>(g.key() % 7) * 0.0625;
    });

    neat::Population a(cfg, 99);
    for (int i = 0; i < 4; ++i)
        ASSERT_FALSE(a.stepBatch(fitness));

    const neat::PopulationSnapshot snap = a.capture();
    neat::Population b(cfg, 12345); // different seed; restore overwrites
    b.restore(snap);

    EXPECT_EQ(b.generation(), a.generation());
    for (int i = 0; i < 4; ++i) {
        ASSERT_FALSE(a.stepBatch(fitness));
        ASSERT_FALSE(b.stepBatch(fitness));
        const neat::GenerationStats &sa = a.history().back();
        const neat::GenerationStats &sb = b.history().back();
        EXPECT_EQ(sa.generation, sb.generation);
        EXPECT_EQ(std::bit_cast<uint64_t>(sa.bestFitness),
                  std::bit_cast<uint64_t>(sb.bestFitness));
        EXPECT_EQ(std::bit_cast<uint64_t>(sa.meanFitness),
                  std::bit_cast<uint64_t>(sb.meanFitness));
        EXPECT_EQ(sa.totalGenes, sb.totalGenes);
        EXPECT_EQ(sa.evolutionOps, sb.evolutionOps);
        EXPECT_EQ(sa.numSpecies, sb.numSpecies);
    }
    // The RNG streams stayed in lockstep through all of it.
    EXPECT_EQ(a.rng().saveState().weyl, b.rng().saveState().weyl);
}

// --- snapshot file round trip -----------------------------------------------

TEST(SnapshotFile, WriteReadRoundTrip)
{
    const fs::path dir = scratchDir("snapfile");
    neat::NeatConfig cfg;
    cfg.populationSize = 12;
    cfg.fitnessThreshold = 1e18;
    neat::Population pop(cfg, 5);
    pop.stepBatch(neat::oracle::perGenome([](const neat::Genome &g) {
        return static_cast<double>(g.numGenes());
    }));

    persist::SystemSnapshot snap;
    snap.envName = "CartPole_v0";
    snap.seed = 5;
    snap.populationSize = cfg.populationSize;
    snap.numInputs = cfg.numInputs;
    snap.numOutputs = cfg.numOutputs;
    snap.feedForward = cfg.feedForward;
    snap.population = pop.capture();
    snap.counters = {{"a.b", 3}, {"c", 42}};

    const std::string path = (dir / persist::snapshotFileName(1)).string();
    persist::writeSnapshotFile(snap, path);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file left behind";

    const persist::SystemSnapshot back = persist::readSnapshotFile(path);
    EXPECT_EQ(back.envName, snap.envName);
    EXPECT_EQ(back.seed, snap.seed);
    EXPECT_EQ(back.populationSize, snap.populationSize);
    EXPECT_EQ(back.counters, snap.counters);
    EXPECT_EQ(back.population.generation, snap.population.generation);
    EXPECT_EQ(back.population.nextSpeciesKey,
              snap.population.nextSpeciesKey);
    EXPECT_EQ(back.population.nextGenomeKey,
              snap.population.nextGenomeKey);
    EXPECT_EQ(back.population.nextNodeKey, snap.population.nextNodeKey);
    ASSERT_EQ(back.population.genomes.size(),
              snap.population.genomes.size());
    for (const auto &[gk, g] : snap.population.genomes) {
        ASSERT_TRUE(back.population.genomes.count(gk));
        expectGenomesBitIdentical(g, back.population.genomes.at(gk));
    }
    ASSERT_EQ(back.population.species.size(),
              snap.population.species.size());
    for (const auto &[sk, sp] : snap.population.species) {
        ASSERT_TRUE(back.population.species.count(sk));
        const neat::Species &bsp = back.population.species.at(sk);
        EXPECT_EQ(bsp.memberKeys, sp.memberKeys);
        EXPECT_EQ(bsp.key, sp.key);
        EXPECT_EQ(std::bit_cast<uint64_t>(bsp.bestFitness),
                  std::bit_cast<uint64_t>(sp.bestFitness));
        EXPECT_EQ(bsp.lastImprovedGeneration, sp.lastImprovedGeneration);
        expectGenomesBitIdentical(sp.representative, bsp.representative);
    }
    const XorWowState &ra = snap.population.rngState;
    const XorWowState &rb = back.population.rngState;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(ra.state[i], rb.state[i]);
    EXPECT_EQ(ra.weyl, rb.weyl);
    EXPECT_EQ(ra.hasCachedGaussian, rb.hasCachedGaussian);
    EXPECT_EQ(std::bit_cast<uint64_t>(ra.cachedGaussian),
              std::bit_cast<uint64_t>(rb.cachedGaussian));
    ASSERT_EQ(back.population.traces.size(),
              snap.population.traces.size());
    if (!snap.population.traces.empty()) {
        EXPECT_EQ(back.population.traces[0].children.size(),
                  snap.population.traces[0].children.size());
        EXPECT_EQ(back.population.traces[0].totalOps(),
                  snap.population.traces[0].totalOps());
    }
    fs::remove_all(dir);
}

TEST(SnapshotFile, FileNameIsStable)
{
    EXPECT_EQ(persist::snapshotFileName(3), "snapshot-gen-000003.gsnap");
    EXPECT_EQ(persist::snapshotFileName(123456),
              "snapshot-gen-123456.gsnap");
}

namespace
{

/** The SnapshotError message readSnapshotFile gives for `path`. */
std::string
readErrorFor(const std::string &path)
{
    try {
        (void)persist::readSnapshotFile(path);
    } catch (const persist::SnapshotError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SnapshotError for " << path;
    return "";
}

} // namespace

TEST(SnapshotFile, DirectoryIsASnapshotError)
{
    const fs::path dir = scratchDir("snapdir");
    const std::string msg = readErrorFor(dir.string());
    EXPECT_NE(msg.find("not a regular file"), std::string::npos) << msg;
    fs::remove_all(dir);
}

TEST(SnapshotFile, MissingPathIsASnapshotError)
{
    const fs::path dir = scratchDir("snapmissing");
    const std::string msg =
        readErrorFor((dir / "absent" / "snap.gsnap").string());
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
    EXPECT_NE(msg.find("no such file"), std::string::npos) << msg;
    fs::remove_all(dir);
}

TEST(SnapshotFile, ShortReadIsASnapshotError)
{
    // A source that delivers fewer bytes than its size query promised
    // (a file truncated between the query and the read) is reported
    // as a short read, not parsed as a truncated snapshot.
    const fs::path dir = scratchDir("snapshort");
    neat::NeatConfig cfg;
    cfg.populationSize = 6;
    persist::SystemSnapshot snap;
    snap.envName = "CartPole_v0";
    snap.populationSize = cfg.populationSize;
    snap.numInputs = cfg.numInputs;
    snap.numOutputs = cfg.numOutputs;
    snap.population = neat::Population(cfg, 9).capture();
    const std::string path = (dir / persist::snapshotFileName(0)).string();
    persist::writeSnapshotFile(snap, path);

    std::ifstream is(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    const std::uintmax_t size = bytes.size();
    {
        std::istringstream whole(bytes);
        EXPECT_EQ(persist::readSnapshot(whole, size, path)
                      .population.genomes.size(),
                  6u);
    }
    std::istringstream cut(bytes.substr(0, bytes.size() - 100));
    try {
        (void)persist::readSnapshot(cut, size, path);
        ADD_FAILURE() << "expected SnapshotError for a short read";
    } catch (const persist::SnapshotError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("short read"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(size - 100) + " of " +
                           std::to_string(size) + " bytes"),
                  std::string::npos)
            << msg;
    }
    fs::remove_all(dir);
}

// --- corruption: distinct errors, no crash, no partial mutation -------------

class SnapshotCorruptionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = scratchDir("corrupt");
        core::SystemConfig cfg = smallSystemConfig();
        cfg.checkpointDir = dir_.string();
        core::System sys(cfg);
        ASSERT_FALSE(sys.stepGeneration());
        ASSERT_FALSE(sys.stepGeneration());
        path_ = (dir_ / persist::snapshotFileName(2)).string();
        ASSERT_TRUE(fs::exists(path_));
        bytes_ = slurp(path_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    static std::vector<char>
    slurp(const std::string &p)
    {
        std::ifstream is(p, std::ios::binary);
        return {std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>()};
    }

    std::string
    writeVariant(const std::string &name, const std::vector<char> &bytes)
    {
        const std::string p = (dir_ / name).string();
        std::ofstream os(p, std::ios::binary);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        return p;
    }

    /** The SnapshotError message for reading `p` (fails if none). */
    std::string
    errorFor(const std::string &p)
    {
        try {
            (void)persist::readSnapshotFile(p);
        } catch (const persist::SnapshotError &e) {
            return e.what();
        }
        ADD_FAILURE() << "expected SnapshotError for " << p;
        return "";
    }

    fs::path dir_;
    std::string path_;
    std::vector<char> bytes_;
};

TEST_F(SnapshotCorruptionTest, MissingFile)
{
    const std::string msg = errorFor((dir_ / "nope.gsnap").string());
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, TruncatedBelowHeader)
{
    auto v = bytes_;
    v.resize(10);
    const std::string msg = errorFor(writeVariant("tiny.gsnap", v));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("header"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, TruncatedPayload)
{
    ASSERT_GT(bytes_.size(), 100u);
    const std::vector<char> v(bytes_.begin(), bytes_.end() - 100);
    const std::string msg = errorFor(writeVariant("trunc.gsnap", v));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload bytes"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByte)
{
    auto v = bytes_;
    v[v.size() / 2] = static_cast<char>(v[v.size() / 2] ^ 0x40);
    const std::string msg = errorFor(writeVariant("flip.gsnap", v));
    EXPECT_NE(msg.find("corrupted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("digest mismatch"), std::string::npos) << msg;
}

TEST_F(SnapshotCorruptionTest, BadMagic)
{
    auto v = bytes_;
    v[0] = 'X';
    const std::string msg = errorFor(writeVariant("magic.gsnap", v));
    EXPECT_NE(msg.find("not a GeneSys snapshot"), std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, VersionBumpedHeader)
{
    auto v = bytes_;
    v[4] = static_cast<char>(persist::kSnapshotVersion + 1);
    const std::string msg = errorFor(writeVariant("vers.gsnap", v));
    EXPECT_NE(msg.find("unsupported snapshot version"),
              std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, PreviousVersionIsRejected)
{
    // Version 3 had the byte-serial digest; its files are not read.
    auto v = bytes_;
    v[4] = 3;
    const std::string msg = errorFor(writeVariant("v3.gsnap", v));
    EXPECT_NE(msg.find("unsupported snapshot version 3"), std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, MalformedGenomesReportTheSerialOrderFirst)
{
    // Genome::validate runs on the engine's workers. With several
    // malformed genomes, the one reported must be the one a serial
    // walk meets first (genomes by key, then species representatives,
    // then the best genome), with the same message, at any thread
    // count.
    persist::SystemSnapshot snap = persist::readSnapshotFile(path_);
    ASSERT_GE(snap.population.genomes.size(), 3u);
    auto it = snap.population.genomes.begin();
    ++it;
    const int first_bad = it->first;
    // A missing output node, and in a later genome a dangling
    // connection destination.
    it->second.mutableNodes().erase(0);
    neat::Genome &last = snap.population.genomes.rbegin()->second;
    neat::ConnectionGene dangling;
    dangling.key = {-1, 999999};
    last.mutableConnections().emplace(dangling.key, dangling);
    snap.population.species.begin()->second.representative.mutableNodes()
        .erase(0);
    const std::string p = (dir_ / "two-bad.gsnap").string();
    persist::writeSnapshotFile(snap, p);

    const std::string want = "snapshot \"" + p + "\": genome " +
                             std::to_string(first_bad) +
                             " is malformed: ";
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        core::SystemConfig cfg = smallSystemConfig();
        cfg.numThreads = threads;
        core::System sys(cfg);
        for (int rep = 0; rep < 5; ++rep) {
            try {
                sys.resumeFrom(p);
                ADD_FAILURE() << "expected SnapshotError";
            } catch (const persist::SnapshotError &e) {
                const std::string msg = e.what();
                EXPECT_EQ(msg.rfind(want, 0), 0u) << msg;
                EXPECT_NE(msg.find("output node 0 missing"),
                          std::string::npos)
                    << msg;
            }
        }
    }
}

TEST_F(SnapshotCorruptionTest, DistinctMessagesPerFailureMode)
{
    // The three ISSUE failure modes must be told apart by message.
    ASSERT_FALSE(bytes_.empty());
    const std::vector<char> trunc(bytes_.begin(), bytes_.end() - 1);
    auto flip = bytes_;
    flip[flip.size() - 1] = static_cast<char>(flip[flip.size() - 1] ^ 1);
    auto vers = bytes_;
    vers[4] = static_cast<char>(persist::kSnapshotVersion + 9);

    const std::string m1 = errorFor(writeVariant("a.gsnap", trunc));
    const std::string m2 = errorFor(writeVariant("b.gsnap", flip));
    const std::string m3 = errorFor(writeVariant("c.gsnap", vers));
    EXPECT_NE(m1, m2);
    EXPECT_NE(m2, m3);
    EXPECT_NE(m1, m3);
}

TEST_F(SnapshotCorruptionTest, DuplicatedSpeciesMember)
{
    // A checksum-valid file whose species list one genome twice. No
    // speciation produces it, and breeding from it would give that
    // genome two elite records and leave the population short.
    persist::SystemSnapshot snap = persist::readSnapshotFile(path_);
    ASSERT_FALSE(snap.population.species.empty());
    std::vector<int> &members =
        snap.population.species.begin()->second.memberKeys;
    ASSERT_FALSE(members.empty());
    const int twice = members.front();
    members.push_back(twice);
    const std::string p = (dir_ / "dup.gsnap").string();
    persist::writeSnapshotFile(snap, p);
    const std::string msg = errorFor(p);
    EXPECT_NE(msg.find("genome " + std::to_string(twice) +
                       " is a member of species"),
              std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, GenomeInNoSpecies)
{
    persist::SystemSnapshot snap = persist::readSnapshotFile(path_);
    ASSERT_FALSE(snap.population.species.empty());
    std::vector<int> &members =
        snap.population.species.begin()->second.memberKeys;
    ASSERT_GE(members.size(), 2u);
    const int orphan = members.back();
    members.pop_back();
    const std::string p = (dir_ / "orphan.gsnap").string();
    persist::writeSnapshotFile(snap, p);
    const std::string msg = errorFor(p);
    EXPECT_NE(msg.find("genome " + std::to_string(orphan) +
                       " belongs to no species"),
              std::string::npos)
        << msg;
}

TEST_F(SnapshotCorruptionTest, EmptySpeciesAndUnissuedSpeciesKey)
{
    // Stagnation cannot score a species with no members, and the next
    // speciation would issue a species key the file already holds.
    persist::SystemSnapshot snap = persist::readSnapshotFile(path_);
    ASSERT_FALSE(snap.population.species.empty());
    persist::SystemSnapshot empty = snap;
    empty.population.species.begin()->second.memberKeys.clear();
    const std::string p1 = (dir_ / "empty.gsnap").string();
    persist::writeSnapshotFile(empty, p1);
    const std::string m1 = errorFor(p1);
    EXPECT_NE(m1.find("has no members"), std::string::npos) << m1;

    snap.population.nextSpeciesKey = snap.population.species.rbegin()->first;
    const std::string p2 = (dir_ / "key.gsnap").string();
    persist::writeSnapshotFile(snap, p2);
    const std::string m2 = errorFor(p2);
    EXPECT_NE(m2.find("is not below the next species key"),
              std::string::npos)
        << m2;
}

TEST_F(SnapshotCorruptionTest, FailedResumeLeavesSystemUntouched)
{
    // A System that survives a failed resumeFrom must keep running
    // exactly as if the attempt never happened: same per-generation
    // bits as an undisturbed control.
    auto flip = bytes_;
    flip[flip.size() / 3] =
        static_cast<char>(flip[flip.size() / 3] ^ 0x10);
    const std::string bad = writeVariant("bad.gsnap", flip);

    core::SystemConfig cfg = smallSystemConfig();
    core::System control(cfg);
    core::System victim(cfg);
    ASSERT_FALSE(control.stepGeneration());
    ASSERT_FALSE(victim.stepGeneration());

    EXPECT_THROW(victim.resumeFrom(bad), persist::SnapshotError);

    for (int i = 0; i < 2; ++i) {
        control.stepGeneration();
        victim.stepGeneration();
    }
    EXPECT_EQ(digestReports(victim.reports()),
              digestReports(control.reports()));
}

namespace
{

/** The 24-byte file header that precedes the digested payload. */
constexpr size_t kDigestHeaderBytes = 24;

/**
 * The file bytes of a hand-built one-genome snapshot, small enough to
 * change every payload byte, with a byte tail past the last 32-byte
 * block. `path` is the name the reads below report.
 */
std::string
smallSnapshotBytes(const std::string &path)
{
    neat::NeatConfig ncfg;
    ncfg.numInputs = 3;
    ncfg.numOutputs = 1;
    neat::NodeIndexer idx(ncfg.numOutputs);
    XorWow rng(5);
    persist::SystemSnapshot snap;
    snap.envName = "CartPole_v0";
    snap.seed = 11;
    snap.populationSize = 1;
    snap.numInputs = ncfg.numInputs;
    snap.numOutputs = ncfg.numOutputs;
    snap.population.genomes.emplace(
        0, neat::Genome::createNew(0, ncfg, idx, rng));
    neat::Species sp;
    sp.key = 1;
    sp.representative = snap.population.genomes.at(0);
    sp.memberKeys = {0};
    snap.population.species.emplace(1, sp);
    snap.population.nextSpeciesKey = 2;
    snap.population.nextGenomeKey = 1;
    snap.population.nextNodeKey = idx.peek();
    snap.population.rngState = rng.saveState();

    persist::writeSnapshotFile(snap, path);
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    std::istringstream pristine(bytes);
    EXPECT_EQ(persist::readSnapshot(pristine, bytes.size(), path)
                  .population.genomes.size(),
              1u);
    return bytes;
}

/** Whether reading `bytes` fails the digest check; else a test failure. */
bool
failsDigest(const std::string &bytes, const std::string &path,
            const std::string &what)
{
    std::istringstream in(bytes);
    try {
        (void)persist::readSnapshot(in, bytes.size(), path);
        ADD_FAILURE() << what << " passed the digest";
        return false;
    } catch (const persist::SnapshotError &e) {
        if (std::string(e.what()).find("digest mismatch") ==
            std::string::npos) {
            ADD_FAILURE() << what << ": " << e.what();
            return false;
        }
    }
    return true;
}

} // namespace

TEST(SnapshotDigest, CatchesEverySingleByteChange)
{
    // Each single-bit flip and the complement of each payload byte, in
    // the four-lane words and in the byte tail past the last 32-byte
    // block, must fail the digest check.
    const fs::path dir = scratchDir("digest");
    const std::string path = (dir / "small.gsnap").string();
    const std::string bytes = smallSnapshotBytes(path);
    fs::remove_all(dir);
    const size_t payload = bytes.size() - kDigestHeaderBytes;
    ASSERT_GE(payload, 64u);
    ASSERT_NE(payload % 32, 0u) << "no byte tail to test";
    for (size_t at = kDigestHeaderBytes; at < bytes.size(); ++at) {
        for (int mask : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
            std::string changed = bytes;
            changed[at] = static_cast<char>(changed[at] ^ mask);
            if (!failsDigest(changed, path,
                             "byte " + std::to_string(at) + " ^ " +
                                 std::to_string(mask)))
                return;
        }
    }
}

TEST(SnapshotDigest, CatchesPairedTopBitFlips)
{
    // A multiply only carries a change toward higher bits, so a digest
    // built from xor-multiply steps alone lets any two flips of bit 63
    // of payload words cancel. Every pair of words in the 32-byte
    // blocks, same lane or not, last block included, must fail.
    const fs::path dir = scratchDir("digest-pairs");
    const std::string path = (dir / "small.gsnap").string();
    const std::string bytes = smallSnapshotBytes(path);
    fs::remove_all(dir);
    const size_t words = (bytes.size() - kDigestHeaderBytes) / 32 * 4;
    ASSERT_GE(words, 8u);
    const auto topByte = [](size_t word) {
        return kDigestHeaderBytes + 8 * word + 7;
    };
    for (size_t a = 0; a < words; ++a) {
        for (size_t b = a + 1; b < words; ++b) {
            std::string changed = bytes;
            changed[topByte(a)] = static_cast<char>(changed[topByte(a)] ^ 0x80);
            changed[topByte(b)] = static_cast<char>(changed[topByte(b)] ^ 0x80);
            if (!failsDigest(changed, path,
                             "bit 63 of words " + std::to_string(a) +
                                 " and " + std::to_string(b)))
                return;
        }
    }
}

// --- structure-aware fuzz: the parser meets hostile payloads -----------------
// The corruption tests above mostly prove the digest works: a flipped
// byte is rejected before any chunk is parsed. This loop mutates the
// payload with knowledge of its layout — chunk tags, sizes and
// bodies, element counts, gene keys — and then *recomputes* the
// payload size and digest in the header, so every input reaches
// the chunk parsers and System::resumeFrom. Each input must either be
// rejected with a SnapshotError or restore a state whose genomes all
// pass Genome::validate and whose species partition those genomes,
// each exactly once; anything else (another exception, a crash,
// a sanitizer report) fails. Seeded and deterministic, with a fixed
// iteration budget, so it runs under ASan/UBSan in every CI pass.

namespace
{

/**
 * The version-4 payload digest of bytes[from..], written out from the
 * format's description: each step is FNV-1a's xor-multiply followed
 * by `h ^= h >> 32`; four lanes take the little-endian 64-bit words
 * of each 32-byte block, are absorbed in lane order into a fresh
 * running value, then the byte tail is absorbed.
 */
uint64_t
fuzzDigest(const std::vector<uint8_t> &bytes, size_t from)
{
    constexpr uint64_t kBasis = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    const auto step = [](uint64_t h, uint64_t v) {
        h = (h ^ v) * kPrime;
        return h ^ (h >> 32);
    };
    uint64_t lane[4] = {kBasis, kBasis ^ 1, kBasis ^ 2, kBasis ^ 3};
    size_t i = from;
    for (; i + 32 <= bytes.size(); i += 32) {
        for (size_t k = 0; k < 4; ++k) {
            uint64_t w = 0;
            for (size_t b = 0; b < 8; ++b)
                w |= static_cast<uint64_t>(bytes[i + 8 * k + b]) << (8 * b);
            lane[k] = step(lane[k], w);
        }
    }
    uint64_t h = kBasis;
    for (size_t k = 0; k < 4; ++k)
        h = step(h, lane[k]);
    for (; i < bytes.size(); ++i)
        h = step(h, bytes[i]);
    return h;
}

uint64_t
getLe(const std::vector<uint8_t> &b, size_t at, int width)
{
    uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<uint64_t>(b[at + static_cast<size_t>(i)]) << (8 * i);
    return v;
}

void
putLe(std::vector<uint8_t> &b, size_t at, int width, uint64_t v)
{
    for (int i = 0; i < width; ++i)
        b[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
}

constexpr size_t kFuzzHeaderBytes = 24;

/** Where one chunk sits in the file: its size field and its body. */
struct ChunkAt
{
    size_t tagAt;
    size_t body;
    size_t size;
};

std::vector<ChunkAt>
chunksOf(const std::vector<uint8_t> &file)
{
    std::vector<ChunkAt> chunks;
    for (size_t at = kFuzzHeaderBytes; at + 12 <= file.size();) {
        const size_t size = static_cast<size_t>(getLe(file, at + 4, 8));
        chunks.push_back({at, at + 12, size});
        at += 12 + size;
    }
    return chunks;
}

/** A little-endian integer field the fuzz rewrites: offset and width. */
struct Field
{
    size_t at;
    int width;
};

/**
 * Element counts and keys of a well-formed snapshot, found by walking
 * the genome layout (key, deletions, fitness flag and value, then
 * counted node genes of 22 bytes and connection genes of 17) through
 * POPL and through SPCS (per species: key, last-improved generation,
 * best fitness, representative genome, counted member keys, kept
 * apart in `members`), plus the fixed positions of the other chunks'
 * counts.
 */
void
findFields(const std::vector<uint8_t> &file, std::vector<Field> &counts,
           std::vector<Field> &keys, std::vector<Field> &members)
{
    auto tag_is = [&](const ChunkAt &c, const char *t) {
        return std::memcmp(file.data() + c.tagAt, t, 4) == 0;
    };
    // Record one genome's fields; returns the offset just past it.
    auto walk_genome = [&](size_t at) {
        keys.push_back({at, 4});
        at += 17;
        counts.push_back({at, 8});
        const uint64_t nodes = getLe(file, at, 8);
        at += 8;
        for (uint64_t n = 0; n < nodes; ++n, at += 22)
            keys.push_back({at, 4});
        counts.push_back({at, 8});
        const uint64_t conns = getLe(file, at, 8);
        at += 8;
        for (uint64_t k = 0; k < conns; ++k, at += 17) {
            keys.push_back({at, 4});
            keys.push_back({at + 4, 4});
        }
        return at;
    };
    for (const ChunkAt &c : chunksOf(file)) {
        if (tag_is(c, "RNGS") || tag_is(c, "TRCE"))
            counts.push_back({c.body, 4});
        else if (tag_is(c, "METR"))
            counts.push_back({c.body, 8});
        if (tag_is(c, "POPL")) {
            counts.push_back({c.body + 4, 8});
            const uint64_t genomes = getLe(file, c.body + 4, 8);
            size_t at = c.body + 12;
            for (uint64_t g = 0; g < genomes; ++g)
                at = walk_genome(at);
        } else if (tag_is(c, "SPCS")) {
            counts.push_back({c.body + 4, 8});
            const uint64_t species = getLe(file, c.body + 4, 8);
            size_t at = c.body + 12;
            for (uint64_t s = 0; s < species; ++s) {
                keys.push_back({at, 4});
                at = walk_genome(at + 16);
                counts.push_back({at, 8});
                const uint64_t member_count = getLe(file, at, 8);
                at += 8;
                for (uint64_t m = 0; m < member_count; ++m, at += 4)
                    members.push_back({at, 4});
            }
        }
    }
}

/** Offsets of the POPL chunk's genome records in a well-formed file. */
std::vector<size_t>
populationGenomesAt(const std::vector<uint8_t> &file)
{
    std::vector<size_t> at;
    for (const ChunkAt &c : chunksOf(file)) {
        if (std::memcmp(file.data() + c.tagAt, "POPL", 4) != 0)
            continue;
        const uint64_t genomes = getLe(file, c.body + 4, 8);
        size_t g_at = c.body + 12;
        for (uint64_t g = 0; g < genomes; ++g) {
            at.push_back(g_at);
            const uint64_t nodes = getLe(file, g_at + 17, 8);
            const size_t conns_at = g_at + 25 + 22 * nodes;
            g_at = conns_at + 8 + 17 * getLe(file, conns_at, 8);
        }
    }
    return at;
}

/** Rewrite the header's payload size and digest to match the payload. */
void
resealHeader(std::vector<uint8_t> &file)
{
    putLe(file, 8, 8, file.size() - kFuzzHeaderBytes);
    putLe(file, 16, 8, fuzzDigest(file, kFuzzHeaderBytes));
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &file)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(file.data()),
             static_cast<std::streamsize>(file.size()));
}

/** An executor over `pool`'s workers. */
neat::Executor
onPool(exec::ThreadPool &pool)
{
    return [&pool](size_t count, const std::function<void(size_t)> &body) {
        pool.parallelFor(count, [&body](size_t i, int) { body(i); });
    };
}

/**
 * What reading `path` on `exec` yields: "error: " and the
 * SnapshotError's text, or the snapshot read, written back out to
 * `echo` and returned as its bytes.
 */
std::string
readOutcome(const std::string &path, const neat::Executor &exec,
            const std::string &echo)
{
    try {
        persist::writeSnapshotFile(persist::readSnapshotFile(path, exec),
                                   echo);
    } catch (const persist::SnapshotError &e) {
        return std::string("error: ") + e.what();
    }
    std::ifstream is(echo, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** Apply one structure-aware mutation to `file` (header excluded). */
void
mutateSnapshot(std::vector<uint8_t> &file, const std::vector<Field> &counts,
               const std::vector<Field> &keys,
               const std::vector<Field> &members, XorWow &rng)
{
    const std::vector<ChunkAt> chunks = chunksOf(file);
    if (chunks.empty())
        return;
    const ChunkAt &c =
        chunks[rng.uniformInt(static_cast<uint32_t>(chunks.size()))];
    const bool body_in_file = c.body + c.size <= file.size();
    auto in_file = [&](const Field &f) {
        return f.at + static_cast<size_t>(f.width) <= file.size();
    };
    switch (rng.uniformInt(7u)) {
      case 0: // one payload byte anywhere in a chunk body
        if (body_in_file && c.size > 0)
            file[c.body + rng.uniformInt(static_cast<uint32_t>(c.size))] =
                static_cast<uint8_t>(rng.uniformInt(256u));
        break;
      case 1: { // an element count
        const Field &f =
            counts[rng.uniformInt(static_cast<uint32_t>(counts.size()))];
        if (!in_file(f))
            break;
        const uint64_t v = getLe(file, f.at, f.width);
        const uint64_t choices[] = {0,          v + 1,      v - 1,
                                    2 * v + 1,  0xFFFFFFFFu, 1ull << 62,
                                    rng.next64()};
        putLe(file, f.at, f.width, choices[rng.uniformInt(7u)]);
        break;
      }
      case 2: { // a genome, node or connection key, near the valid range
        const Field &f =
            keys[rng.uniformInt(static_cast<uint32_t>(keys.size()))];
        if (in_file(f))
            putLe(file, f.at, f.width,
                  static_cast<uint32_t>(rng.uniformInt(-8, 40)));
        break;
      }
      case 3: { // a chunk's declared size, body left as is
        const uint64_t choices[] = {0, c.size + 1, c.size - 1,
                                    c.size + 1000, ~0ull, rng.next64()};
        putLe(file, c.tagAt + 4, 8, choices[rng.uniformInt(6u)]);
        break;
      }
      case 4: { // grow or shrink a body, framing kept consistent
        if (!body_in_file)
            break;
        const size_t end = c.body + c.size;
        if (rng.bernoulli(0.5) && c.size > 0) {
            const size_t cut = 1 + rng.uniformInt(static_cast<uint32_t>(
                                       std::min<size_t>(c.size, 64)));
            file.erase(file.begin() + static_cast<std::ptrdiff_t>(end - cut),
                       file.begin() + static_cast<std::ptrdiff_t>(end));
            putLe(file, c.tagAt + 4, 8, c.size - cut);
        } else {
            const size_t grow = 1 + rng.uniformInt(64u);
            file.insert(file.begin() + static_cast<std::ptrdiff_t>(end),
                        grow, static_cast<uint8_t>(rng.uniformInt(256u)));
            putLe(file, c.tagAt + 4, 8, c.size + grow);
        }
        break;
      }
      case 5: { // one species member key over another: a genome listed
                // twice and another in no species
        const Field &from =
            members[rng.uniformInt(static_cast<uint32_t>(members.size()))];
        const Field &to =
            members[rng.uniformInt(static_cast<uint32_t>(members.size()))];
        if (in_file(from) && in_file(to))
            putLe(file, to.at, 4, getLe(file, from.at, 4));
        break;
      }
      default: { // drop, duplicate or retag a whole chunk
        if (!body_in_file)
            break;
        const auto from = file.begin() + static_cast<std::ptrdiff_t>(c.tagAt);
        const auto to =
            file.begin() + static_cast<std::ptrdiff_t>(c.body + c.size);
        const uint32_t how = rng.uniformInt(3u);
        if (how == 0) {
            file.erase(from, to);
        } else if (how == 1) {
            const std::vector<uint8_t> copy(from, to);
            file.insert(to, copy.begin(), copy.end());
        } else {
            const ChunkAt &other =
                chunks[rng.uniformInt(static_cast<uint32_t>(chunks.size()))];
            const uint64_t tag = rng.bernoulli(0.5)
                                     ? getLe(file, other.tagAt, 4)
                                     : rng.next32();
            putLe(file, c.tagAt, 4, tag);
        }
        break;
      }
    }
}

} // namespace

TEST(SnapshotFuzz, HostilePayloadsAreRejectedOrRestoreValidGenomes)
{
    constexpr int kIterations = 400;
    const fs::path dir = scratchDir("fuzz");
    core::SystemConfig cfg = smallSystemConfig();
    cfg.numThreads = 1;
    cfg.checkpointDir = dir.string();
    {
        core::System sys(cfg);
        ASSERT_FALSE(sys.stepGeneration());
        ASSERT_FALSE(sys.stepGeneration());
    }
    std::vector<uint8_t> pristine;
    {
        std::ifstream is(dir / persist::snapshotFileName(2),
                         std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(is),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_GT(pristine.size(), kFuzzHeaderBytes);
    std::vector<Field> counts, keys;
    std::vector<Field> members;
    findFields(pristine, counts, keys, members);
    ASSERT_FALSE(counts.empty());
    ASSERT_FALSE(keys.empty());
    ASSERT_GE(members.size(), 2u);

    cfg.checkpointDir.clear();
    const std::string path = (dir / "fuzz.gsnap").string();
    const std::string echo = (dir / "echo.gsnap").string();
    exec::ThreadPool pool(4);
    const neat::Executor on_pool = onPool(pool);
    XorWow rng(0xF022);
    int rejected = 0, restored = 0;
    for (int it = 0; it < kIterations; ++it) {
        SCOPED_TRACE("fuzz iteration " + std::to_string(it));
        std::vector<uint8_t> file = pristine;
        const int rounds = rng.uniformInt(1, 3);
        for (int m = 0; m < rounds; ++m)
            mutateSnapshot(file, counts, keys, members, rng);
        resealHeader(file);
        writeBytes(path, file);

        // The genomes decode on the executor: on 4 workers the reader
        // must throw the same error, or read the same snapshot, as on
        // the caller.
        const std::string serial = readOutcome(path, {}, echo);
        const std::string pooled = readOutcome(path, on_pool, echo);
        EXPECT_TRUE(serial == pooled)
            << "caller: " << serial.substr(0, 160)
            << "\n4 workers: " << pooled.substr(0, 160);

        core::System sys(cfg);
        try {
            sys.resumeFrom(path);
        } catch (const persist::SnapshotError &) {
            ++rejected;
            continue;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "not a SnapshotError: " << e.what();
            continue;
        }
        ++restored;
        const neat::NeatConfig &ncfg = sys.neatConfig();
        const neat::Population &pop = sys.population();
        try {
            for (const auto &[gk, g] : pop.genomes())
                g.validate(ncfg);
            for (const auto &[sk, sp] : pop.species().species())
                sp.representative.validate(ncfg);
            // The species partition the genomes: each exactly once.
            std::map<int, int> listed;
            for (const auto &[sk, sp] : pop.species().species()) {
                for (int mk : sp.memberKeys)
                    ++listed[mk];
            }
            EXPECT_EQ(listed.size(), pop.genomes().size());
            for (const auto &[gk, g] : pop.genomes())
                EXPECT_EQ(listed[gk], 1) << "genome " << gk;
            if (pop.hasBest())
                pop.bestGenome().validate(ncfg);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "restored an invalid genome: " << e.what();
        }
    }
    // Both outcomes occur, so the budget is not spent on one of them.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(restored, 0);
    fs::remove_all(dir);
}

TEST(SnapshotRead, FirstFaultInFileOrderOnAnyExecutor)
{
    // Genome 1 has a bad activation id and genome 3 a connection count
    // that overruns the chunk. A serial read meets genome 1 first, so
    // that is the fault reported, however the genomes are decoded;
    // then the faults are repaired one at a time, in file order.
    const fs::path dir = scratchDir("two-faults");
    neat::NeatConfig cfg;
    cfg.populationSize = 6;
    persist::SystemSnapshot snap;
    snap.envName = "CartPole_v0";
    snap.populationSize = cfg.populationSize;
    snap.numInputs = cfg.numInputs;
    snap.numOutputs = cfg.numOutputs;
    snap.population = neat::Population(cfg, 9).capture();
    const std::string path = (dir / "two-faults.gsnap").string();
    persist::writeSnapshotFile(snap, path);
    std::vector<uint8_t> file;
    {
        std::ifstream is(path, std::ios::binary);
        file.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    const std::vector<size_t> at = populationGenomesAt(file);
    ASSERT_EQ(at.size(), 6u);

    // Genome 1's first node record: key at +25, activation id at +45
    // (key 4, deletions 4, has-fitness 1, fitness 8, node count 8,
    // node key 4, bias 8, response 8).
    const uint64_t node_key = getLe(file, at[1] + 25, 4);
    const uint8_t activation = file[at[1] + 45];
    file[at[1] + 45] = 0xee;
    const size_t conns_at = at[3] + 25 + 22 * getLe(file, at[3] + 17, 8);
    putLe(file, conns_at, 8, 1ull << 40);

    exec::ThreadPool pool(4);
    const std::string echo = (dir / "echo.gsnap").string();
    const auto expect_error = [&](const std::string &want) {
        resealHeader(file);
        writeBytes(path, file);
        EXPECT_EQ(readOutcome(path, {}, echo), "error: " + want);
        EXPECT_EQ(readOutcome(path, onPool(pool), echo), "error: " + want);
    };
    const std::string bad_activation = "malformed snapshot: node " +
                                       std::to_string(node_key) +
                                       " has invalid activation id 238";
    expect_error(bad_activation);
    // A second decode fault, in genome 2, is not the first either.
    const uint64_t node_key2 = getLe(file, at[2] + 25, 4);
    const uint8_t aggregation = file[at[2] + 46];
    file[at[2] + 46] = 0xee;
    expect_error(bad_activation);
    file[at[1] + 45] = activation;
    expect_error("malformed snapshot: node " + std::to_string(node_key2) +
                 " has invalid aggregation id 238");
    // With genomes 1 and 2 repaired, genome 3's overrun is the fault.
    file[at[2] + 46] = aggregation;
    expect_error("malformed snapshot: chunk POPL: connection gene count " +
                 std::to_string(1ull << 40) +
                 " exceeds the bytes left in the chunk");
    fs::remove_all(dir);
}

// --- provenance validation ---------------------------------------------------

TEST(SnapshotResume, RejectsMismatchedConfig)
{
    const fs::path dir = scratchDir("provenance");
    core::SystemConfig cfg = smallSystemConfig();
    cfg.checkpointDir = dir.string();
    {
        core::System sys(cfg);
        ASSERT_FALSE(sys.stepGeneration());
    }
    const std::string path =
        (dir / persist::snapshotFileName(1)).string();

    {
        core::SystemConfig other = smallSystemConfig();
        other.seed = cfg.seed + 1;
        core::System sys(other);
        try {
            sys.resumeFrom(path);
            FAIL() << "seed mismatch accepted";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("seed"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        core::SystemConfig other = smallSystemConfig();
        other.envName = "AirRaid-ram-v0";
        core::System sys(other);
        try {
            sys.resumeFrom(path);
            FAIL() << "environment mismatch accepted";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("environment"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        // A resume under the other arithmetic would silently diverge.
        core::SystemConfig other = smallSystemConfig();
        other.numericsTier = nn::NumericsTier::HwFaithful;
        core::System sys(other);
        try {
            sys.resumeFrom(path);
            FAIL() << "numerics tier mismatch accepted";
        } catch (const persist::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("numerics tier"),
                      std::string::npos)
                << e.what();
        }
    }
    fs::remove_all(dir);
}

// --- System-level resume bit-identity ---------------------------------------

TEST(SnapshotResume, ResumedRunMatchesUninterruptedRun)
{
    const fs::path dir = scratchDir("resume");

    // Uninterrupted control: 5 generations straight through.
    core::SystemConfig cfg = smallSystemConfig();
    core::System control(cfg);
    for (int i = 0; i < 5; ++i)
        control.stepGeneration();

    // Interrupted run: 2 generations with checkpointing, then the
    // System is destroyed ("killed") and a fresh one resumes.
    std::vector<core::GenerationReport> reports;
    {
        core::SystemConfig ckpt = cfg;
        ckpt.checkpointDir = dir.string();
        core::System first(ckpt);
        ASSERT_FALSE(first.stepGeneration());
        ASSERT_FALSE(first.stepGeneration());
        reports = first.reports();
    }
    core::SystemConfig rest = cfg;
    rest.maxGenerations = 3; // the remaining horizon
    core::System second(rest);
    second.resumeFrom((dir / persist::snapshotFileName(2)).string());
    for (int i = 0; i < 3; ++i)
        second.stepGeneration();
    reports.insert(reports.end(), second.reports().begin(),
                   second.reports().end());

    ASSERT_EQ(reports.size(), control.reports().size());
    EXPECT_EQ(digestReports(reports), digestReports(control.reports()));

    // Best-genome continuity: the resumed System's best matches the
    // control's down to the last bit.
    ASSERT_TRUE(second.population().hasBest());
    expectGenomesBitIdentical(control.population().bestGenome(),
                              second.population().bestGenome());
    fs::remove_all(dir);
}

TEST(SnapshotResume, CheckpointEveryNWritesOnlyMultiples)
{
    const fs::path dir = scratchDir("everyn");
    core::SystemConfig cfg = smallSystemConfig();
    cfg.checkpointDir = dir.string();
    cfg.checkpointEveryN = 2;
    core::System sys(cfg);
    for (int i = 0; i < 5; ++i)
        sys.stepGeneration();
    EXPECT_FALSE(fs::exists(dir / persist::snapshotFileName(1)));
    EXPECT_TRUE(fs::exists(dir / persist::snapshotFileName(2)));
    EXPECT_FALSE(fs::exists(dir / persist::snapshotFileName(3)));
    EXPECT_TRUE(fs::exists(dir / persist::snapshotFileName(4)));
    fs::remove_all(dir);
}

// --- metrics counter continuity ---------------------------------------------

TEST(MetricsSnapshot, CounterSnapshotRestoreRoundTrip)
{
    obs::MetricsRegistry a;
    a.counter("x.y").add(7);
    a.counter("z").add(40);
    a.counter("z").add(2);
    const auto snap = a.counterSnapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0], (std::pair<std::string, long>{"x.y", 7}));
    EXPECT_EQ(snap[1], (std::pair<std::string, long>{"z", 42}));

    obs::MetricsRegistry b;
    b.counter("z").add(999); // overwritten by restore
    b.restoreCounters(snap);
    EXPECT_EQ(b.counter("x.y").value(), 7);
    EXPECT_EQ(b.counter("z").value(), 42);
    // Restored counters keep counting from the saved totals.
    b.counter("z").add(1);
    EXPECT_EQ(b.counter("z").value(), 43);
}

// --- checkpoint config -------------------------------------------------------

TEST(CheckpointConfig, NonPositiveConfigEveryIsFatal)
{
    // With a directory set, a zero or negative interval would create
    // the directory and then never write a snapshot.
    const fs::path root = scratchDir("every0");
    const fs::path dir = root / "ckpt";
    for (int every : {0, -3}) {
        core::SystemConfig cfg = smallSystemConfig();
        cfg.checkpointDir = dir.string();
        cfg.checkpointEveryN = every;
        EXPECT_THROW(core::System sys(cfg), std::runtime_error)
            << "checkpointEveryN " << every;
    }
    EXPECT_FALSE(fs::exists(dir));
    // Without a directory the interval is unused.
    core::SystemConfig off = smallSystemConfig();
    off.checkpointEveryN = 0;
    EXPECT_NO_THROW(core::System sys(off));
    fs::remove_all(root);
}
