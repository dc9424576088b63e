#include "persist/snapshot.hh"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"
#include "neat/activations.hh"
#include "neat/aggregations.hh"

namespace genesys::persist
{

namespace
{

// --- primitives -------------------------------------------------------------

constexpr char kMagic[4] = {'G', 'S', 'N', 'P'};
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

/** The one RNG stream a snapshot currently carries (see RNGS chunk). */
constexpr const char *kEvolutionRngStream = "population.evolution";

/**
 * One digest step: FNV-1a's xor-multiply, then an xorshift that feeds
 * the high half back down. A multiply mod 2^64 only carries a change
 * toward higher bits, so without the shift a change confined to the
 * top bits of words would never reach the low bits of the digest, and
 * two flips of the same top bit would cancel exactly.
 */
constexpr uint64_t
digestStep(uint64_t h, uint64_t v)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    h = (h ^ v) * kPrime;
    return h ^ (h >> 32);
}

/**
 * The payload digest: four lanes, each absorbing every fourth
 * little-endian 64-bit word of the 32-byte blocks, so the four
 * multiply chains run side by side; then the lanes are absorbed in
 * order into a fresh running value, and the tail of fewer than 32
 * bytes is absorbed byte by byte. Every step is a bijection of the
 * running value for a fixed input, and of the input for a fixed
 * running value, so changing any single byte changes the digest.
 */
uint64_t
payloadDigest(const uint8_t *data, size_t n)
{
    static_assert(std::endian::native == std::endian::little,
                  "the digest reads payload words in native order");
    constexpr uint64_t kBasis = 0xcbf29ce484222325ull;
    uint64_t lane[4] = {kBasis, kBasis ^ 1, kBasis ^ 2, kBasis ^ 3};
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        for (size_t k = 0; k < 4; ++k) {
            uint64_t w;
            std::memcpy(&w, data + i + 8 * k, 8);
            lane[k] = digestStep(lane[k], w);
        }
    }
    uint64_t h = kBasis;
    for (size_t k = 0; k < 4; ++k)
        h = digestStep(h, lane[k]);
    for (; i < n; ++i)
        h = digestStep(h, data[i]);
    return h;
}

uint32_t
fourcc(const char (&tag)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(tag[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[3])) << 24;
}

std::string
tagName(uint32_t tag)
{
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        s[static_cast<size_t>(i)] = std::isprint(c) ? c : '?';
    }
    return s;
}

// Chunk tags. Every chunk is always written; the reader requires each
// exactly once.
const uint32_t kChunkConfig = fourcc("CFG0");
const uint32_t kChunkPopulation = fourcc("POPL");
const uint32_t kChunkSpecies = fourcc("SPCS");
const uint32_t kChunkReproduction = fourcc("RPRO");
const uint32_t kChunkRngStreams = fourcc("RNGS");
const uint32_t kChunkBest = fourcc("BEST");
const uint32_t kChunkTraces = fourcc("TRCE");
const uint32_t kChunkMetrics = fourcc("METR");

/** Append-only little-endian byte buffer with chunk framing. */
class ByteWriter
{
  public:
    /** Size the buffer for `bytes` in total (see payloadSizeHint). */
    void reserve(size_t bytes) { buf_.reserve(bytes); }

    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void u32(uint32_t v) { le(v); }
    void u64(uint64_t v) { le(v); }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    /** Doubles as raw IEEE-754 bits — the lossless attribute path. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Open a chunk; returns a token for endChunk. */
    size_t
    beginChunk(uint32_t tag)
    {
        u32(tag);
        const size_t patch_at = buf_.size();
        u64(0); // size, patched by endChunk
        return patch_at;
    }

    /** Close a chunk: patch its declared size to the bytes written. */
    void
    endChunk(size_t patch_at)
    {
        const uint64_t size = buf_.size() - (patch_at + 8);
        for (int i = 0; i < 8; ++i)
            buf_[patch_at + static_cast<size_t>(i)] =
                static_cast<uint8_t>(size >> (8 * i));
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }

  private:
    /** Append `v` little-endian with one resize. */
    template <typename U>
    void
    le(U v)
    {
        const size_t at = buf_.size();
        buf_.resize(at + sizeof(U));
        for (size_t i = 0; i < sizeof(U); ++i)
            buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }

    std::vector<uint8_t> buf_;
};

/** The little-endian `U` at `at`, inside a record already claimed. */
template <typename U>
U
loadLe(const uint8_t *at)
{
    U v;
    std::memcpy(&v, at, sizeof(U));
    return v;
}

/**
 * Bounds-checked little-endian reader over a byte span. Every overrun
 * throws SnapshotError naming the field — a malformed chunk can never
 * read past its declared size.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size, std::string context)
        : data_(data), size_(size), context_(std::move(context))
    {
    }

    uint8_t
    u8(const char *what)
    {
        need(1, what);
        return data_[pos_++];
    }

    uint32_t
    u32(const char *what)
    {
        need(4, what);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64(const char *what)
    {
        need(8, what);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    /**
     * Claim the next `n` bytes as one fixed-size record, bounds-checked
     * once under the record's name; its fields decode from the
     * returned pointer with loadLe.
     */
    const uint8_t *
    record(size_t n, const char *what)
    {
        need(n, what);
        const uint8_t *at = data_ + pos_;
        pos_ += n;
        return at;
    }

    /**
     * Claim the next `n` bytes as a reader of their own, with the same
     * context, so they can be parsed apart from this one.
     */
    ByteReader
    sub(size_t n, const char *what)
    {
        return ByteReader(record(n, what), n, context_);
    }

    /** The bytes not yet read. */
    std::span<const uint8_t>
    rest() const
    {
        return {data_ + pos_, size_ - pos_};
    }

    int32_t i32(const char *what) { return static_cast<int32_t>(u32(what)); }
    int64_t i64(const char *what) { return static_cast<int64_t>(u64(what)); }
    double f64(const char *what) { return std::bit_cast<double>(u64(what)); }

    std::string
    str(const char *what)
    {
        const uint64_t n = u64(what);
        need(n, what);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    /**
     * Validate an element count against the bytes actually left in
     * the chunk (each element needs at least `min_bytes`), so a
     * corrupted count can never drive a huge allocation.
     */
    size_t
    count(const char *what, size_t min_bytes)
    {
        const uint64_t n = u64(what);
        if (min_bytes > 0 && n > remaining() / min_bytes) {
            throw SnapshotError("malformed snapshot: " + context_ +
                                ": " + what + " count " +
                                std::to_string(n) +
                                " exceeds the bytes left in the chunk");
        }
        return static_cast<size_t>(n);
    }

    size_t remaining() const { return size_ - pos_; }

    void
    expectConsumed() const
    {
        if (pos_ != size_) {
            throw SnapshotError(
                "malformed snapshot: " + context_ + " has " +
                std::to_string(size_ - pos_) + " unparsed trailing bytes");
        }
    }

  private:
    void
    need(uint64_t n, const char *what)
    {
        // The SnapshotError below is the user-facing bounds check; the
        // DCHECK guards the reader's own cursor arithmetic (size_ -
        // pos_ underflows if the cursor ever escapes the span).
        GENESYS_DCHECK(pos_ <= size_,
                       "ByteReader cursor " << pos_ << " escaped a "
                                            << size_ << "-byte chunk ("
                                            << context_ << ")");
        if (n > size_ - pos_) {
            throw SnapshotError("malformed snapshot: " + context_ +
                                ": field \"" + what +
                                "\" overruns the chunk");
        }
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    std::string context_;
};

// --- genome / species / trace codecs ---------------------------------------

/** Encoded bytes of one node gene and one connection gene. */
constexpr size_t kNodeGeneBytes = 22;
constexpr size_t kConnGeneBytes = 17;
/** A genome's fields before its genes: key, node deletions, fitness. */
constexpr size_t kGenomeHeadBytes = 4 + 4 + 1 + 8;

/**
 * Fill `genes` with `count` genes, each decoded by `decode(gene)`
 * (which returns its key) straight into its slot. A writer emits
 * keys strictly ascending; a stream that does not is rejected.
 */
template <typename Key, typename Gene, typename Decode>
void
readGenes(neat::FlatGeneMap<Key, Gene> &genes, size_t count, Decode decode)
{
    genes.assignInPlace(
        count, [&](std::span<Key> keys, std::span<Gene> values) {
            for (size_t i = 0; i < count; ++i) {
                keys[i] = decode(values[i]);
                if (i > 0 && !(keys[i - 1] < keys[i]))
                    throw SnapshotError(
                        "malformed snapshot: gene keys not ascending");
            }
        });
}

void
writeGenome(ByteWriter &w, const neat::Genome &g)
{
    w.i32(g.key());
    w.i32(g.nodeDeletions());
    w.u8(g.hasFitness() ? 1 : 0);
    w.f64(g.hasFitness() ? g.fitness() : 0.0);

    w.u64(g.numNodeGenes());
    for (const auto &[nk, ng] : g.nodes()) {
        w.i32(nk);
        w.f64(ng.bias);
        w.f64(ng.response);
        w.u8(static_cast<uint8_t>(ng.activation));
        w.u8(static_cast<uint8_t>(ng.aggregation));
    }
    w.u64(g.numConnectionGenes());
    for (const auto &[ck, cg] : g.connections()) {
        w.i32(ck.first);
        w.i32(ck.second);
        w.f64(cg.weight);
        w.u8(cg.enabled ? 1 : 0);
    }
}

/**
 * Decode the rest of a genome record, after its key, into `g`, which
 * carries that key and no genes. The gene arrays keep whatever
 * capacity `g` already has.
 */
void
readGenomeFields(ByteReader &r, neat::Genome &g)
{
    g.restoreNodeDeletions(r.i32("node deletions"));
    const bool has_fitness = r.u8("has-fitness flag") != 0;
    const double fitness = r.f64("fitness");
    if (has_fitness)
        g.setFitness(fitness);

    // Gene records have a fixed size, so each is bounds-checked once.
    // The counts are checked against the bytes left first, so a gene
    // record never overruns its chunk.
    // Node gene: key 4 + bias 8 + response 8 + activation 1 + aggregation 1.
    const size_t node_count = r.count("node gene", kNodeGeneBytes);
    readGenes(g.mutableNodes(), node_count, [&](neat::NodeGene &ng) {
        const uint8_t *rec = r.record(kNodeGeneBytes, "node gene");
        ng.key = static_cast<int32_t>(loadLe<uint32_t>(rec));
        ng.bias = std::bit_cast<double>(loadLe<uint64_t>(rec + 4));
        ng.response = std::bit_cast<double>(loadLe<uint64_t>(rec + 12));
        const uint8_t act = rec[20];
        const uint8_t agg = rec[21];
        if (act >= static_cast<uint8_t>(neat::Activation::NumActivations))
            throw SnapshotError("malformed snapshot: node " +
                                std::to_string(ng.key) +
                                " has invalid activation id " +
                                std::to_string(act));
        if (agg >= static_cast<uint8_t>(neat::Aggregation::NumAggregations))
            throw SnapshotError("malformed snapshot: node " +
                                std::to_string(ng.key) +
                                " has invalid aggregation id " +
                                std::to_string(agg));
        ng.activation = static_cast<neat::Activation>(act);
        ng.aggregation = static_cast<neat::Aggregation>(agg);
        return ng.key;
    });

    // Connection gene: src 4 + dst 4 + weight 8 + enabled 1.
    const size_t conn_count = r.count("connection gene", kConnGeneBytes);
    auto &conns = g.mutableConnections();
    readGenes(conns, conn_count, [&](neat::ConnectionGene &cg) {
        const uint8_t *rec = r.record(kConnGeneBytes, "connection gene");
        cg.key = {static_cast<int32_t>(loadLe<uint32_t>(rec)),
                  static_cast<int32_t>(loadLe<uint32_t>(rec + 4))};
        cg.weight = std::bit_cast<double>(loadLe<uint64_t>(rec + 8));
        cg.enabled = rec[16] != 0;
        return cg.key;
    });
    g.nodes().dcheckInvariants("persist::readGenome nodes");
    g.connections().dcheckInvariants("persist::readGenome connections");
}

neat::Genome
readGenome(ByteReader &r)
{
    neat::Genome g(r.i32("genome key"));
    readGenomeFields(r, g);
    return g;
}

/** Where a genome record's genes lie, found without decoding them. */
struct GenomeLayout
{
    size_t bytes;
    size_t nodes;
    size_t connections;
};

/**
 * The layout of the genome record at the front of `bytes`, by the
 * bounds checks readGenome makes (the fixed fields, then each gene
 * count against the bytes left after it), or nullopt if one of them
 * fails. Reads only the two counts.
 */
std::optional<GenomeLayout>
genomeLayout(std::span<const uint8_t> bytes)
{
    size_t at = kGenomeHeadBytes;
    size_t counts[2];
    const size_t gene_bytes[2] = {kNodeGeneBytes, kConnGeneBytes};
    for (int k = 0; k < 2; ++k) {
        if (bytes.size() < at || bytes.size() - at < 8)
            return std::nullopt;
        const uint64_t n = loadLe<uint64_t>(bytes.data() + at);
        at += 8;
        if (n > (bytes.size() - at) / gene_bytes[k])
            return std::nullopt;
        counts[k] = static_cast<size_t>(n);
        at += counts[k] * gene_bytes[k];
    }
    return GenomeLayout{at, counts[0], counts[1]};
}

/**
 * The POPL chunk's genomes, decoded on `exec`. A serial walk finds
 * each genome's bytes and sizes its gene arrays, on the thread that
 * keeps the genomes; workers decode the genes into them; a serial
 * pass then takes the genomes in file order. So the first failure
 * thrown is the one a serial read meets first, with the same message.
 */
void
readPopulationGenomes(ByteReader &r, std::map<int, neat::Genome> &genomes,
                      const std::string &path, const neat::Executor &exec)
{
    const size_t n = r.count("genome", 22);
    std::vector<neat::Genome> decoded;
    std::vector<ByteReader> fields;
    while (decoded.size() < n) {
        const std::optional<GenomeLayout> layout = genomeLayout(r.rest());
        if (!layout)
            break;
        neat::Genome &g = decoded.emplace_back(r.i32("genome key"));
        g.mutableNodes().reserve(layout->nodes);
        g.mutableConnections().reserve(layout->connections);
        fields.push_back(r.sub(layout->bytes - 4, "genome"));
    }

    std::vector<std::exception_ptr> failed(decoded.size());
    neat::forEachIndex(exec, decoded.size(), [&](size_t i) {
        // Decode through a copy: the cursor moves on every field, and
        // neighbouring readers in `fields` share cache lines with the
        // genomes other workers are decoding.
        ByteReader fr = fields[i];
        try {
            readGenomeFields(fr, decoded[i]);
        } catch (...) {
            failed[i] = std::current_exception();
        }
    });
    for (size_t i = 0; i < decoded.size(); ++i) {
        if (failed[i])
            std::rethrow_exception(failed[i]);
        const int key = decoded[i].key();
        if (!genomes.emplace(key, std::move(decoded[i])).second) {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": duplicate genome key " +
                                std::to_string(key));
        }
    }
    if (decoded.size() < n) {
        // The walk stopped at a genome that overruns the chunk. Reading
        // it reports the first fault a serial read meets in it.
        (void)readGenome(r);
        panic("genome " + std::to_string(decoded.size()) +
              " read cleanly past the bounds its walk rejected");
    }
}

void
writeSpecies(ByteWriter &w, const neat::Species &sp)
{
    w.i32(sp.key);
    w.i32(sp.lastImprovedGeneration);
    w.f64(sp.bestFitness);
    writeGenome(w, sp.representative);
    w.u64(sp.memberKeys.size());
    for (int mk : sp.memberKeys)
        w.i32(mk);
}

neat::Species
readSpecies(ByteReader &r)
{
    neat::Species sp;
    sp.key = r.i32("species key");
    sp.lastImprovedGeneration = r.i32("species last-improved generation");
    sp.bestFitness = r.f64("species best fitness");
    sp.representative = readGenome(r);
    const size_t members = r.count("species member", 4);
    sp.memberKeys.reserve(members);
    for (size_t i = 0; i < members; ++i)
        sp.memberKeys.push_back(r.i32("species member key"));
    return sp;
}

void
writeTrace(ByteWriter &w, const neat::EvolutionTrace &t)
{
    w.i32(t.generation);
    w.u64(t.children.size());
    for (const neat::ChildRecord &c : t.children) {
        w.i32(c.childKey);
        w.i32(c.parent1Key);
        w.i32(c.parent2Key);
        w.u8(c.isElite ? 1 : 0);
        w.i64(c.ops.crossoverOps);
        w.i64(c.ops.cloneOps);
        w.i64(c.ops.perturbOps);
        w.i64(c.ops.addOps);
        w.i64(c.ops.deleteOps);
        w.u64(c.parent1Genes);
        w.u64(c.parent2Genes);
        w.u64(c.alignedStreamLen);
        w.u64(c.childNodeGenes);
        w.u64(c.childConnGenes);
    }
}

neat::EvolutionTrace
readTrace(ByteReader &r)
{
    neat::EvolutionTrace t;
    t.generation = r.i32("trace generation");
    // Child record: 3 keys + flag + 5 op counters + 5 size fields.
    const size_t children = r.count("trace child record", 93);
    t.children.reserve(children);
    for (size_t i = 0; i < children; ++i) {
        neat::ChildRecord c;
        c.childKey = r.i32("child key");
        c.parent1Key = r.i32("parent1 key");
        c.parent2Key = r.i32("parent2 key");
        c.isElite = r.u8("is-elite flag") != 0;
        c.ops.crossoverOps = r.i64("crossover ops");
        c.ops.cloneOps = r.i64("clone ops");
        c.ops.perturbOps = r.i64("perturb ops");
        c.ops.addOps = r.i64("add ops");
        c.ops.deleteOps = r.i64("delete ops");
        c.parent1Genes = static_cast<size_t>(r.u64("parent1 genes"));
        c.parent2Genes = static_cast<size_t>(r.u64("parent2 genes"));
        c.alignedStreamLen =
            static_cast<size_t>(r.u64("aligned stream length"));
        c.childNodeGenes = static_cast<size_t>(r.u64("child node genes"));
        c.childConnGenes = static_cast<size_t>(r.u64("child conn genes"));
        t.children.push_back(c);
    }
    return t;
}

void
writeRngState(ByteWriter &w, const XorWowState &s)
{
    for (uint32_t word : s.state)
        w.u32(word);
    w.u32(s.weyl);
    w.u8(s.hasCachedGaussian ? 1 : 0);
    w.f64(s.cachedGaussian);
}

XorWowState
readRngState(ByteReader &r)
{
    XorWowState s;
    for (uint32_t &word : s.state)
        word = r.u32("rng state word");
    s.weyl = r.u32("rng weyl counter");
    s.hasCachedGaussian = r.u8("rng cached-gaussian flag") != 0;
    s.cachedGaussian = r.f64("rng cached gaussian");
    return s;
}

/** Encoded size of one genome: fixed fields plus its genes. */
size_t
genomeBytes(const neat::Genome &g)
{
    // The fixed fields, then two gene counts.
    return kGenomeHeadBytes + 8 + 8 + kNodeGeneBytes * g.numNodeGenes() +
           kConnGeneBytes * g.numConnectionGenes();
}

/**
 * Payload bytes writeSnapshotFile will emit for `snap`, so the writer
 * reserves once instead of doubling its way up to a multi-megabyte
 * buffer. Mirrors the write* codecs; if the two ever disagree the
 * buffer simply grows, the bytes do not change.
 */
size_t
payloadSizeHint(const SystemSnapshot &snap)
{
    constexpr size_t kChunkFrame = 4 + 8;
    size_t n = 8 * kChunkFrame;
    n += 8 + snap.envName.size() + 8 + 3 * 4 + 1 + 1; // CFG0
    n += 4 + 8;                                       // POPL header
    for (const auto &[gk, g] : snap.population.genomes)
        n += genomeBytes(g);
    n += 4 + 8; // SPCS header
    for (const auto &[sk, sp] : snap.population.species) {
        n += 2 * 4 + 8 + genomeBytes(sp.representative) + 8 +
             4 * sp.memberKeys.size();
    }
    n += 4 + 4;                                                // RPRO
    n += 4 + 8 + std::strlen(kEvolutionRngStream) + 6 * 4 + 1 + 8; // RNGS
    n += 1 + (snap.population.hasBest
                  ? genomeBytes(snap.population.bestGenome)
                  : 0); // BEST
    n += 4;             // TRCE header
    for (const neat::EvolutionTrace &t : snap.population.traces)
        n += 4 + 8 + 93 * t.children.size();
    n += 8; // METR header
    for (const auto &[name, value] : snap.counters)
        n += 8 + name.size() + 8;
    return n;
}

} // namespace

// --- public API -------------------------------------------------------------

std::vector<uint8_t>
encodeGenomeLossless(const neat::Genome &g)
{
    ByteWriter w;
    writeGenome(w, g);
    return w.bytes();
}

neat::Genome
decodeGenomeLossless(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes.data(), bytes.size(), "genome");
    neat::Genome g = readGenome(r);
    r.expectConsumed();
    return g;
}

std::string
snapshotFileName(int generation)
{
    std::ostringstream oss;
    oss << "snapshot-gen-" << std::setw(6) << std::setfill('0')
        << generation << ".gsnap";
    return oss.str();
}

void
writeSnapshotFile(const SystemSnapshot &snap, const std::string &path)
{
    ByteWriter w;
    w.reserve(payloadSizeHint(snap));

    size_t c = w.beginChunk(kChunkConfig);
    w.str(snap.envName);
    w.u64(snap.seed);
    w.i32(snap.populationSize);
    w.i32(snap.numInputs);
    w.i32(snap.numOutputs);
    w.u8(snap.feedForward ? 1 : 0);
    w.u8(static_cast<uint8_t>(snap.numericsTier));
    w.endChunk(c);

    c = w.beginChunk(kChunkPopulation);
    w.i32(snap.population.generation);
    w.u64(snap.population.genomes.size());
    for (const auto &[gk, g] : snap.population.genomes) {
        GENESYS_ASSERT(gk == g.key(), "population map key "
                                          << gk << " != genome key "
                                          << g.key());
        writeGenome(w, g);
    }
    w.endChunk(c);

    c = w.beginChunk(kChunkSpecies);
    w.i32(snap.population.nextSpeciesKey);
    w.u64(snap.population.species.size());
    for (const auto &[sk, sp] : snap.population.species)
        writeSpecies(w, sp);
    w.endChunk(c);

    c = w.beginChunk(kChunkReproduction);
    w.i32(snap.population.nextGenomeKey);
    w.i32(snap.population.nextNodeKey);
    w.endChunk(c);

    c = w.beginChunk(kChunkRngStreams);
    w.u32(1);
    w.str(kEvolutionRngStream);
    writeRngState(w, snap.population.rngState);
    w.endChunk(c);

    c = w.beginChunk(kChunkBest);
    w.u8(snap.population.hasBest ? 1 : 0);
    if (snap.population.hasBest)
        writeGenome(w, snap.population.bestGenome);
    w.endChunk(c);

    c = w.beginChunk(kChunkTraces);
    w.u32(static_cast<uint32_t>(snap.population.traces.size()));
    for (const neat::EvolutionTrace &t : snap.population.traces)
        writeTrace(w, t);
    w.endChunk(c);

    c = w.beginChunk(kChunkMetrics);
    w.u64(snap.counters.size());
    for (const auto &[name, value] : snap.counters) {
        w.str(name);
        w.i64(value);
    }
    w.endChunk(c);

    const std::vector<uint8_t> &payload = w.bytes();

    // Header + payload into a temporary sibling, then an atomic
    // rename: a process that dies mid-write never leaves a truncated
    // file under the final name (and loads of an in-progress save see
    // the previous complete snapshot). No fsync, so this does not hold
    // across a power loss or kernel crash.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw SnapshotError("cannot open \"" + tmp +
                                "\" for writing");
        os.write(kMagic, 4);
        uint8_t header[4 + 8 + 8];
        const uint32_t version = kSnapshotVersion;
        const uint64_t size = payload.size();
        const uint64_t digest = payloadDigest(payload.data(), payload.size());
        for (int i = 0; i < 4; ++i)
            header[i] = static_cast<uint8_t>(version >> (8 * i));
        for (int i = 0; i < 8; ++i)
            header[4 + i] = static_cast<uint8_t>(size >> (8 * i));
        for (int i = 0; i < 8; ++i)
            header[12 + i] = static_cast<uint8_t>(digest >> (8 * i));
        os.write(reinterpret_cast<const char *>(header), sizeof(header));
        os.write(reinterpret_cast<const char *>(payload.data()),
                 static_cast<std::streamsize>(payload.size()));
        os.flush();
        if (!os)
            throw SnapshotError("failed writing snapshot to \"" + tmp +
                                "\"");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw SnapshotError("cannot rename \"" + tmp + "\" to \"" +
                            path + "\": " + ec.message());
    }
}

SystemSnapshot
readSnapshotFile(const std::string &path, const neat::Executor &exec)
{
    // Size the path before allocating anything: a directory or a
    // device has no meaningful size to read into.
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (st.type() == fs::file_type::not_found) {
        throw SnapshotError("cannot open snapshot file \"" + path +
                            "\": no such file");
    }
    if (ec) {
        throw SnapshotError("cannot open snapshot file \"" + path +
                            "\": " + ec.message());
    }
    if (!fs::is_regular_file(st)) {
        throw SnapshotError("cannot open snapshot file \"" + path +
                            "\": not a regular file");
    }
    const std::uintmax_t size = fs::file_size(path, ec);
    if (ec) {
        throw SnapshotError("cannot size snapshot file \"" + path +
                            "\": " + ec.message());
    }
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SnapshotError("cannot open snapshot file \"" + path + "\"");
    return readSnapshot(is, size, path, exec);
}

SystemSnapshot
readSnapshot(std::istream &in, std::uintmax_t size, const std::string &path,
             const neat::Executor &exec)
{
    // Left uninitialised: read() fills every byte, or the short-read
    // check below throws before any is looked at.
    const auto storage =
        std::make_unique_for_overwrite<uint8_t[]>(static_cast<size_t>(size));
    const std::span<const uint8_t> file(storage.get(),
                                        static_cast<size_t>(size));
    in.read(reinterpret_cast<char *>(storage.get()),
            static_cast<std::streamsize>(file.size()));
    if (static_cast<std::uintmax_t>(in.gcount()) != size) {
        throw SnapshotError("short read of snapshot \"" + path + "\": " +
                            std::to_string(in.gcount()) + " of " +
                            std::to_string(size) + " bytes");
    }

    if (file.size() < kHeaderBytes) {
        throw SnapshotError(
            "truncated snapshot \"" + path + "\": " +
            std::to_string(file.size()) +
            " bytes is smaller than the " +
            std::to_string(kHeaderBytes) + "-byte header");
    }
    if (std::memcmp(file.data(), kMagic, 4) != 0) {
        throw SnapshotError("\"" + path +
                            "\" is not a GeneSys snapshot (bad magic)");
    }
    uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= static_cast<uint32_t>(file[4 + static_cast<size_t>(i)])
                   << (8 * i);
    if (version != kSnapshotVersion) {
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " in \"" + path + "\" (this build reads version " +
            std::to_string(kSnapshotVersion) + ")");
    }
    uint64_t declared = 0, digest = 0;
    for (int i = 0; i < 8; ++i)
        declared |= static_cast<uint64_t>(file[8 + static_cast<size_t>(i)])
                    << (8 * i);
    for (int i = 0; i < 8; ++i)
        digest |= static_cast<uint64_t>(file[16 + static_cast<size_t>(i)])
                  << (8 * i);
    const size_t actual = file.size() - kHeaderBytes;
    if (declared != actual) {
        throw SnapshotError(
            "truncated snapshot \"" + path + "\": header declares " +
            std::to_string(declared) + " payload bytes, file holds " +
            std::to_string(actual));
    }
    const uint8_t *payload = file.data() + kHeaderBytes;
    const uint64_t computed = payloadDigest(payload, actual);
    if (computed != digest) {
        std::ostringstream oss;
        oss << "corrupted snapshot \"" << path
            << "\": payload digest mismatch (header 0x" << std::hex
            << digest << ", computed 0x" << computed << ")";
        throw SnapshotError(oss.str());
    }

    // Payload validated end to end; now walk the chunks. Each chunk
    // parses through a bounds-limited sub-reader and must consume its
    // declared size exactly.
    SystemSnapshot snap;
    ByteReader top(payload, actual, "chunk table");
    bool seen_config = false, seen_population = false,
         seen_species = false, seen_reproduction = false,
         seen_rng = false, seen_best = false, seen_traces = false,
         seen_metrics = false;

    while (top.remaining() > 0) {
        const uint32_t tag = top.u32("chunk tag");
        const uint64_t size = top.u64("chunk size");
        if (size > top.remaining()) {
            throw SnapshotError(
                "malformed snapshot \"" + path + "\": chunk " +
                tagName(tag) + " declares " + std::to_string(size) +
                " bytes but only " + std::to_string(top.remaining()) +
                " remain");
        }
        const uint8_t *chunk = payload + (actual - top.remaining());
        ByteReader r(chunk, static_cast<size_t>(size),
                     "chunk " + tagName(tag));
        // Advance the outer cursor past the chunk body.
        top = ByteReader(chunk + size,
                         top.remaining() - static_cast<size_t>(size),
                         "chunk table");

        auto mark_once = [&](bool &seen) {
            if (seen) {
                throw SnapshotError("malformed snapshot \"" + path +
                                    "\": duplicate chunk " +
                                    tagName(tag));
            }
            seen = true;
        };

        if (tag == kChunkConfig) {
            mark_once(seen_config);
            snap.envName = r.str("environment name");
            snap.seed = r.u64("run seed");
            snap.populationSize = r.i32("population size");
            snap.numInputs = r.i32("input count");
            snap.numOutputs = r.i32("output count");
            snap.feedForward = r.u8("feed-forward flag") != 0;
            const uint8_t tier = r.u8("numerics tier");
            if (tier > static_cast<uint8_t>(
                           nn::NumericsTier::HwFaithful)) {
                throw SnapshotError(
                    "malformed snapshot \"" + path +
                    "\": numerics tier byte " + std::to_string(tier) +
                    " out of range");
            }
            snap.numericsTier = static_cast<nn::NumericsTier>(tier);
        } else if (tag == kChunkPopulation) {
            mark_once(seen_population);
            snap.population.generation = r.i32("generation counter");
            readPopulationGenomes(r, snap.population.genomes, path, exec);
        } else if (tag == kChunkSpecies) {
            mark_once(seen_species);
            snap.population.nextSpeciesKey = r.i32("next species key");
            const size_t n = r.count("species", 16);
            for (size_t i = 0; i < n; ++i) {
                neat::Species sp = readSpecies(r);
                const int key = sp.key;
                if (!snap.population.species.emplace(key, std::move(sp))
                         .second) {
                    throw SnapshotError(
                        "malformed snapshot \"" + path +
                        "\": duplicate species key " +
                        std::to_string(key));
                }
            }
        } else if (tag == kChunkReproduction) {
            mark_once(seen_reproduction);
            snap.population.nextGenomeKey = r.i32("next genome key");
            snap.population.nextNodeKey = r.i32("next node key");
        } else if (tag == kChunkRngStreams) {
            mark_once(seen_rng);
            const uint32_t n = r.u32("rng stream count");
            bool found = false;
            for (uint32_t i = 0; i < n; ++i) {
                const std::string name = r.str("rng stream name");
                const XorWowState s = readRngState(r);
                if (name == kEvolutionRngStream) {
                    snap.population.rngState = s;
                    found = true;
                } else {
                    throw SnapshotError("malformed snapshot \"" + path +
                                        "\": unknown RNG stream \"" +
                                        name + "\"");
                }
            }
            if (!found) {
                throw SnapshotError("malformed snapshot \"" + path +
                                    "\": missing RNG stream \"" +
                                    std::string(kEvolutionRngStream) +
                                    "\"");
            }
        } else if (tag == kChunkBest) {
            mark_once(seen_best);
            snap.population.hasBest = r.u8("has-best flag") != 0;
            if (snap.population.hasBest)
                snap.population.bestGenome = readGenome(r);
        } else if (tag == kChunkTraces) {
            mark_once(seen_traces);
            const uint32_t n = r.u32("trace count");
            for (uint32_t i = 0; i < n; ++i)
                snap.population.traces.push_back(readTrace(r));
        } else if (tag == kChunkMetrics) {
            mark_once(seen_metrics);
            const size_t n = r.count("metrics counter", 16);
            for (size_t i = 0; i < n; ++i) {
                const std::string name = r.str("counter name");
                const long value = static_cast<long>(r.i64("counter value"));
                snap.counters.emplace_back(name, value);
            }
        } else {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": unknown chunk " + tagName(tag));
        }
        r.expectConsumed();
    }

    const struct { bool seen; const char *name; } required[] = {
        {seen_config, "CFG0"},       {seen_population, "POPL"},
        {seen_species, "SPCS"},      {seen_reproduction, "RPRO"},
        {seen_rng, "RNGS"},          {seen_best, "BEST"},
        {seen_traces, "TRCE"},       {seen_metrics, "METR"},
    };
    for (const auto &req : required) {
        if (!req.seen) {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": missing chunk " +
                                std::string(req.name));
        }
    }

    // Cross-chunk sanity: the species must partition the population,
    // as every speciation leaves them: each species keyed below the
    // next species key and non-empty, each member a genome the
    // population chunk holds, each genome in exactly one species.
    // Reproduction breeds from this partition, so a genome listed
    // twice would breed twice and one listed nowhere never.
    const auto &genomes = snap.population.genomes;
    std::map<int, int> homeOf; // genome key -> species key
    for (const auto &[sk, sp] : snap.population.species) {
        if (sk >= snap.population.nextSpeciesKey) {
            throw SnapshotError(
                "malformed snapshot \"" + path + "\": species key " +
                std::to_string(sk) + " is not below the next species key " +
                std::to_string(snap.population.nextSpeciesKey));
        }
        if (sp.memberKeys.empty()) {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": species " + std::to_string(sk) +
                                " has no members");
        }
        for (int mk : sp.memberKeys) {
            if (genomes.find(mk) == genomes.end()) {
                throw SnapshotError(
                    "malformed snapshot \"" + path + "\": species " +
                    std::to_string(sk) + " references genome " +
                    std::to_string(mk) + " absent from the population");
            }
            const auto [home, fresh] = homeOf.emplace(mk, sk);
            if (!fresh) {
                throw SnapshotError(
                    "malformed snapshot \"" + path + "\": genome " +
                    std::to_string(mk) + " is a member of species " +
                    std::to_string(home->second) + " and again of species " +
                    std::to_string(sk));
            }
        }
    }
    for (const auto &[gk, g] : genomes) {
        if (homeOf.find(gk) == homeOf.end()) {
            throw SnapshotError("malformed snapshot \"" + path +
                                "\": genome " + std::to_string(gk) +
                                " belongs to no species");
        }
    }
    if (snap.population.genomes.empty()) {
        throw SnapshotError("malformed snapshot \"" + path +
                            "\": empty population");
    }
    return snap;
}

} // namespace genesys::persist
