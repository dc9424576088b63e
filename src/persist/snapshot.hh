/**
 * @file
 * Versioned, chunked evolution-state snapshots — checkpoint/resume
 * for long-lived runs (ROADMAP item 4; the paper's analog is the
 * Genome Buffer staying resident across generations).
 *
 * File layout (little-endian, the only platform we build for):
 *
 *     [0..3]   magic "GSNP"
 *     [4..7]   u32 format version (kSnapshotVersion)
 *     [8..15]  u64 payload size in bytes
 *     [16..23] u64 FNV-1a digest of the payload
 *     [24.. ]  payload: a sequence of chunks
 *
 * Each chunk is `u32 tag | u64 size | size bytes`. Loads validate the
 * magic, the version, the declared payload size against the actual
 * file size, the payload digest, and every chunk's declared size
 * against what its parser consumes — each failure raises a
 * SnapshotError with a distinct, descriptive message and leaves the
 * caller's state untouched (the whole file is parsed into a
 * SystemSnapshot before anything is applied). The chunked,
 * size/integrity-validated IO idiom follows the loopycart exemplar's
 * sramSaveFile/sramLoadFile (see PAPERS.md).
 *
 * Genome attributes are stored as full-precision IEEE-754 doubles
 * (bit_cast to u64) — the *lossless* snapshot codec. This is NOT the
 * hw::GeneCodec 64-bit format: that one quantizes attributes to Q6.10
 * and is the hardware/migration wire format only; round-tripping a
 * population through it would silently diverge from the golden
 * digests (see tests/test_gene_encoding.cc for the pinned error).
 *
 * Versioning policy: the format version bumps on ANY layout change —
 * there is no in-place migration; a snapshot is readable only by
 * builds with the same version. Snapshots are short-lived operational
 * artifacts (crash recovery, run migration, warm starts), not
 * archives.
 */

#ifndef GENESYS_PERSIST_SNAPSHOT_HH
#define GENESYS_PERSIST_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "neat/population.hh"
#include "nn/numerics.hh"

namespace genesys::persist
{

/**
 * Raised on any snapshot validation or IO failure. Deliberately an
 * exception (not fatal()) so a server loop can catch it, keep its
 * running state, and try an older snapshot.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Current snapshot format version (see versioning policy above). */
constexpr uint32_t kSnapshotVersion = 2;

/**
 * Everything a resumed run needs to continue bit-identically from
 * the generation barrier, in domain types. `population` carries the
 * unevaluated generation, species/stagnation state, the reproduction
 * indexers and the evolution RNG stream (incl. the Box-Muller cache);
 * the remaining fields are run provenance (validated against the
 * resuming System's config) and observability continuity.
 */
struct SystemSnapshot
{
    // --- provenance / compatibility ---------------------------------
    std::string envName;
    uint64_t seed = 0;
    int populationSize = 0;
    int numInputs = 0;
    int numOutputs = 0;
    bool feedForward = true;
    /**
     * Numerics tier the run evaluated under. Tiers are numerically
     * distinct lowerings, so a resumed run must re-select the same
     * one for the continuation to be bit-identical — System::
     * resumeFrom validates this like the other provenance fields.
     */
    nn::NumericsTier numericsTier = nn::NumericsTier::Reference;

    // --- evolution state --------------------------------------------
    neat::PopulationSnapshot population;

    // --- observability continuity -----------------------------------
    /** Cumulative MetricsRegistry counters at the checkpoint. */
    std::vector<std::pair<std::string, long>> counters;
};

/**
 * Serialize `snap` to `path`. The file is written to a temporary
 * sibling and renamed into place, so a crash mid-write never leaves a
 * half-written snapshot under the final name. Throws SnapshotError on
 * IO failure.
 */
void writeSnapshotFile(const SystemSnapshot &snap,
                       const std::string &path);

/**
 * Parse and fully validate the snapshot at `path`. Throws
 * SnapshotError (with a distinct message per failure mode: missing
 * file, truncation, bad magic, unsupported version, digest mismatch,
 * malformed chunk) without side effects.
 */
SystemSnapshot readSnapshotFile(const std::string &path);

/** Canonical file name for a checkpoint of generation `generation`. */
std::string snapshotFileName(int generation);

/**
 * Apply the GENESYS_CHECKPOINT_DIR / GENESYS_CHECKPOINT_EVERY
 * environment variables on top of the config fields (the
 * applyNumericsFromEnv idiom): a set, non-empty GENESYS_CHECKPOINT_DIR
 * replaces `dir`; GENESYS_CHECKPOINT_EVERY must parse as a positive
 * integer and replaces `every_n`. Unset/empty leaves the fields
 * untouched; garbage is a fatal configuration error.
 */
void applyCheckpointFromEnv(std::string &dir, int &every_n);

/**
 * Lossless single-genome snapshot codec: key, fitness, deletion
 * counter and every gene with full-precision double attributes. The
 * building block the population chunk uses, exposed for tests — the
 * bit-exact counterpart of the lossy hw::GeneCodec.
 */
std::vector<uint8_t> encodeGenomeLossless(const neat::Genome &g);

/** Inverse of encodeGenomeLossless. Throws SnapshotError on bad bytes. */
neat::Genome decodeGenomeLossless(const std::vector<uint8_t> &bytes);

} // namespace genesys::persist

#endif // GENESYS_PERSIST_SNAPSHOT_HH
