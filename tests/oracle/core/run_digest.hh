/**
 * @file
 * The run digest the golden-digest constants are pinned on: FNV-1a
 * over a run's RunSummary totals and every generation report's
 * algorithm, workload and hardware-cycle fields. test_golden_digests
 * compares it against committed constants; other suites compare two
 * runs' digests to each other.
 */

#ifndef GENESYS_ORACLE_CORE_RUN_DIGEST_HH
#define GENESYS_ORACLE_CORE_RUN_DIGEST_HH

#include <cstdint>
#include <vector>

#include "core/genesys.hh"

namespace genesys::oracle
{

/** FNV-1a 64-bit accumulation over one 64-bit word. */
void fold(uint64_t &h, uint64_t v);

/** fold over a double's bit pattern. */
void fold(uint64_t &h, double v);

/** Digest a run's summary + per-generation reports. */
uint64_t digestFields(const core::RunSummary &s,
                      const std::vector<core::GenerationReport> &reports);

} // namespace genesys::oracle

#endif // GENESYS_ORACLE_CORE_RUN_DIGEST_HH
