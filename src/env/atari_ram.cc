#include "env/atari_ram.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hh"
#include "common/logging.hh"

namespace genesys::env
{

namespace
{

/**
 * Observation scale: entry b holds b / 255.0. Constant evaluation
 * rounds the division exactly as the runtime division does, so the
 * lookup is bit-identical to dividing each byte.
 */
constexpr std::array<double, 256> kByteToUnit = [] {
    std::array<double, 256> t{};
    for (size_t b = 0; b < t.size(); ++b)
        t[b] = static_cast<double>(b) / 255.0;
    return t;
}();

/** Multiplier of the FNV-style chain over RAM bytes 0..63. */
constexpr uint64_t kRamHashPrime = 0x100000001B3ULL;

/**
 * kRamHashPow[i] = P^(63 - i) mod 2^64 and kRamHashPow[64] = P^64, so
 * the chain h = h * P + ram[i] over i = 0..63 equals
 * h * P^64 + sum(ram[i] * P^(63 - i)): 64 independent products
 * instead of 64 dependent multiplies, with identical bytes.
 */
constexpr std::array<uint64_t, 65> kRamHashPow = [] {
    std::array<uint64_t, 65> t{};
    uint64_t p = 1;
    for (size_t i = 64; i-- > 0;) {
        t[i] = p;
        p *= kRamHashPrime;
    }
    t[64] = p;
    return t;
}();

/** One round of the finalizer chain that derives RAM bytes 64..127. */
constexpr uint64_t
mixRound(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 29;
    return h;
}

/** Store the observation value of derived RAM byte i, taken from
 *  chain state h. */
inline void
storeDerived(std::span<double> obs, size_t i, uint64_t h)
{
    obs[i] = kByteToUnit[static_cast<uint8_t>(h >> ((i % 8) * 8))];
}

/** Derive RAM bytes 64..127 into `obs` from chain seed `h`. */
void
deriveRam(uint64_t h, std::span<double> obs)
{
    // Derived bytes 64..127: deterministic mixes of the live state,
    // mimicking the redundant/encoded bytes of real 2600 RAM. The
    // network has to discover which bytes carry signal.
    for (size_t i = 64; i < 128; ++i) {
        h = mixRound(h);
        storeDerived(obs, i, h);
    }
}

/** deriveRam() on two games at once, their chains interleaved. */
void
deriveRamPair(uint64_t ha, std::span<double> obsA, uint64_t hb,
              std::span<double> obsB)
{
    // Each round of one chain depends on the previous round, so one
    // chain alone leaves the multiplier idle between rounds; two
    // independent chains fill those gaps, and the observation stores
    // ride along in the slack.
    for (size_t i = 64; i < 128; ++i) {
        ha = mixRound(ha);
        hb = mixRound(hb);
        storeDerived(obsA, i, ha);
        storeDerived(obsB, i, hb);
    }
}

} // namespace

const std::string &
atariVariantName(AtariVariant v)
{
    static const std::string names[] = {
        "AirRaid-ram-v0",
        "Alien-ram-v0",
        "Amidar-ram-v0",
        "Asterix-ram-v0",
    };
    return names[static_cast<size_t>(v)];
}

AtariRam::AtariRam(AtariVariant variant) : variant_(variant) {}

const std::string &
AtariRam::name() const
{
    return atariVariantName(variant_);
}

ActionSpace
AtariRam::actionSpace() const
{
    // Matches the gym action-set sizes of the four games.
    int n = 6;
    switch (variant_) {
      case AtariVariant::AirRaid: n = 6; break;
      case AtariVariant::Alien: n = 18; break;
      case AtariVariant::Amidar: n = 10; break;
      case AtariVariant::Asterix: n = 9; break;
    }
    return {ActionSpace::Kind::Discrete, n, 0.0, 0.0};
}

double
AtariRam::targetScore() const
{
    switch (variant_) {
      case AtariVariant::AirRaid: return 160.0;
      case AtariVariant::Alien: return 120.0;
      case AtariVariant::Amidar: return 120.0;
      case AtariVariant::Asterix: return 140.0;
    }
    return 120.0;
}

void
AtariRam::resetInto(uint64_t seed, std::span<double> obs)
{
    checkObservationSpan(obs);
    // Per-variant stream so each game plays out differently even
    // with the same seed.
    gameRng_.reseed(deriveSeed(seed, static_cast<uint64_t>(variant_) + 7));

    px_ = gridW / 2;
    py_ = variant_ == AtariVariant::AirRaid ? gridH - 1 : gridH / 2;
    for (int e = 0; e < numEnemies; ++e) {
        ex_[e] = static_cast<int>(gameRng_.uniformInt(gridW));
        ey_[e] = variant_ == AtariVariant::AirRaid
                     ? static_cast<int>(gameRng_.uniformInt(4))
                     : static_cast<int>(gameRng_.uniformInt(gridH));
        enemyPhase_[e] = static_cast<int>(gameRng_.uniformInt(8));
        enemyAlive_[e] = true;
        // Don't spawn on the player.
        if (ex_[e] == px_ && ey_[e] == py_)
            ex_[e] = (ex_[e] + 3) % gridW;
    }
    for (int p = 0; p < numPellets; ++p) {
        pelletX_[p] = static_cast<int>(gameRng_.uniformInt(gridW));
        pelletY_[p] = static_cast<int>(gameRng_.uniformInt(gridH));
        pelletAlive_[p] = true;
    }
    score_ = 0;
    lives_ = 1;
    dead_ = false;
    done_ = false;
    fireCooldown_ = 0;
    resetBookkeeping();
    deriveRam(writeRamLow(obs), obs);
}

void
AtariRam::moveEnemies()
{
    for (int e = 0; e < numEnemies; ++e) {
        if (!enemyAlive_[e])
            continue;
        enemyPhase_[e] = (enemyPhase_[e] + 1) & 7;
        switch (variant_) {
          case AtariVariant::AirRaid:
            // Bombers sweep down their column.
            if (enemyPhase_[e] % 2 == 0)
                ++ey_[e];
            if (ey_[e] >= gridH) {
                ey_[e] = 0;
                ex_[e] = static_cast<int>(gameRng_.uniformInt(gridW));
            }
            break;
          case AtariVariant::Alien:
            // Chase the player (with occasional wobble).
            if (gameRng_.bernoulli(0.75)) {
                if (ex_[e] < px_) ++ex_[e];
                else if (ex_[e] > px_) --ex_[e];
                if (ey_[e] < py_) ++ey_[e];
                else if (ey_[e] > py_) --ey_[e];
            } else {
                ex_[e] += gameRng_.uniformInt(-1, 1);
                ey_[e] += gameRng_.uniformInt(-1, 1);
            }
            break;
          case AtariVariant::Amidar:
            // Patrol the grid lines: walk rows, drop at phase points.
            ex_[e] += (enemyPhase_[e] < 4) ? 1 : -1;
            if (ex_[e] < 0 || ex_[e] >= gridW) {
                ex_[e] = std::clamp(ex_[e], 0, gridW - 1);
                ey_[e] = (ey_[e] + 2) % gridH;
            }
            break;
          case AtariVariant::Asterix:
            // Lane hazards scroll horizontally, direction by row.
            ex_[e] += (ey_[e] % 2 == 0) ? 1 : -1;
            if (ex_[e] < 0) ex_[e] = gridW - 1;
            if (ex_[e] >= gridW) ex_[e] = 0;
            break;
        }
        ex_[e] = std::clamp(ex_[e], 0, gridW - 1);
        ey_[e] = std::clamp(ey_[e], 0, gridH - 1);
    }
}

StepOutcome
AtariRam::stepInto(const Action &action, std::span<double> obs)
{
    StepOutcome out;
    deriveRam(advance(action, obs, out), obs);
    return out;
}

void
AtariRam::stepLanes(std::span<Environment *const> lanes,
                    std::span<const Action> actions,
                    std::span<std::vector<double>> obs,
                    std::span<const uint8_t> live,
                    std::span<StepOutcome> out)
{
    checkLaneBatch(lanes, actions, obs, live, out);
    for (size_t l = 0; l < lanes.size(); ++l) {
        GENESYS_DCHECK(dynamic_cast<AtariRam *>(lanes[l]) != nullptr,
                       "stepLanes lane " << l << " is "
                                         << lanes[l]->name()
                                         << ", not an AtariRam");
    }
    // Live lanes pair up in lane order. The first of a pair holds its
    // chain seed until the second has advanced; then both chains run
    // interleaved. An odd lane out runs alone.
    bool pending = false;
    size_t first_lane = 0;
    uint64_t first_seed = 0;
    for (size_t l = 0; l < lanes.size(); ++l) {
        if (!live[l])
            continue;
        auto &env = static_cast<AtariRam &>(*lanes[l]);
        const uint64_t seed = env.advance(actions[l], obs[l], out[l]);
        if (!pending) {
            pending = true;
            first_lane = l;
            first_seed = seed;
            continue;
        }
        deriveRamPair(first_seed, obs[first_lane], seed, obs[l]);
        pending = false;
    }
    if (pending)
        deriveRam(first_seed, obs[first_lane]);
}

uint64_t
AtariRam::advance(const Action &action, std::span<double> obs,
                  StepOutcome &out)
{
    GENESYS_ASSERT(!done_, "step() after episode end");
    checkObservationSpan(obs);
    const int n_actions = actionSpace().n;
    GENESYS_ASSERT(action.discrete >= 0 && action.discrete < n_actions,
                   "invalid action " << action.discrete);

    double reward = 0.0;

    // Action decoding: 0 noop, 1 up, 2 right, 3 left, 4 down,
    // 5 fire, >5 diagonal/fire-move combos (Alien's 18-action set).
    int dx = 0, dy = 0;
    bool fire = false;
    const int a = action.discrete;
    switch (a % 6) {
      case 0: break;
      case 1: dy = -1; break;
      case 2: dx = 1; break;
      case 3: dx = -1; break;
      case 4: dy = 1; break;
      case 5: fire = true; break;
    }
    if (a >= 6) { // combos add a diagonal component and/or fire
        if (a % 2 == 0)
            dx = (a % 4 == 0) ? 1 : -1;
        else
            fire = true;
        dy = (a >= 12) ? 1 : -1;
    }

    px_ = std::clamp(px_ + dx, 0, gridW - 1);
    py_ = std::clamp(py_ + dy, 0, gridH - 1);

    // Fire: destroy the nearest enemy in the player's column
    // (AirRaid-style) / adjacent (others). Shots cost points, so
    // blind rapid fire loses score — aiming has to be learned.
    if (fire && fireCooldown_ == 0) {
        fireCooldown_ = 4;
        bool any_hit = false;
        for (int e = 0; e < numEnemies; ++e) {
            if (!enemyAlive_[e])
                continue;
            const bool hit =
                variant_ == AtariVariant::AirRaid
                    ? ex_[e] == px_ && ey_[e] < py_
                    : std::abs(ex_[e] - px_) + std::abs(ey_[e] - py_) <= 2;
            if (hit) {
                enemyAlive_[e] = false;
                score_ += 10;
                reward += 10.0;
                any_hit = true;
                break;
            }
        }
        if (!any_hit) {
            score_ = std::max(0L, score_ - 3);
            reward -= 3.0;
        }
    }
    if (fireCooldown_ > 0)
        --fireCooldown_;

    moveEnemies();

    // Respawn destroyed enemies after a delay encoded in their phase.
    for (int e = 0; e < numEnemies; ++e) {
        if (!enemyAlive_[e] && gameRng_.bernoulli(0.1)) {
            enemyAlive_[e] = true;
            ex_[e] = static_cast<int>(gameRng_.uniformInt(gridW));
            ey_[e] = 0;
        }
    }

    // Pellet pickup.
    for (int p = 0; p < numPellets; ++p) {
        if (pelletAlive_[p] && pelletX_[p] == px_ && pelletY_[p] == py_) {
            pelletAlive_[p] = false;
            score_ += 10;
            reward += 10.0;
        }
    }

    // Enemy collision.
    for (int e = 0; e < numEnemies; ++e) {
        if (enemyAlive_[e] && ex_[e] == px_ && ey_[e] == py_) {
            if (--lives_ <= 0)
                dead_ = true;
        }
    }

    // Survival trickle keeps early fitness informative.
    reward += 0.1;
    score_ += 0; // survival does not change the arcade score

    accumulate(reward);
    done_ = dead_ || stepsTaken_ >= maxSteps();
    out = {reward, done_};
    return writeRamLow(obs);
}

uint64_t
AtariRam::writeRamLow(std::span<double> obs)
{
    // Each byte is scaled into the observation and enters the chain
    // seed's sum from the register that holds it. The sum is mod 2^64,
    // so the order it folds the bytes in leaves its bits unchanged.
    uint64_t sum = 0;
    auto put = [obs, &sum](size_t i, uint8_t b) {
        obs[i] = kByteToUnit[b];
        sum += b * kRamHashPow[i];
    };
    put(0, static_cast<uint8_t>(px_));
    put(1, static_cast<uint8_t>(py_));
    for (int e = 0; e < numEnemies; ++e) {
        const auto i = static_cast<size_t>(2 + 3 * e);
        put(i, static_cast<uint8_t>(ex_[e]));
        put(i + 1, static_cast<uint8_t>(ey_[e]));
        put(i + 2, enemyAlive_[e] ? 1 : 0);
    }
    for (size_t i = 20; i < 24; ++i) // always zero
        put(i, 0);
    for (int p = 0; p < numPellets; ++p) {
        const auto i = static_cast<size_t>(24 + 3 * p);
        put(i, static_cast<uint8_t>(pelletX_[p]));
        put(i + 1, static_cast<uint8_t>(pelletY_[p]));
        put(i + 2, pelletAlive_[p] ? 1 : 0);
    }
    put(60, static_cast<uint8_t>(score_ & 0xFF));
    put(61, static_cast<uint8_t>((score_ >> 8) & 0xFF));
    put(62, static_cast<uint8_t>(lives_));
    put(63, static_cast<uint8_t>(stepsTaken_ & 0xFF));
    const uint64_t h = 0x243F6A8885A308D3ULL ^
                       (static_cast<uint64_t>(variant_) << 56);
    return h * kRamHashPow[64] + sum;
}

double
AtariRam::episodeFitness() const
{
    // Score plus a small survival component, normalized so the
    // per-variant target score maps to fitness 1.0.
    const double survival =
        0.1 * static_cast<double>(stepsTaken_) /
        static_cast<double>(maxSteps());
    return (static_cast<double>(score_) / targetScore()) + survival;
}

} // namespace genesys::env
