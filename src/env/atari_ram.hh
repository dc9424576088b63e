/**
 * @file
 * Synthetic Atari-RAM games (AirRaid / Alien / Amidar / Asterix).
 *
 * The paper's agents observe the 128-byte Atari 2600 RAM (Table I)
 * through gym. Shipping ROMs/emulators is not possible here, so each
 * variant is a deterministic procedural arcade game over a 128-byte
 * machine state: a player, procedurally moving enemies, collectible
 * pellets, a score, and RAM bytes that mix entity state with derived
 * (hashed) bytes — preserving what matters to GeneSys: 128-input
 * genomes, large discrete action sets, and the O(10^5) gene
 * populations of Fig 4(b). See README, "Modelled, not measured".
 */

#ifndef GENESYS_ENV_ATARI_RAM_HH
#define GENESYS_ENV_ATARI_RAM_HH

#include <array>

#include "env/env.hh"

namespace genesys::env
{

/** The four RAM workloads used in the paper's evaluation. */
enum class AtariVariant
{
    AirRaid, ///< enemies descend columns; dodge and shoot (6 actions)
    Alien,   ///< maze chase with diagonal moves + fire (18 actions)
    Amidar,  ///< trace the grid while evading (10 actions)
    Asterix, ///< horizontal lanes of hazards and bonuses (9 actions)
};

/** Name used by the paper/gym, e.g. "Alien-ram-v0". */
const std::string &atariVariantName(AtariVariant v);

class AtariRam : public Environment
{
  public:
    explicit AtariRam(AtariVariant variant);

    const std::string &name() const override;
    int observationSize() const override { return 128; }
    ActionSpace actionSpace() const override;
    int recommendedOutputs() const override { return actionSpace().n; }
    int maxSteps() const override { return 300; }

    /** Normalized score; 1.0 at the target score. */
    double episodeFitness() const override;
    double targetFitness() const override { return 1.0; }

    void resetInto(uint64_t seed, std::span<double> obs) override;
    StepOutcome stepInto(const Action &action,
                         std::span<double> obs) override;

    bool stepsLanesTogether() const override { return true; }

    /**
     * stepInto() on every live lane, the lanes' RAM-hash chains run
     * two at a time so each hides the other's multiply latency. Every
     * lane must be an AtariRam.
     */
    void stepLanes(std::span<Environment *const> lanes,
                   std::span<const Action> actions,
                   std::span<std::vector<double>> obs,
                   std::span<const uint8_t> live,
                   std::span<StepOutcome> out) override;

    long score() const { return score_; }
    bool dead() const { return dead_; }

    static constexpr int gridW = 16;
    static constexpr int gridH = 16;
    static constexpr int numEnemies = 6;
    static constexpr int numPellets = 12;

  private:
    /**
     * One step's game update, checked as stepInto() checks it, through
     * RAM bytes 0..63 and their observation values. Returns the seed
     * of the chain that derives bytes 64..127.
     */
    uint64_t advance(const Action &action, std::span<double> obs,
                     StepOutcome &out);
    /**
     * Write RAM bytes 0..63 of the game state into `obs`, byte b as
     * b / 255.0; returns the chain seed. The observation is the only
     * copy of the RAM.
     */
    uint64_t writeRamLow(std::span<double> obs);
    void moveEnemies();
    double targetScore() const;

    AtariVariant variant_;
    XorWow gameRng_{1};

    int px_ = 0, py_ = 0;
    std::array<int, numEnemies> ex_{}, ey_{};
    std::array<int, numEnemies> enemyPhase_{};
    std::array<bool, numEnemies> enemyAlive_{};
    std::array<int, numPellets> pelletX_{}, pelletY_{};
    std::array<bool, numPellets> pelletAlive_{};
    long score_ = 0;
    int lives_ = 1;
    bool dead_ = false;
    bool done_ = true;
    int fireCooldown_ = 0;
};

} // namespace genesys::env

#endif // GENESYS_ENV_ATARI_RAM_HH
