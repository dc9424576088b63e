/**
 * @file
 * Episode runner: closes the loop between a genome's phenotype and an
 * environment (steps 2-5 of the walkthrough in Section IV-B), and
 * adapts episode outcomes into NEAT fitness values (step 6, "reward
 * to fitness").
 */

#ifndef GENESYS_ENV_RUNNER_HH
#define GENESYS_ENV_RUNNER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "env/env.hh"
#include "nn/compiled_plan.hh"
#include "nn/feedforward.hh"
#include "nn/recurrent.hh"

namespace genesys::env
{

/** Outcome of one episode. */
struct EpisodeResult
{
    double cumulativeReward = 0.0;
    double fitness = 0.0;
    int steps = 0;
    /**
     * Network evaluations performed. The policy runs exactly one
     * forward pass per environment step, so this always equals
     * `steps` — the invariant is enforced in runEpisode() (assigned
     * from the step count, not counted separately) and documented
     * only here.
     */
    long inferences = 0;
    /** Total MACs executed by the policy network. */
    long macs = 0;
};

/** Detailed outcome of evaluating one genome over several episodes. */
struct EvalDetail
{
    /** Mean episode fitness — the genome's NEAT fitness. */
    double fitness = 0.0;
    /** Forward passes across all episodes. */
    long inferences = 0;
    /** MACs across all episodes. */
    long macs = 0;
    /** Longest single episode (the BSP lockstep count). */
    int maxEpisodeSteps = 0;
    /** Per-episode results, in episode order. */
    std::vector<EpisodeResult> episodes;
};

/**
 * Runs episodes of one environment. Episode seeds are derived from
 * (base seed, episode index) so evaluation is reproducible and every
 * genome in a generation sees the same episode set — the population
 * is ranked on a level playing field.
 */
class EpisodeRunner
{
  public:
    /** Borrow an environment owned elsewhere. */
    EpisodeRunner(Environment &env, uint64_t base_seed, int episodes = 1)
        : env_(&env), baseSeed_(base_seed), episodes_(episodes)
    {
    }

    /**
     * Own the environment outright — for callers that want a
     * self-contained evaluator with no external environment to keep
     * alive (the engine's per-worker shards use the borrowing form
     * with exec::EnvPool instead). Episodes touch no state shared
     * with other runners ("const-safe" with respect to everything
     * but the owned environment).
     */
    EpisodeRunner(std::unique_ptr<Environment> env, uint64_t base_seed,
                  int episodes = 1)
        : owned_(std::move(env)), env_(owned_.get()),
          baseSeed_(base_seed), episodes_(episodes)
    {
    }

    /**
     * Run one episode with an explicit seed through the feed-forward
     * interpreter phenotype (the reference implementation).
     */
    EpisodeResult runEpisode(const nn::FeedForwardNetwork &net,
                             uint64_t seed);

    /**
     * Run one episode through the recurrent interpreter (the
     * reference for recurrent plans). The network state is reset at
     * episode start, then each environment step advances one tick.
     */
    EpisodeResult runEpisode(nn::RecurrentNetwork &net, uint64_t seed);

    /**
     * Run one episode through a compiled plan — the fast path for
     * both feed-forward and recurrent plans (recurrent state is reset
     * at episode start and ticked per environment step). The plan is
     * read-only shared state; all mutable evaluation state lives in
     * `scratch`, so concurrent runners can share one plan.
     * Bit-identical to the matching interpreter overload.
     */
    EpisodeResult runEpisode(const nn::CompiledPlan &plan,
                             nn::PlanScratch &scratch, uint64_t seed);

    /**
     * Evaluate a genome: mean fitness over the configured episode
     * count, through the interpreter phenotype matching the config
     * (feed-forward or recurrent).
     */
    double evaluate(const neat::Genome &genome,
                    const neat::NeatConfig &cfg);

    /**
     * Evaluate a genome over explicit per-episode seeds, keeping the
     * per-episode results and workload totals the hardware model
     * needs. Reads only the genome/config and mutates only the
     * runner's environment. Builds the interpreter phenotype for the
     * config's mode — the reference path the compiled plans are
     * diffed against.
     */
    EvalDetail evaluateDetailed(const neat::Genome &genome,
                                const neat::NeatConfig &cfg,
                                const std::vector<uint64_t> &episodeSeeds);

    /**
     * Evaluate an already-compiled plan over explicit per-episode
     * seeds — the serial episode loop: one plan, many episodes, one
     * scratch, zero phenotype rebuilds.
     */
    EvalDetail evaluateDetailed(const nn::CompiledPlan &plan,
                                const std::vector<uint64_t> &episodeSeeds);

    /** Change the episode seeds (e.g. per generation). */
    void setBaseSeed(uint64_t s) { baseSeed_ = s; }

    int episodes() const { return episodes_; }
    Environment &environment() { return *env_; }
    bool ownsEnvironment() const { return owned_ != nullptr; }

  private:
    std::unique_ptr<Environment> owned_; ///< null when borrowing
    Environment *env_;
    uint64_t baseSeed_;
    int episodes_;
};

/**
 * One unit of wave work: a single episode of a single compiled plan.
 * A wave may mix items of different genomes, so each item names the
 * plan that drives its lane (borrowed, read-only).
 */
struct WaveItem
{
    const nn::CompiledPlan *plan = nullptr;
    /** Episode seed — fully determines the episode given the plan. */
    uint64_t seed = 0;
    /**
     * Index of the item's EpisodeResult in the result storage of the
     * pull form of evaluateWave. The vector form numbers items in
     * order and ignores this field.
     */
    std::size_t slot = 0;
};

/**
 * The work queue the pull form of evaluateWave draws from. Items come
 * a group at a time — one genome's episodes — so a group starts side
 * by side and its same-plan lanes share grouped dispatches. Several
 * episode loops (one per worker) may draw from one source at once.
 */
class WaveSource
{
  public:
    WaveSource() = default;
    WaveSource(const WaveSource &) = delete;
    WaveSource &operator=(const WaveSource &) = delete;
    virtual ~WaveSource() = default;

    /** Items per claim (a genome's episode count), >= 1. */
    virtual int groupSize() const = 0;

    /**
     * Claim the next group: write groupSize() items into `group` and
     * return true, or return false once the source is exhausted (and
     * on every later call).
     */
    virtual bool claim(std::span<WaveItem> group) = 0;
};

/**
 * Lane-occupancy accounting for one evaluateWave call — the
 * observable form of the PE-array utilization the refilling episode
 * loop exists to raise. One "lane slot step" is one lane for one BSP
 * superstep; occupancy is the fraction of those slots that held a
 * live episode.
 */
struct WaveStats
{
    /** BSP supersteps executed (one batched lockstep each). */
    long supersteps = 0;
    /** lanes.size() slots per superstep, summed over supersteps. */
    long laneSlotSteps = 0;
    /** Live-lane slots summed over supersteps (<= laneSlotSteps). */
    long activeLaneSteps = 0;
    /**
     * Episodes started on a lane freed mid-wave — every start after
     * the first superstep's fill.
     */
    long refills = 0;
    /**
     * Live lanes executed through a shared-plan grouped
     * CompiledPlan::activateBatch dispatch rather than a per-lane
     * activate — nonzero only when a wave holds several episodes of
     * one plan (e.g. episodesPerEval > 1 mixes).
     */
    long groupedLaneActivations = 0;

    /** activeLaneSteps / laneSlotSteps; 0 when nothing ran. */
    double occupancy() const;
};

/**
 * Caller-owned mutable state for evaluateWave: per-lane plan
 * scratches (recurrent lane state lives here across supersteps),
 * observation buffers, decoded actions and item bindings, plus the
 * staging buffers for shared-plan grouped dispatch. Reusing one
 * WaveScratch per worker across calls makes the wave loop
 * allocation-free once warm: a second pull-form call allocates
 * nothing, and a second vector-form call over the same items
 * allocates only its result vector. Not shareable across threads.
 */
struct WaveScratch
{
    /** Per-lane plan activation state (index = lane). */
    std::vector<nn::PlanScratch> net;
    /** Latest observation per lane, written in place by the lane's
     *  Environment::resetInto/stepInto. */
    std::vector<std::vector<double>> obs;
    /** Decoded action per lane; reuses its continuous capacity. */
    std::vector<Action> action;
    /** Item driving each lane; a null plan marks an idle lane. */
    std::vector<WaveItem> lane;
    /** The latest claimed group, handed to lanes as they idle. */
    std::vector<WaveItem> claimed;
    /** Per-superstep "already executed" marker (plan grouping). */
    std::vector<uint8_t> executed;
    /** Lanes gathered into the current shared-plan group. */
    std::vector<int> groupLanes;
    /** All-live mask for grouped dispatch. */
    std::vector<uint8_t> groupActive;
    /** Batch buffers for shared-plan grouped dispatch. */
    nn::BatchScratch groupNet;
};

/** Outcome of one evaluateWave call. */
struct WaveResult
{
    /** One result per item, in item order. */
    std::vector<EpisodeResult> episodes;
    WaveStats stats;
};

/**
 * Evaluate a queue of episodes in BSP lockstep waves — the engine's
 * only episode loop, and the software mirror of the paper's PE array
 * keeping every PE busy, with the same or a *different* genome in
 * each lane. Idle lanes draw items from `source`; every superstep
 * activates each live lane's plan on its observation and steps its
 * environment, and a lane whose episode terminates is refilled in
 * place, so lane occupancy stays near 1 until the source runs dry
 * (the returned WaveStats report it). A single lane degenerates to
 * the serial one-episode-at-a-time loop.
 *
 * A new group is claimed only when min(groupSize(), lanes.size())
 * lanes are idle, and it fills the idle lanes in lane order (items
 * left over wait for the next lanes to free). So a group of E
 * episodes on E or more lanes starts in one superstep and stays in
 * lockstep, and at one item per group any idle lane claims. Lanes
 * whose items share one feed-forward plan are executed as a single
 * grouped activateBatch dispatch (lanes scanned in order, so a
 * group's lanes keep the per-edge CSR accumulation contiguous);
 * recurrent plans and singleton groups dispatch per lane.
 *
 * `lanes` are distinct same-named environment instances (an
 * exec::EnvPool worker shard); `scratch` is the caller's reusable
 * wave scratch; each item's outcome is written to `results[slot]`.
 * Each EpisodeResult is bit-identical, field for field, to running
 * that (plan, seed) episode alone through EpisodeRunner::runEpisode —
 * lane packing, grouping, refill and claim order never reassociate a
 * lane's arithmetic or reorder its environment stepping.
 */
WaveStats
evaluateWave(WaveSource &source, const std::vector<Environment *> &lanes,
             WaveScratch &scratch, std::span<EpisodeResult> results);

/**
 * The pull form over a fixed item list, one item per claim: the
 * first lanes.size() items fill the lanes and each freed lane takes
 * the next. Returns one result per item, in item order.
 */
WaveResult
evaluateWave(const std::vector<WaveItem> &items,
             const std::vector<Environment *> &lanes,
             WaveScratch &scratch);

/**
 * Build a NEAT config matched to an environment: observation size in,
 * recommended outputs out, paper defaults elsewhere (population 150,
 * full direct initial connectivity).
 */
neat::NeatConfig configForEnvironment(const Environment &env);

/** Instantiate an environment by its Table I name; throws if unknown. */
std::unique_ptr<Environment> makeEnvironment(const std::string &name);

/** All environment names available (Table I rows). */
std::vector<std::string> environmentNames();

} // namespace genesys::env

#endif // GENESYS_ENV_RUNNER_HH
