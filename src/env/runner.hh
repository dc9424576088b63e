/**
 * @file
 * Episode runner: closes the loop between a genome's phenotype and an
 * environment (steps 2-5 of the walkthrough in Section IV-B), and
 * adapts episode outcomes into NEAT fitness values (step 6, "reward
 * to fitness"). evaluateWave is the library's one episode loop: the
 * engine runs every generation through its pull form, and one-off
 * replays run through its vector form on a single lane. The serial
 * one-episode-at-a-time loop it is diffed against lives in the test
 * oracle (tests/oracle/env/reference_eval.hh).
 */

#ifndef GENESYS_ENV_RUNNER_HH
#define GENESYS_ENV_RUNNER_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>

#include "common/logging.hh"
#include "env/env.hh"
#include "nn/compiled_plan.hh"

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
     * `steps` — the invariant is enforced in the episode loop
     * (assigned from the step count, not counted separately) and
     * documented only here.
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
};

/**
 * Reduce one genome's episode results to its EvalDetail — step 6 of
 * the walkthrough, "reward to fitness". Fitness is the mean episode
 * fitness, summed in episode order and then divided by the count;
 * inferences and MACs are totals, and maxEpisodeSteps is the longest
 * episode. The engine and the test oracle both reduce through here,
 * so a genome's fitness bits depend only on its episode results.
 * Needs at least one episode.
 */
EvalDetail reduceEpisodes(std::span<const EpisodeResult> episodes);

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
 * by side. Several episode loops (one per worker) may draw from one
 * source at once.
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
    /** BSP supersteps executed (one lockstep step of every lane). */
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

    /** activeLaneSteps / laneSlotSteps; 0 when nothing ran. */
    double occupancy() const;
};

/**
 * Caller-owned mutable state for evaluateWave: per-lane plan
 * scratches (recurrent lane state lives here across supersteps),
 * observation buffers, decoded actions and item bindings. Reusing one
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
    /** 1 where lane[l] holds an item: stepLanes()' live mask. */
    std::vector<uint8_t> live;
    /** Per-lane outcome of the latest stepLanes() call. */
    std::vector<StepOutcome> outcome;
    /** The latest claimed group, handed to lanes as they idle. */
    std::vector<WaveItem> claimed;
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
 * lockstep, and at one item per group any idle lane claims. Every
 * live lane runs its own CompiledPlan::activate; lanes that share a
 * plan share its read-only arrays, not their arithmetic. Lanes freed
 * in a superstep are refilled after every lane has stepped.
 *
 * `lanes` are distinct same-named environment instances (an
 * exec::EnvPool worker shard); `scratch` is the caller's reusable
 * wave scratch; each item's outcome is written to `results[slot]`.
 * Each EpisodeResult is bit-identical, field for field, to running
 * that (plan, seed) episode alone on a single lane —
 * lane packing, refill and claim order never reassociate a lane's
 * arithmetic or reorder its environment stepping.
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
