/**
 * @file
 * Parallel experiment engine. Both of the paper's headline grids run
 * through one cell pipeline: the mix sweep (Fig. 12, ExperimentRunner)
 * and the adversarial sweep (Fig. 13, runAdversarialSweep) differ only
 * in how they enumerate their cells and how they execute one. The
 * pipeline probes the cache once per cell, emits the cached prefix,
 * builds the kind's baselines if anything misses, shards the misses
 * across a std::thread pool (stop flag, `runner.cell` fault point,
 * checkpoint, ordered emit), and writes one progress stream and one
 * run manifest.
 *
 * Every cell derives its RNG seed from its grid coordinates (hashSeed
 * over the axis indices), and each worker writes only its own
 * pre-allocated result slot, so the output is bit-identical for any
 * thread count. Baselines (alone IPCs, no-defense mixes, adversarial
 * references) go through one probe-or-simulate helper before any
 * cell runs against them.
 */
#ifndef SVARD_ENGINE_RUNNER_H
#define SVARD_ENGINE_RUNNER_H

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/recal.h"
#include "core/vuln_profile.h"
#include "engine/sweep.h"
#include "obs/manifest.h"

namespace svard::engine {

/**
 * Execute an adversarial grid (Fig. 13) through the cell pipeline:
 * the {attack case x provider x trace} defended cells are its cells;
 * the benign alone IPCs and one no-defense reference per (case,
 * trace), shared across providers, are its baselines. Deterministic
 * for any thread count. Honors the spec's sink, cache, manifest, and
 * stop flag as ExperimentRunner::run does; `io_stats`, when given,
 * receives the executed/cached counts of cells and baselines
 * together.
 */
std::vector<AdversarialResult>
runAdversarialSweep(const AdversarialSpec &adv,
                    SweepIoStats *io_stats = nullptr);

/**
 * Module profiles of one sweep, resampled onto each geometry and
 * scaled to each threshold. Built on the caller's thread before cells
 * shard (the scaled copies settle their lazy occupancy there) and
 * read-only afterwards, so concurrently-running cells share them.
 */
class ProfileSet
{
  public:
    /** Build every (geometry, module) profile the providers name and
     *  one scaled copy per threshold; keys already built are kept. */
    void build(const std::vector<sim::SimConfig> &geoms,
               const std::vector<ProviderSpec> &providers,
               const std::vector<double> &thresholds, unsigned threads);

    /** Resampled base profile of (geometry, module label). */
    std::shared_ptr<const core::VulnProfile>
    base(uint32_t geom, const std::string &label) const;

    /** A cell's threshold provider: uniform for an unlabeled spec,
     *  else Svärd over the shared scaled profile. Fresh per cell:
     *  provider lookup counters and budget memos mutate. */
    std::shared_ptr<const core::ThresholdProvider>
    provider(uint32_t geom, const ProviderSpec &p, double threshold,
             uint32_t rows_per_bank) const;

  private:
    std::map<std::pair<uint32_t, std::string>,
             std::shared_ptr<const core::VulnProfile>>
        base_;
    std::map<std::tuple<uint32_t, std::string, uint64_t>,
             std::shared_ptr<const core::VulnProfile>>
        scaled_;
};

class ExperimentRunner
{
  public:
    /**
     * @throws std::invalid_argument for unknown defense/module names
     *         and for degenerate specs (an empty defense, threshold,
     *         provider, or mix axis; a mix without benchmarks; zero
     *         requests per core) — a silent empty grid is never run.
     */
    explicit ExperimentRunner(SweepSpec spec);

    /** Execute the grid (cached: repeat calls return the same run). */
    const std::vector<CellResult> &run();

    /** run() stopped early via spec.stopFlag: the returned table is
     *  a valid prefix-complete partial (finished cells are real and
     *  checkpointed; unfinished ones carry zero metrics). */
    bool interrupted() const { return interrupted_; }

    // --- multi-process fabric support (src/fabric/) ---------------
    // A worker process prepares the grid, then executes individual
    // cells by enumeration index into its own cache shard; the
    // coordinator merges shards into the main cache and calls run(),
    // which resolves every cell from cache and emits byte-identical
    // output.

    /** Enumerate + resolve every cell's metadata (coords, seed,
     *  fingerprint) without executing; validates specFingerprint().
     *  Idempotent; returns the cell count. */
    size_t prepareCells();

    /** Build profiles/traces/baselines if not yet built (cache-aware
     *  and checkpointed, so a restarted worker skips re-simulating
     *  them). Requires prepareCells(). Idempotent, not thread-safe —
     *  call before sharding. */
    void ensureBaselines();

    /** Execute cell `i` (cache probe first) and checkpoint it into
     *  the spec's cache. Returns true when the cell was simulated,
     *  false on a cache hit. Requires ensureBaselines(); thread-safe
     *  across distinct `i`. run() does not call it: its misses come
     *  from one probe of the whole grid. */
    bool executeCell(size_t i);

    /** Cell metadata after prepareCells() (fabric shard planning). */
    const std::vector<CellResult> &resolvedCells() const
    {
        return results_;
    }

    /** Per-worker fabric stats for the run manifest (coordinator
     *  only; populated from the work ledger's replay). */
    void setFabricWorkers(std::vector<obs::FabricWorkerStats> ws)
    {
        fabricWorkers_ = std::move(ws);
    }

    /** Cells actually simulated by run() (cache misses). */
    size_t executedCells() const { return executed_.load(); }

    /** Cells satisfied from the sweep cache without execution. */
    size_t cachedCells() const { return cachedHits_; }

    /** Baseline runs (alone-IPC + no-defense mixes) simulated. */
    size_t executedBaselines() const { return baselines_.executed; }

    /** Baseline runs satisfied from the sweep cache — a partial
     *  resume stops recomputing them. */
    size_t cachedBaselines() const { return baselines_.cached; }

    /** Order-sensitive hash over every cell fingerprint (the whole
     *  grid's identity; recorded in the run manifest). 0 before
     *  run(). */
    uint64_t specFingerprint() const { return specFingerprint_; }

    /** Mean normalized metrics per configuration, axis order. */
    std::vector<SummaryRow> summarize();

    /** Per-cell result table (one row per executed cell). */
    Table cellTable();

    const SweepSpec &spec() const { return spec_; }

    /** The drift axis after defaulting and canonicalization (one
     *  static entry when the spec sets none). */
    const std::vector<DriftSpec> &drifts() const { return drifts_; }

    /** Run-wide escape/recalibration totals of executed cells (the
     *  manifest sums *all* cells, cached ones included, from the
     *  result table instead). */
    const core::GuardbandWatchdog &watchdog() const
    {
        return watchdog_;
    }

    /** The geometry axis after defaulting (spec.geometries or config). */
    const std::vector<sim::SimConfig> &geometries() const
    {
        return geoms_;
    }

    /** Alone IPC baseline of a benchmark under a geometry (post-run).
     *  Only populated when at least one cell executed: a fully cached
     *  run skips baseline simulation entirely. */
    double aloneIpc(uint32_t geom, uint32_t bench_idx) const;

  private:
    /** Deterministic seed of a cell from its grid coordinates.
     *  Excludes the drift coordinate: the static entry of a drift
     *  axis must reproduce the pre-drift RNG streams bit for bit. */
    uint64_t cellSeed(const SweepCell &c) const;

    /** Seed of a cell's drift trajectory. Hashes the drift entry's
     *  *identity* (model, epochs, guardband) plus the geometry /
     *  threshold / provider coordinates — but neither defense nor
     *  mix, so every defense and workload is judged against the same
     *  physical trajectory, and not the policy, so policies compare
     *  on identical drift. */
    uint64_t driftSeed(const SweepCell &c) const;

    /**
     * Cache fingerprint of a metadata-resolved cell: hashes the
     * cell's seed and every input that shapes its result (geometry +
     * timing, request count, defense name, threshold value, provider,
     * workload mix, parameter bag). Two runs compute the same
     * fingerprint for a cell iff the cell would simulate identically,
     * which is what makes the sweep cache safe across spec edits.
     */
    uint64_t cellFingerprint(const CellResult &resolved) const;

    /** Fill a cell's metadata (coords, seed, fingerprint, resolved
     *  axis values) without executing it. */
    void resolveCellMeta(const SweepCell &c, CellResult *out) const;

    /** Benchmarks referenced by the spec's mixes (alone baselines). */
    std::vector<uint32_t> benchesUsed() const;

    void computeBaselines();

    /** Simulate a cache-missed cell into its result slot (drift
     *  evaluation, mix run, normalization); no probe, no store. */
    void simulateCell(size_t i);

    sim::MixMetrics runMixCell(uint32_t geom, uint32_t mix,
                               const std::string &defense_name,
                               std::shared_ptr<
                                   const core::ThresholdProvider>
                                   provider,
                               uint64_t seed,
                               double recal_duty = 0.0) const;

    SweepSpec spec_;
    std::vector<sim::SimConfig> geoms_;
    std::vector<DriftSpec> drifts_; ///< defaulted + canonicalized
    core::GuardbandWatchdog watchdog_;
    ProfileSet profiles_; ///< built before sharding; read-only afterwards

    /** Per-mix core traces, generated once and copied into each cell
     *  (traces depend only on the base seed, not the geometry).
     *  Providers, by contrast, stay per-cell: Svard and VulnProfile
     *  keep mutable lazy counters, so sharing one instance across
     *  concurrently-running cells would race. */
    std::vector<std::vector<std::vector<sim::TraceEntry>>> mixTraces_;
    std::vector<std::vector<double>> aloneIpc_;         ///< [geom][bench]
    std::vector<std::vector<sim::MixMetrics>> mixBase_; ///< [geom][mix]
    /** Cache record metadata of an alone-IPC baseline (stored under
     *  the same fingerprint scheme as grid cells). */
    CellResult aloneMeta(uint32_t geom, uint32_t bench) const;

    /** Cache record metadata of a (geometry, mix) no-defense run. */
    CellResult mixBaseMeta(uint32_t geom, uint32_t mix) const;

    std::vector<CellResult> results_;
    std::vector<SweepCell> cells_; ///< enumeration order (prepareCells)
    bool prepared_ = false;
    bool baselinesReady_ = false;
    bool interrupted_ = false;
    bool ran_ = false;
    std::atomic<size_t> executed_{0};
    size_t cachedHits_ = 0;
    SweepIoStats baselines_; ///< alone-IPC + no-defense mix runs
    uint64_t specFingerprint_ = 0;
    std::vector<obs::FabricWorkerStats> fabricWorkers_;
};

} // namespace svard::engine

#endif // SVARD_ENGINE_RUNNER_H
