#include "engine/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>

#include "common/log.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "engine/drift_eval.h"
#include "fault_inject/fault_inject.h"
#include "dram/module_spec.h"
#include "fault/drift.h"
#include "fault/vuln_model.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/presets.h"

namespace svard::engine {

namespace {

double
safeRatio(double num, double den)
{
    return num / std::max(den, 1e-12);
}

void
requireSpec(bool ok, const std::string &what)
{
    if (!ok)
        throw std::invalid_argument("degenerate sweep spec: " + what);
}

/**
 * First-error latch for sharded workers. An exception thrown out of a
 * parallelFor lambda would unwind a bare pool thread and terminate
 * the process, so workers capture sink/cache I/O failures here and
 * the caller rethrows after the pool joins. Simulation results that
 * were checkpointed before the failure stay checkpointed, so the
 * retried sweep resumes instead of starting over.
 */
class ErrorLatch
{
  public:
    void
    capture()
    {
        MutexLock lock(mu_);
        if (!error_)
            error_ = std::current_exception();
    }

    void
    rethrow()
    {
        std::exception_ptr err;
        {
            MutexLock lock(mu_);
            err = error_;
        }
        if (err)
            std::rethrow_exception(err);
    }

  private:
    Mutex mu_;
    std::exception_ptr error_ SVARD_GUARDED_BY(mu_);
};

/**
 * Streams results to a sink in final enumeration order while workers
 * complete cells in arbitrary order: complete(i) marks slot i done
 * and emits every consecutive done slot past the cursor. The emitted
 * stream is therefore a growing prefix of the final table — tailable
 * mid-run, bit-identical at any thread count.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(const std::vector<CellResult> &results,
                   io::ResultSink *sink)
        : results_(results), sink_(sink), done_(results.size(), 0)
    {}

    void
    complete(size_t i)
    {
        // The disabled check belongs under the lock: the unlocked
        // early-return it replaced raced a concurrent disable() on
        // the sink_ pointer (caught by thread-safety annotation).
        MutexLock lock(mu_);
        if (!sink_)
            return;
        done_[i] = 1;
        while (cursor_ < done_.size() && done_[cursor_]) {
            sink_->write(results_[cursor_]);
            ++cursor_;
        }
    }

    /** Stop emitting (after a sink failure; the error is latched). */
    void
    disable()
    {
        MutexLock lock(mu_);
        sink_ = nullptr;
    }

  private:
    const std::vector<CellResult> &results_;
    io::ResultSink *sink_ SVARD_GUARDED_BY(mu_);
    std::vector<char> done_ SVARD_GUARDED_BY(mu_);
    size_t cursor_ SVARD_GUARDED_BY(mu_) = 0;
    Mutex mu_;
};

/** Fold the full system configuration (geometry + timing) into a
 *  fingerprint: any field that changes simulation behaviour must be
 *  mixed here, or an edited config would wrongly hit the cache. */
void
hashConfig(HashStream &h, const sim::SimConfig &g)
{
    // The geometry label and standard are part of the cell identity:
    // a cached DDR4 cell must never be attributed to an HBM2 or DDR5
    // preset even if an (unlikely) field-for-field collision existed.
    h.mix(g.geometry).mix(static_cast<uint32_t>(g.standard));
    h.mix(g.cores).mix(g.cpuGhz).mix(g.issueWidth).mix(g.instrWindow);
    h.mix(g.channels).mix(g.ranks).mix(g.bankGroups);
    h.mix(g.banksPerGroup).mix(g.rowsPerBank).mix(g.rowBytes);
    h.mix(g.readQueue).mix(g.writeQueue).mix(g.columnCap);
    h.mix(g.mopWidth).mix(g.recalDuty);
    const dram::TimingParams &t = g.timing;
    h.mix(t.tCK).mix(t.tRCD).mix(t.tRP).mix(t.tRAS).mix(t.tRC);
    h.mix(t.tCL).mix(t.tCWL).mix(t.tBL).mix(t.tCCD_S).mix(t.tCCD_L);
    h.mix(t.tRRD_S).mix(t.tRRD_L).mix(t.tFAW).mix(t.tWR).mix(t.tRTP);
    h.mix(t.tWTR_S).mix(t.tWTR_L).mix(t.tRFC).mix(t.tREFI);
    h.mix(t.tREFW);
}

void
hashTrace(HashStream &h, const std::vector<sim::TraceEntry> &trace)
{
    h.mix(trace.size());
    for (const auto &e : trace)
        h.mix(e.gap).mix(e.write ? 1 : 0).mix(e.address);
}

void
hashParams(
    HashStream &h,
    const std::vector<std::pair<std::string, double>> &params)
{
    h.mix(params.size());
    for (const auto &[name, value] : params)
        h.mix(name).mix(value);
}

/**
 * Reject typoed module labels on the caller's thread: inside a
 * sharded worker, moduleByLabel's fatal() would kill the sweep
 * uncatchably mid-run.
 */
void
validateProviderLabels(const std::vector<ProviderSpec> &providers)
{
    for (const auto &p : providers) {
        if (p.moduleLabel.empty())
            continue;
        bool known = false;
        for (const auto &m : dram::allModules())
            known = known || m.label == p.moduleLabel;
        if (!known)
            throw std::invalid_argument(
                "unknown module label \"" + p.moduleLabel +
                "\" in provider spec \"" + p.name + "\"");
    }
}

/** Reject unknown defense names on the caller's thread, for the
 *  same reason as validateProviderLabels. */
void
validateDefenses(const std::vector<std::string> &names,
                 const std::string &where)
{
    for (const auto &name : names)
        if (!defense::DefenseRegistry::instance().contains(name))
            throw std::invalid_argument("unknown defense \"" + name +
                                        "\" in " + where);
}

/** Organization-derived geometry label ("2ch-16b-128Kr"). */
std::string
derivedGeometryLabel(const sim::SimConfig &g)
{
    return std::to_string(g.channels) + "ch-" +
           std::to_string(g.banksPerRank()) + "b-" +
           std::to_string(g.rowsPerBank / 1024) + "Kr";
}

/** Does the config's DRAM system still match the preset its label
 *  claims — organization AND timing table (a preset name promises
 *  both; CPU-side fields are not geometry)? Hand-built geometries
 *  start from a preset (usually the default SimConfig) and mutate
 *  fields, which would leave two different systems reported under
 *  one label. */
bool
labelMatchesOrganization(const sim::SimConfig &g)
{
    if (!sim::presets::contains(g.geometry))
        return true; // custom label: the caller's to keep
    const sim::SimConfig p = sim::presets::get(g.geometry);
    const dram::TimingParams &a = g.timing;
    const dram::TimingParams &b = p.timing;
    return g.standard == p.standard && g.channels == p.channels &&
           g.ranks == p.ranks && g.bankGroups == p.bankGroups &&
           g.banksPerGroup == p.banksPerGroup &&
           g.rowsPerBank == p.rowsPerBank &&
           g.rowBytes == p.rowBytes && a.tCK == b.tCK &&
           a.tRCD == b.tRCD && a.tRP == b.tRP && a.tRAS == b.tRAS &&
           a.tRC == b.tRC && a.tCL == b.tCL && a.tCWL == b.tCWL &&
           a.tBL == b.tBL && a.tCCD_S == b.tCCD_S &&
           a.tCCD_L == b.tCCD_L && a.tRRD_S == b.tRRD_S &&
           a.tRRD_L == b.tRRD_L && a.tFAW == b.tFAW &&
           a.tWR == b.tWR && a.tRTP == b.tRTP &&
           a.tWTR_S == b.tWTR_S && a.tWTR_L == b.tWTR_L &&
           a.tRFC == b.tRFC && a.tREFI == b.tREFI &&
           a.tREFW == b.tREFW;
}

/** Queue high-water mark when the sink is an AsyncSink (else 0). */
uint64_t
sinkQueueHighWater(io::ResultSink *sink)
{
    if (auto *async = dynamic_cast<io::AsyncSink *>(sink))
        return async->maxDepthSeen();
    return 0;
}

/** Seconds since a steady-clock start point. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Microseconds since a steady-clock start point (histograms). */
uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Build a module's profile resampled onto a geometry. */
std::shared_ptr<const core::VulnProfile>
buildProfile(const std::string &label, const sim::SimConfig &cfg)
{
    const auto &spec = dram::moduleByLabel(label);
    auto sa = std::make_shared<dram::SubarrayMap>(spec);
    fault::VulnerabilityModel model(spec, sa);
    return std::make_shared<core::VulnProfile>(
        core::VulnProfile::fromModel(model).resampledTo(
            cfg.banksPerRank(), cfg.rowsPerBank));
}

uint64_t
thresholdBits(double threshold)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &threshold, sizeof(bits));
    return bits;
}

/** Order-sensitive hash over every cell fingerprint: the whole grid's
 *  identity, recorded in the manifest and presented by fabric
 *  workers to the ledger. */
uint64_t
gridFingerprint(const char *tag, const std::vector<CellResult> &cells)
{
    HashStream h;
    h.mix(std::string(tag));
    for (const CellResult &c : cells)
        h.mix(c.fingerprint);
    return h.value();
}

/** Restore a record from its checkpoint; false on a miss. */
bool
restore(io::SweepCache *cache, CellResult &r)
{
    CellResult cached;
    if (!cache || !cache->lookup(r.seed, r.fingerprint, &cached))
        return false;
    r.metrics = cached.metrics;
    r.normalized = cached.normalized;
    r.drift = cached.drift;
    return true;
}

/** Restore every checkpointed record; returns the misses' indices in
 *  enumeration order. */
std::vector<size_t>
probeCache(io::SweepCache *cache, std::vector<CellResult> &records)
{
    std::vector<size_t> misses;
    for (size_t i = 0; i < records.size(); ++i)
        if (!restore(cache, records[i]))
            misses.push_back(i);
    return misses;
}

/**
 * Probe-or-simulate for baseline records (alone IPCs, no-defense mix
 * runs, adversarial references). Checkpointed records are restored;
 * if any misses, `prepare` (when set) runs once and the misses are
 * simulated on the pool and checkpointed, so a partial resume stops
 * recomputing them. Cache failures are latched (workers must not
 * throw) and rethrown here.
 */
void
resolveBaselines(std::vector<CellResult> &records, io::SweepCache *cache,
                 unsigned threads, const std::function<void()> &prepare,
                 const std::function<void(CellResult &)> &simulate,
                 SweepIoStats *counts)
{
    const std::vector<size_t> misses = probeCache(cache, records);
    counts->cached += records.size() - misses.size();
    if (misses.empty())
        return;
    if (prepare)
        prepare();
    ErrorLatch io_errors;
    parallelFor(misses.size(), threads, [&](size_t j) {
        CellResult &r = records[misses[j]];
        simulate(r);
        try {
            if (cache)
                cache->store(r);
        } catch (...) {
            io_errors.capture();
        }
    });
    counts->executed += misses.size();
    io_errors.rethrow();
}

/** Execute one cache miss and checkpoint it. */
void
executeMiss(const std::function<void(size_t)> &execute, size_t i,
            const CellResult &out, io::SweepCache *cache,
            std::atomic<size_t> &executed)
{
    // Kill/stall drills at cell granularity (no bytes in flight
    // here, so eio/short/torn outcomes are ignored).
    faults::check("runner.cell");
    execute(i);
    executed.fetch_add(1);
    if (cache)
        cache->store(out);
}

/** One sweep kind as the cell pipeline sees it. */
struct CellKind
{
    /** Enumerated cells with coordinates, seeds, fingerprints and
     *  axis values resolved; results land in place. */
    std::vector<CellResult> *cells = nullptr;
    /** Builds what executing needs (profiles, baselines): called once
     *  on the caller's thread, only if some cell misses the cache. */
    std::function<void()> prepare;
    /** Simulates cell i into its slot; concurrent for distinct i. */
    std::function<void(size_t)> execute;
    /** Baseline counts, read once the pool has joined. */
    const SweepIoStats *baselines = nullptr;
    /** Kind-specific manifest fields (kind, geometries, seed, request
     *  count, spec fingerprint, drift axis, fabric workers). */
    obs::RunManifest manifest;
};

/** What one pipeline run did. */
struct PipelineRun
{
    size_t executed = 0;
    size_t cached = 0;
    bool interrupted = false;
};

/**
 * The cell pipeline both sweep kinds run through. `Spec` is SweepSpec
 * or AdversarialSpec, which share the threads, sink, cache,
 * manifestPath, stopFlag and progressLabel fields.
 */
template <typename Spec>
PipelineRun
runCells(const Spec &spec, const CellKind &kind)
{
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<CellResult> &cells = *kind.cells;
    io::SweepCache *cache = spec.cache.get();
    obs::Span run_span("sweep", "run");
    run_span.arg("cells", static_cast<uint64_t>(cells.size()));

    // Probe the cache once: hits keep their checkpointed metrics,
    // misses are scheduled.
    std::vector<size_t> pending;
    {
        obs::Span probe_span("sweep", "cache_probe");
        pending = probeCache(cache, cells);
        probe_span.arg("hits", static_cast<uint64_t>(cells.size() -
                                                     pending.size()));
    }
    PipelineRun out;
    out.cached = cells.size() - pending.size();
    std::vector<char> hit(cells.size(), 1);
    for (size_t i : pending)
        hit[i] = 0;

    // Cached cells are complete up front: a resumed sweep's sink
    // emits the finished prefix at once (on the caller's thread,
    // where sink errors may throw directly), and cached drift cells
    // surface their escape/recal counts in the heartbeat.
    obs::ProgressMeter progress(spec.progressLabel, cells.size());
    progress.addCached(out.cached);
    OrderedEmitter emitter(cells, spec.sink.get());
    for (size_t i = 0; i < cells.size(); ++i)
        if (hit[i]) {
            progress.addEscapes(cells[i].drift.escapes);
            progress.addRecalibrations(cells[i].drift.recalibrations);
            emitter.complete(i);
        }

    // A fully cached re-run executes nothing: no profiles, no
    // baselines, zero simulated cells.
    if (!pending.empty() && kind.prepare)
        kind.prepare();

    static const obs::MetricId cells_executed =
        obs::counter("sweep.cells_executed");
    static const obs::MetricId cells_cached =
        obs::counter("sweep.cells_cached");
    static const obs::MetricId cell_wall =
        obs::histogram("sweep.cell_wall_us");
    obs::add(cells_cached, out.cached);

    std::atomic<size_t> executed{0};
    ErrorLatch io_errors;
    parallelFor(pending.size(), spec.threads, [&](size_t j) {
        const size_t i = pending[j];
        // Graceful stop: drop not-yet-started cells; in-flight ones
        // finish and checkpoint, so a resume continues from here.
        if (spec.stopFlag &&
            spec.stopFlag->load(std::memory_order_relaxed))
            return;
        const CellResult &r = cells[i];
        obs::Span cell_span("sweep", "cell");
        cell_span.arg("geometry", r.geometry);
        cell_span.arg("defense", r.defense);
        cell_span.arg("hc_first", r.threshold);
        cell_span.arg("provider", r.provider);
        cell_span.arg("mix", r.mix);
        cell_span.arg("seed", r.seed);
        const auto cell_start = std::chrono::steady_clock::now();
        // Checkpoint before emitting: a kill between the two loses
        // sink tail rows (rewritten on resume) but never cached work.
        // I/O failures are latched, not thrown, on worker threads.
        try {
            executeMiss(kind.execute, i, r, cache, executed);
            emitter.complete(i);
            progress.addEscapes(r.drift.escapes);
            progress.addRecalibrations(r.drift.recalibrations);
        } catch (...) {
            io_errors.capture();
            emitter.disable();
        }
        obs::observe(cell_wall, microsSince(cell_start));
        obs::add(cells_executed);
        progress.tick();
    });
    io_errors.rethrow();
    out.executed = executed.load();
    out.interrupted = spec.stopFlag &&
                      spec.stopFlag->load(std::memory_order_relaxed);
    if (spec.sink)
        spec.sink->flush();
    progress.finish();

    if (!spec.manifestPath.empty()) {
        obs::RunManifest m = kind.manifest;
        m.threads = resolveThreadCount(spec.threads);
        m.simdImpl = simd::implName(simd::activeImpl());
        m.buildFlags = obs::buildFlagsString();
        m.wallSeconds = secondsSince(wall_start);
        m.cellsTotal = cells.size();
        m.cellsExecuted = out.executed;
        m.cellsCached = out.cached;
        m.baselinesExecuted = kind.baselines->executed;
        m.baselinesCached = kind.baselines->cached;
        m.sinkQueueHighWater = sinkQueueHighWater(spec.sink.get());
        m.interrupted = out.interrupted;
        // Run-wide drift totals over the full result table, so cached
        // cells count too (a resumed sweep reports a cold one's).
        for (const CellResult &r : cells) {
            m.escapes += r.drift.escapes;
            m.recalibrations += r.drift.recalibrations;
        }
        if (cache)
            m.cachePath = cache->path();
        writeManifest(spec.manifestPath, m, obs::snapshot());
    }
    return out;
}

} // anonymous namespace

void
ProfileSet::build(const std::vector<sim::SimConfig> &geoms,
                  const std::vector<ProviderSpec> &providers,
                  const std::vector<double> &thresholds,
                  unsigned threads)
{
    std::vector<std::pair<uint32_t, std::string>> wanted;
    for (uint32_t g = 0; g < geoms.size(); ++g)
        for (const auto &p : providers)
            if (!p.moduleLabel.empty() &&
                !base_.count({g, p.moduleLabel})) {
                base_[{g, p.moduleLabel}] = nullptr;
                wanted.push_back({g, p.moduleLabel});
            }
    // Assign through find(): keys were inserted serially above, and
    // map::find is data-race-const, unlike operator[].
    parallelFor(wanted.size(), threads, [&](size_t i) {
        base_.find(wanted[i])->second =
            buildProfile(wanted[i].second, geoms[wanted[i].first]);
    });

    // One shared scaled profile per (geometry, label, threshold),
    // built serially: scaledTo/minThreshold touch mutable profile
    // state, so the lazy occupancy is settled here, not in a worker.
    for (const auto &[key, profile] : base_)
        for (double threshold : thresholds) {
            auto &slot =
                scaled_[{key.first, key.second, thresholdBits(threshold)}];
            if (slot)
                continue;
            auto scaled = std::make_shared<core::VulnProfile>(
                profile->scaledTo(threshold));
            scaled->minThreshold(); // settle the lazy occupancy
            slot = std::move(scaled);
        }
}

std::shared_ptr<const core::VulnProfile>
ProfileSet::base(uint32_t geom, const std::string &label) const
{
    const auto it = base_.find({geom, label});
    SVARD_ASSERT(it != base_.end(), "profile not prebuilt: " + label);
    return it->second;
}

std::shared_ptr<const core::ThresholdProvider>
ProfileSet::provider(uint32_t geom, const ProviderSpec &p,
                     double threshold, uint32_t rows_per_bank) const
{
    if (p.moduleLabel.empty())
        return std::make_shared<core::UniformThreshold>(threshold,
                                                        rows_per_bank);
    const auto it =
        scaled_.find({geom, p.moduleLabel, thresholdBits(threshold)});
    SVARD_ASSERT(it != scaled_.end(),
                 "scaled profile not prebuilt: " + p.moduleLabel);
    return std::make_shared<core::Svard>(it->second);
}

ExperimentRunner::ExperimentRunner(SweepSpec spec)
    : spec_(std::move(spec))
{
    // Geometry axis: explicit configs, then named presets (resolved
    // here so a typo throws on the caller's thread). Both empty means
    // the base config alone.
    geoms_ = spec_.geometries;
    for (const auto &name : spec_.geometryNames)
        geoms_.push_back(sim::presets::get(name));
    if (geoms_.empty())
        geoms_.push_back(spec_.config);
    // A hand-built config that mutated organization fields but kept
    // its source preset's label would report two organizations under
    // one name; relabel those from their actual shape. (Fingerprints
    // hash every field regardless — this is about honest columns.)
    for (sim::SimConfig &g : geoms_)
        if (!labelMatchesOrganization(g))
            g.geometry = derivedGeometryLabel(g);
    // Validate names up front: a typo must throw here on the caller's
    // thread, not inside a sharded worker.
    validateDefenses(spec_.defenses, "sweep spec");
    validateProviderLabels(spec_.providers);
    // A degenerate spec would silently enumerate an empty (or
    // unrunnable) grid; refuse it loudly instead.
    requireSpec(!spec_.defenses.empty(), "defense axis is empty");
    requireSpec(!spec_.thresholds.empty(), "threshold axis is empty");
    requireSpec(!spec_.providers.empty(), "provider axis is empty");
    requireSpec(!spec_.mixes.empty(), "workload-mix axis is empty");
    requireSpec(spec_.requestsPerCore > 0, "requestsPerCore is zero");
    for (const auto &mix : spec_.mixes)
        requireSpec(!mix.benchIdx.empty(),
                    "mix \"" + mix.name + "\" has no benchmarks");
    // Drift axis: default to one static entry, parse-validate the
    // model/policy grammar on the caller's thread, and canonicalize
    // the names so every spelling of the same entry fingerprints
    // (and reports) identically.
    drifts_ = spec_.drifts;
    if (drifts_.empty())
        drifts_.push_back(DriftSpec{});
    for (DriftSpec &d : drifts_) {
        d.model = fault::DriftModelSpec::parse(d.model).name();
        d.policy = core::RecalPolicy::parse(d.policy).name();
        requireSpec(d.guardband >= 0.0 && d.guardband < 0.9,
                    "drift guardband must be in [0, 0.9)");
    }
}

uint64_t
ExperimentRunner::cellSeed(const SweepCell &c) const
{
    return hashSeed({spec_.baseSeed, c.geom, c.defense, c.threshold,
                     c.provider, c.mix, 0x5EEDCE11ULL});
}

uint64_t
ExperimentRunner::driftSeed(const SweepCell &c) const
{
    const DriftSpec &d = drifts_[c.drift];
    HashStream h;
    h.mix(std::string("svard-drift-v1"));
    h.mix(spec_.baseSeed);
    h.mix(c.geom).mix(c.threshold).mix(c.provider);
    h.mix(d.model).mix(d.epochs).mix(d.guardband);
    return h.value();
}

uint64_t
ExperimentRunner::cellFingerprint(const CellResult &r) const
{
    const ProviderSpec &prov = spec_.providers[r.cell.provider];
    const sim::WorkloadMix &mix = spec_.mixes[r.cell.mix];
    HashStream h;
    // v2: the drift axis joined the cell identity (and the cache
    // format moved to SVC4); v1 records predate temporal drift.
    h.mix(std::string("svard-cell-v2"));
    h.mix(r.seed); // covers baseSeed and the coordinate-derived RNG
    hashConfig(h, geoms_[r.cell.geom]);
    h.mix(spec_.requestsPerCore);
    h.mix(r.defense);
    h.mix(r.threshold);
    h.mix(prov.name).mix(prov.moduleLabel);
    h.mix(mix.name).mix(mix.benchIdx.size());
    for (uint32_t b : mix.benchIdx)
        h.mix(b);
    hashParams(h, r.params);
    // Canonicalized drift entry: the default axis hashes exactly like
    // an explicit static entry, so a spec that never mentions drift
    // and one that spells out {"none","none",0,0} share fingerprints.
    const DriftSpec &ds = drifts_[r.cell.drift];
    h.mix(ds.model).mix(ds.policy).mix(ds.epochs).mix(ds.guardband);
    return h.value();
}

void
ExperimentRunner::resolveCellMeta(const SweepCell &c,
                                  CellResult *out) const
{
    out->cell = c;
    out->seed = cellSeed(c);
    out->geometry = geoms_[c.geom].geometry;
    out->defense = spec_.defenses[c.defense];
    out->threshold = spec_.thresholds[c.threshold];
    out->provider = spec_.providers[c.provider].name;
    out->mix = spec_.mixes[c.mix].name;
    const DriftSpec &ds = drifts_[c.drift];
    out->driftModel = ds.model;
    out->driftPolicy = ds.policy;
    out->driftEpochs = ds.epochs;
    out->guardband = ds.guardband;
    out->params.assign(spec_.defenseParams.begin(),
                       spec_.defenseParams.end());
    out->fingerprint = cellFingerprint(*out);
}

CellResult
ExperimentRunner::aloneMeta(uint32_t geom, uint32_t bench) const
{
    CellResult r;
    r.cell = {geom, 0, 0, 0, bench};
    r.seed = hashSeed({spec_.baseSeed, geom, bench, 0xA10EULL});
    r.geometry = geoms_[geom].geometry;
    r.defense = "none";
    r.provider = "(alone)";
    r.mix = sim::benchmarkSuite()[bench].name;
    HashStream h;
    h.mix(std::string("svard-alone-v1"));
    h.mix(r.seed);
    hashConfig(h, geoms_[geom]);
    h.mix(spec_.requestsPerCore);
    h.mix(static_cast<uint64_t>(bench));
    r.fingerprint = h.value();
    return r;
}

CellResult
ExperimentRunner::mixBaseMeta(uint32_t geom, uint32_t mix) const
{
    const sim::WorkloadMix &m = spec_.mixes[mix];
    CellResult r;
    SweepCell base;
    base.geom = geom;
    base.mix = mix;
    r.cell = base;
    // Keep the seed the baseline *run* already used, so cached and
    // freshly-simulated baselines are bit-identical by construction.
    r.seed = cellSeed(base);
    r.geometry = geoms_[geom].geometry;
    r.defense = "none";
    r.provider = "(baseline)";
    r.mix = m.name;
    HashStream h;
    h.mix(std::string("svard-base-v1"));
    h.mix(r.seed);
    hashConfig(h, geoms_[geom]);
    h.mix(spec_.requestsPerCore);
    h.mix(m.name).mix(m.benchIdx.size());
    for (uint32_t b : m.benchIdx)
        h.mix(b);
    r.fingerprint = h.value();
    return r;
}

std::vector<uint32_t>
ExperimentRunner::benchesUsed() const
{
    std::set<uint32_t> used;
    for (const auto &mix : spec_.mixes)
        for (uint32_t b : mix.benchIdx)
            used.insert(b);
    return {used.begin(), used.end()};
}

sim::MixMetrics
ExperimentRunner::runMixCell(
    uint32_t geom, uint32_t mix, const std::string &defense_name,
    std::shared_ptr<const core::ThresholdProvider> provider,
    uint64_t seed, double recal_duty) const
{
    // Drift cells charge their policy's recalibration duty to the
    // controller; zero duty leaves the config (and every schedule
    // decision) exactly as the static path computes it.
    sim::SimConfig cfg = geoms_[geom];
    cfg.recalDuty = recal_duty;
    // Copy the prebuilt traces: System consumes them, and cells
    // sharing a mix run concurrently.
    sim::System sys(cfg, mixTraces_[mix],
                    spec_.requestsPerCore, defense_name,
                    std::move(provider), seed, spec_.defenseParams);
    const auto &alone = aloneIpc_[geom];
    return sim::computeMixMetrics(
        sys.run(), spec_.mixes[mix],
        [&](uint32_t b) { return alone[b]; });
}

void
ExperimentRunner::computeBaselines()
{
    profiles_.build(geoms_, spec_.providers, spec_.thresholds,
                    spec_.threads);

    // Per-mix traces (seeded by the base seed only, so one generation
    // serves every geometry and defense configuration).
    const auto &suite = sim::benchmarkSuite();
    mixTraces_.resize(spec_.mixes.size());
    parallelFor(spec_.mixes.size(), spec_.threads, [&](size_t m) {
        const auto &mix = spec_.mixes[m];
        for (uint32_t c = 0; c < mix.benchIdx.size(); ++c)
            mixTraces_[m].push_back(sim::generateTrace(
                suite[mix.benchIdx[c]], spec_.requestsPerCore,
                spec_.baseSeed,
                sim::coreTraceOffset(spec_.baseSeed, c)));
    });

    // Per-(geometry, benchmark) alone IPCs, then the per-(geometry,
    // mix) no-defense runs normalized against them.
    const std::vector<uint32_t> benches = benchesUsed();
    std::vector<CellResult> alone;
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t b : benches)
            alone.push_back(aloneMeta(g, b));
    resolveBaselines(alone, spec_.cache.get(), spec_.threads, nullptr,
                     [&](CellResult &r) {
        r.metrics.weightedSpeedup = sim::measureAloneIpc(
            geoms_[r.cell.geom], r.cell.mix, spec_.requestsPerCore,
            spec_.baseSeed);
    }, &baselines_);
    aloneIpc_.assign(geoms_.size(),
                     std::vector<double>(suite.size(), 0.0));
    for (const CellResult &r : alone)
        aloneIpc_[r.cell.geom][r.cell.mix] = r.metrics.weightedSpeedup;

    std::vector<CellResult> bases;
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t m = 0; m < spec_.mixes.size(); ++m)
            bases.push_back(mixBaseMeta(g, m));
    resolveBaselines(bases, spec_.cache.get(), spec_.threads, nullptr,
                     [&](CellResult &r) {
        r.metrics = runMixCell(r.cell.geom, r.cell.mix, "none", nullptr,
                               r.seed);
    }, &baselines_);
    mixBase_.assign(geoms_.size(), std::vector<sim::MixMetrics>(
                                       spec_.mixes.size()));
    for (const CellResult &r : bases)
        mixBase_[r.cell.geom][r.cell.mix] = r.metrics;
}

size_t
ExperimentRunner::prepareCells()
{
    if (prepared_)
        return cells_.size();
    // Enumerate the grid, axis order fixed by the spec.
    // The drift axis nests between provider and mix, keeping cells
    // mix-contiguous — summarize() groups on that invariant.
    for (uint32_t g = 0; g < geoms_.size(); ++g)
        for (uint32_t d = 0; d < spec_.defenses.size(); ++d)
            for (uint32_t t = 0; t < spec_.thresholds.size(); ++t)
                for (uint32_t p = 0; p < spec_.providers.size(); ++p)
                    for (uint32_t dr = 0; dr < drifts_.size(); ++dr)
                        for (uint32_t m = 0; m < spec_.mixes.size();
                             ++m)
                            cells_.push_back({g, d, t, p, m, dr});
    // Resolve metadata serially: coordinates, seeds, and fingerprints
    // always come from the *current* spec, so they stay consistent
    // even when a cached record predates a spec edit. The spec
    // fingerprint — an order-sensitive hash over every cell
    // fingerprint — is what fabric workers present to the ledger:
    // two processes agree on it iff they would simulate the same
    // grid.
    results_.assign(cells_.size(), CellResult{});
    for (size_t i = 0; i < cells_.size(); ++i)
        resolveCellMeta(cells_[i], &results_[i]);
    specFingerprint_ = gridFingerprint("svard-spec-v1", results_);
    prepared_ = true;
    return cells_.size();
}

void
ExperimentRunner::ensureBaselines()
{
    if (baselinesReady_)
        return;
    obs::Span base_span("sweep", "baselines");
    computeBaselines();
    base_span.arg("executed",
                  static_cast<uint64_t>(baselines_.executed));
    base_span.arg("cached", static_cast<uint64_t>(baselines_.cached));
    baselinesReady_ = true;
}

bool
ExperimentRunner::executeCell(size_t i)
{
    SVARD_ASSERT(prepared_ && baselinesReady_ && i < cells_.size(),
                 "executeCell needs prepareCells + ensureBaselines");
    if (restore(spec_.cache.get(), results_[i]))
        return false;
    executeMiss([this](size_t j) { simulateCell(j); }, i, results_[i],
                spec_.cache.get(), executed_);
    return true;
}

void
ExperimentRunner::simulateCell(size_t i)
{
    const SweepCell &c = cells_[i];
    CellResult &out = results_[i];
    const DriftSpec &ds = drifts_[c.drift];
    double recal_duty = 0.0;
    if (!ds.isStatic()) {
        // Drift evaluation first: it is pure and cheap, and its
        // recalibration cost parameterizes the mix simulation below.
        DriftEvalInput in;
        in.model = fault::DriftModelSpec::parse(ds.model);
        in.policy = core::RecalPolicy::parse(ds.policy);
        in.epochs = ds.epochs;
        in.guardband = ds.guardband;
        in.seed = driftSeed(c);
        const sim::SimConfig &cfg = geoms_[c.geom];
        in.banks = cfg.banksPerRank();
        in.rowsPerBank = cfg.rowsPerBank;
        const std::string &label =
            spec_.providers[c.provider].moduleLabel;
        std::shared_ptr<const core::VulnProfile> prof;
        if (!label.empty()) {
            prof = profiles_.base(c.geom, label);
            in.profile = prof.get();
        }
        in.tRcPs = static_cast<double>(cfg.timing.tRC);
        in.tRefwPs = static_cast<double>(cfg.timing.tREFW);
        out.drift = evaluateDrift(in);
        recal_duty = out.drift.recalCost;
        watchdog_.recordEscapes(out.drift.escapes);
        watchdog_.recordRecalibrations(out.drift.recalibrations);
    }
    out.metrics = runMixCell(
        c.geom, c.mix, out.defense,
        profiles_.provider(c.geom, spec_.providers[c.provider],
                           out.threshold, geoms_[c.geom].rowsPerBank),
        out.seed, recal_duty);
    const sim::MixMetrics &base = mixBase_[c.geom][c.mix];
    out.normalized.weightedSpeedup =
        safeRatio(out.metrics.weightedSpeedup, base.weightedSpeedup);
    out.normalized.harmonicSpeedup =
        safeRatio(out.metrics.harmonicSpeedup, base.harmonicSpeedup);
    out.normalized.maxSlowdown =
        safeRatio(out.metrics.maxSlowdown, base.maxSlowdown);
    // The recalibration write path: the checkpoint of a
    // drift-annotated record, stored right after this returns, is
    // what a mid-recal kill drill must tear.
    if (spec_.cache && !ds.isStatic())
        faults::check("recal.write");
}

const std::vector<CellResult> &
ExperimentRunner::run()
{
    if (ran_)
        return results_;
    // A retry after a latched sink/cache error re-enters here with
    // ran_ still false; counters restart so they never double-count.
    executed_.store(0);
    baselines_ = SweepIoStats{};
    interrupted_ = false;
    prepareCells();

    CellKind kind;
    kind.cells = &results_;
    kind.prepare = [this] { ensureBaselines(); };
    kind.execute = [this](size_t i) { simulateCell(i); };
    kind.baselines = &baselines_;
    obs::RunManifest &m = kind.manifest;
    m.kind = "sweep";
    for (const sim::SimConfig &g : geoms_)
        m.geometries.push_back(g.geometry);
    m.specFingerprint = specFingerprint_;
    m.baseSeed = spec_.baseSeed;
    m.requestsPerCore = spec_.requestsPerCore;
    m.fabricWorkers = fabricWorkers_;
    for (const DriftSpec &d : drifts_)
        m.driftPolicies.push_back(d.name());

    const PipelineRun done = runCells(spec_, kind);
    executed_.store(done.executed);
    cachedHits_ = done.cached;
    interrupted_ = done.interrupted;
    // An interrupted run is resumable, not finished: leave ran_
    // false so a later run() (same process, flag cleared) continues.
    ran_ = !interrupted_;
    return results_;
}

std::vector<SummaryRow>
ExperimentRunner::summarize()
{
    run();
    std::vector<SummaryRow> rows;
    const size_t mixes = spec_.mixes.size();
    // Cells are mix-contiguous in enumeration order (the drift axis
    // nests outside mix), so each group is one (geometry, defense,
    // threshold, provider, drift) configuration.
    for (size_t start = 0; start < results_.size(); start += mixes) {
        const CellResult &first = results_[start];
        SummaryRow row;
        row.geom = first.cell.geom;
        row.defense = first.defense;
        row.threshold = first.threshold;
        row.provider = first.provider;
        row.drift = drifts_[first.cell.drift].name();
        row.mixCount = static_cast<uint32_t>(mixes);
        for (size_t m = 0; m < mixes; ++m) {
            const sim::MixMetrics &n = results_[start + m].normalized;
            row.meanNormalized.weightedSpeedup += n.weightedSpeedup;
            row.meanNormalized.harmonicSpeedup += n.harmonicSpeedup;
            row.meanNormalized.maxSlowdown += n.maxSlowdown;
            row.driftMetrics.escapeRate +=
                results_[start + m].drift.escapeRate;
            row.driftMetrics.recalCost +=
                results_[start + m].drift.recalCost;
        }
        row.meanNormalized.weightedSpeedup /= mixes;
        row.meanNormalized.harmonicSpeedup /= mixes;
        row.meanNormalized.maxSlowdown /= mixes;
        row.driftMetrics.escapeRate /= mixes;
        row.driftMetrics.recalCost /= mixes;
        // The trajectory is shared across a group's mixes, so the
        // counts of any member cell are the group's counts.
        row.driftMetrics.escapes = first.drift.escapes;
        row.driftMetrics.recalibrations = first.drift.recalibrations;
        rows.push_back(std::move(row));
    }
    return rows;
}

Table
ExperimentRunner::cellTable()
{
    run();
    Table t("Experiment sweep (" + std::to_string(results_.size()) +
                " cells)",
            {"Geometry", "Defense", "HCfirst", "Provider", "Mix",
             "Params", "WS", "HS", "MaxSd", "NormWS", "NormHS",
             "NormMaxSd"});
    for (const auto &r : results_) {
        std::string params;
        for (const auto &[name, value] : r.params)
            params += (params.empty() ? "" : "|") + name + "=" +
                      Table::fmt(value, 3);
        t.addRow({r.geometry,
                  r.defense, Table::fmtHc(int64_t(r.threshold)),
                  r.provider, r.mix, params.empty() ? "-" : params,
                  Table::fmt(r.metrics.weightedSpeedup, 4),
                  Table::fmt(r.metrics.harmonicSpeedup, 4),
                  Table::fmt(r.metrics.maxSlowdown, 4),
                  Table::fmt(r.normalized.weightedSpeedup, 4),
                  Table::fmt(r.normalized.harmonicSpeedup, 4),
                  Table::fmt(r.normalized.maxSlowdown, 4)});
    }
    return t;
}

double
ExperimentRunner::aloneIpc(uint32_t geom, uint32_t bench_idx) const
{
    SVARD_ASSERT(geom < aloneIpc_.size() &&
                     bench_idx < aloneIpc_[geom].size(),
                 "alone-IPC index out of range");
    return aloneIpc_[geom][bench_idx];
}

std::vector<AdversarialResult>
runAdversarialSweep(const AdversarialSpec &adv,
                    SweepIoStats *io_stats)
{
    const sim::SimConfig &cfg = adv.config;
    const auto &suite = sim::benchmarkSuite();

    // Typos must throw here, not inside a sharded worker thread.
    std::vector<std::string> defenses;
    for (const auto &c : adv.cases)
        defenses.push_back(c.defense);
    validateDefenses(defenses, "adversarial spec");
    validateProviderLabels(adv.providers);
    requireSpec(!adv.cases.empty(), "adversarial case list is empty");
    requireSpec(!adv.providers.empty(), "provider axis is empty");
    requireSpec(adv.requestsPerCore > 0, "requestsPerCore is zero");
    for (const auto &c : adv.cases)
        requireSpec(!c.traces.empty(),
                    "case \"" + c.name + "\" has no traces");

    // Shared fingerprint prefix: everything but the per-cell axes.
    // (The defense threshold is mixed into defended cells only; the
    // no-defense references do not depend on it.)
    auto base_hash = [&](const char *tag) {
        HashStream h;
        h.mix(std::string(tag));
        hashConfig(h, cfg);
        h.mix(adv.requestsPerCore).mix(adv.baseSeed);
        return h;
    };
    auto record = [&](SweepCell cell, uint64_t seed, std::string defense,
                      std::string provider, std::string mix) {
        CellResult r;
        r.cell = cell;
        r.seed = seed;
        r.geometry = cfg.geometry;
        r.defense = std::move(defense);
        r.provider = std::move(provider);
        r.mix = std::move(mix);
        return r;
    };
    auto trace_name = [&](uint32_t c, uint32_t t) {
        return adv.cases[c].name + "#" + std::to_string(t);
    };

    // Baselines: the alone IPCs of the benign companion mix (the
    // fixed assignment MixRunner uses), and one no-defense reference
    // per (case, trace), shared across providers.
    const sim::WorkloadMix benign = sim::adversarialBenignMix(cfg.cores);
    std::vector<CellResult> alone;
    for (uint32_t b : std::set<uint32_t>(benign.benchIdx.begin(),
                                         benign.benchIdx.end())) {
        CellResult r = record({0, 0, 0, 0, b},
                              hashSeed({adv.baseSeed, b, 0xA10FULL}),
                              "none", "(alone)", suite[b].name);
        HashStream h = base_hash("svard-adv-alone-v1");
        h.mix(r.seed).mix(static_cast<uint64_t>(b));
        r.fingerprint = h.value();
        alone.push_back(std::move(r));
    }
    std::vector<CellResult> refs;
    std::vector<size_t> first_ref; // refs index of each case's trace 0
    for (uint32_t c = 0; c < adv.cases.size(); ++c) {
        first_ref.push_back(refs.size());
        for (uint32_t t = 0; t < adv.cases[c].traces.size(); ++t) {
            CellResult r = record({0, c, 0, 0, t},
                                  hashSeed({adv.baseSeed, c, t, 0xADF0ULL}),
                                  "none", "(reference)", trace_name(c, t));
            HashStream h = base_hash("svard-adv-ref-v1");
            h.mix(r.seed);
            hashTrace(h, adv.cases[c].traces[t]);
            r.fingerprint = h.value();
            refs.push_back(std::move(r));
        }
    }

    // Cells: the full {case x provider x trace} defended grid.
    std::vector<CellResult> cells;
    for (uint32_t c = 0; c < adv.cases.size(); ++c)
        for (uint32_t p = 0; p < adv.providers.size(); ++p)
            for (uint32_t t = 0; t < adv.cases[c].traces.size(); ++t) {
                const ProviderSpec &prov = adv.providers[p];
                CellResult r = record(
                    {0, c, 0, p, t},
                    hashSeed({adv.baseSeed, c, p, t, 0xADF1ULL}),
                    adv.cases[c].defense, prov.name, trace_name(c, t));
                r.threshold = adv.threshold;
                HashStream h = base_hash("svard-adv-v1");
                h.mix(r.seed);
                h.mix(r.defense).mix(adv.threshold);
                h.mix(prov.name).mix(prov.moduleLabel);
                hashTrace(h, adv.cases[c].traces[t]);
                r.fingerprint = h.value();
                cells.push_back(std::move(r));
            }

    // Profiles and alone IPCs are built only when something executes:
    // a fully cached resume builds neither.
    ProfileSet profiles;
    std::vector<double> alone_ipc(suite.size(), 0.0);
    SweepIoStats baselines;
    bool prepared = false;
    auto prepare = [&] {
        if (prepared)
            return;
        prepared = true;
        profiles.build({cfg}, adv.providers, {adv.threshold},
                       adv.threads);
        resolveBaselines(alone, adv.cache.get(), adv.threads, nullptr,
                         [&](CellResult &r) {
            r.metrics.weightedSpeedup = sim::measureAloneIpc(
                cfg, r.cell.mix, adv.requestsPerCore, adv.baseSeed);
        }, &baselines);
        for (const CellResult &r : alone)
            alone_ipc[r.cell.mix] = r.metrics.weightedSpeedup;
    };
    // One adversarial system run: attacker on core 0 (shared
    // implementation with MixRunner::runAdversarial).
    auto run_one = [&](const CellResult &r,
                       std::shared_ptr<const core::ThresholdProvider>
                           provider) {
        return sim::adversarialBenignWs(
            cfg, adv.cases[r.cell.defense].traces[r.cell.mix],
            adv.requestsPerCore, adv.baseSeed, r.defense,
            std::move(provider), r.seed,
            [&](uint32_t b) { return alone_ipc[b]; });
    };

    // The references are needed even when every cell is cached: the
    // slowdowns below divide by them.
    {
        obs::Span base_span("sweep", "baselines");
        resolveBaselines(refs, adv.cache.get(), adv.threads, prepare,
                         [&](CellResult &r) {
            r.metrics.weightedSpeedup = run_one(r, nullptr);
        }, &baselines);
    }
    auto ref_ws = [&](const CellResult &r) {
        return refs[first_ref[r.cell.defense] + r.cell.mix]
            .metrics.weightedSpeedup;
    };

    CellKind kind;
    kind.cells = &cells;
    kind.prepare = prepare;
    kind.execute = [&](size_t i) {
        CellResult &out = cells[i];
        out.metrics.weightedSpeedup = run_one(
            out, profiles.provider(0, adv.providers[out.cell.provider],
                                   adv.threshold, cfg.rowsPerBank));
        // Normalized WS vs. the shared no-defense reference (its
        // inverse is this trace's slowdown).
        out.normalized.weightedSpeedup =
            safeRatio(out.metrics.weightedSpeedup, ref_ws(out));
    };
    kind.baselines = &baselines;
    obs::RunManifest &m = kind.manifest;
    m.kind = "adversarial";
    m.geometries.push_back(cfg.geometry);
    m.specFingerprint = gridFingerprint("svard-adv-spec-v1", cells);
    m.baseSeed = adv.baseSeed;
    m.requestsPerCore = adv.requestsPerCore;

    const PipelineRun done = runCells(adv, kind);
    if (io_stats)
        *io_stats = {baselines.executed + done.executed,
                     baselines.cached + done.cached};

    // Aggregate: mean over each case's traces; normalize each case
    // to its first provider (the spec's baseline configuration).
    std::vector<AdversarialResult> out;
    size_t idx = 0;
    for (uint32_t c = 0; c < adv.cases.size(); ++c) {
        double baseline_slowdown = 1.0;
        for (uint32_t p = 0; p < adv.providers.size(); ++p) {
            AdversarialResult r;
            r.caseName = adv.cases[c].name;
            r.defense = adv.cases[c].defense;
            r.provider = adv.providers[p].name;
            const size_t n = adv.cases[c].traces.size();
            for (uint32_t t = 0; t < n; ++t, ++idx) {
                const double ws = cells[idx].metrics.weightedSpeedup;
                r.benignWs += ws;
                r.slowdown += safeRatio(ref_ws(cells[idx]), ws);
            }
            r.benignWs /= static_cast<double>(n);
            r.slowdown /= static_cast<double>(n);
            if (p == 0)
                baseline_slowdown = r.slowdown;
            r.normalizedSlowdown =
                safeRatio(r.slowdown, baseline_slowdown);
            out.push_back(std::move(r));
        }
    }
    return out;
}

} // namespace svard::engine
