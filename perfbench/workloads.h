/**
 * @file
 * The benchmark's three workloads. Each is a closed batch run in one
 * process: one call of runRound() executes the whole workload once,
 * from building its inputs to flushing its last output, and returns
 * the timings, a digest of every output and, when traced, the
 * per-layer numbers. See README.md for why each workload exists.
 */
#ifndef SVARD_PERFBENCH_WORKLOADS_H
#define SVARD_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "probes.h"

namespace svard::perfbench {

struct WorkloadConfig
{
    std::string name;  ///< "mix-sweep", "adversarial" or "charz"
    uint64_t seed = 1; ///< every generated input derives from it
    bool shortMode = false; ///< tiny inputs (tests)
    std::string workDir;    ///< scratch space for sink/cache files
};

/** Per-round instruments of a traced round. */
struct TraceContext
{
    TraceContext(SpanLog &l, std::string run_id)
        : log(l), run(std::move(run_id))
    {
        defense.log = &l;
    }

    SpanLog &log;
    std::string run;                    ///< run id the spans carry
    uint32_t root = SpanLog::kNoParent; ///< the round's span
    DefenseProbe defense;
    CallCounter fault;
};

struct RoundResult
{
    double setupS = 0.0; ///< start until the first operation starts
    double wallS = 0.0;  ///< start until the last output is flushed
    uint64_t ops = 0;    ///< operations completed
    /** One digest per checked output, the operations it covers, and
     *  whether the output passed the workload's plausibility checks. */
    std::vector<uint64_t> digests;
    std::vector<uint32_t> digestOps;
    std::vector<char> plausible;
    /** Per-layer values (traced rounds only). */
    std::map<std::string, double> layers;
    /** obs::snapshot() at the end of a traced round. */
    obs::Snapshot counts;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Operations one round attempts (counted as failed if it throws). */
uint64_t plannedOps(const WorkloadConfig &cfg);

/** Process-wide set-up of every run: the adversarial set-up marker. */
void prepareProcess(const WorkloadConfig &cfg);

/**
 * Register the defense probes of a traced run. Call it after the first
 * untraced round, so that round, the reference of a seed without
 * recorded digests, builds its defenses through the program's own
 * factories and the probes' copies must reproduce it.
 */
void prepareTracing(const WorkloadConfig &cfg);

/** Run the workload once; `trace` is null for an untraced round.
 *  @throws whatever the program throws. */
RoundResult runRound(const WorkloadConfig &cfg, TraceContext *trace);

} // namespace svard::perfbench

#endif // SVARD_PERFBENCH_WORKLOADS_H
