/**
 * @file
 * Outside-in instruments of the repo benchmark. Nothing here is
 * compiled into the program: the benchmark wraps the virtual
 * interfaces the program already exposes (defense::Defense,
 * dram::DisturbanceModel, io::ResultSink), registers the wrapped
 * defenses through defense::DefenseRegistry::add, and records spans
 * around its own calls into each layer's public functions.
 *
 * Spans are kept in memory (name, start, end, parent, run id) and
 * written out once when the benchmark ends; a layer's self time is
 * its span's duration minus the part of the interval its children
 * cover. High-rate calls (one per ACT, one per fault-model query) are
 * counted exactly and timed on a deterministic pseudo-random sample,
 * so a traced run stays close to an untraced one.
 */
#ifndef SVARD_PERFBENCH_PROBES_H
#define SVARD_PERFBENCH_PROBES_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "defense/defense.h"
#include "dram/disturbance.h"
#include "io/result_sink.h"

namespace svard::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nanoseconds on the steady clock (the time base of spans and
 *  markers). */
int64_t nowNs();

/**
 * FNV-1a over the bytes of an operation's output. The benchmark owns
 * it so that a change to the program's own hashing never moves the
 * recorded digests.
 */
class Digest
{
  public:
    Digest &bytes(const void *data, size_t n);
    Digest &u64(uint64_t v) { return bytes(&v, sizeof(v)); }
    Digest &f64(double v) { return bytes(&v, sizeof(v)); }
    Digest &str(const std::string &s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** In-memory span log of one benchmark process. Thread-safe. */
class SpanLog
{
  public:
    static constexpr uint32_t kNoParent = UINT32_MAX;

    /** Tag every span opened from now on with this run id. */
    void setRun(const std::string &run_id);

    uint32_t open(const char *name, uint32_t parent);
    void close(uint32_t id);

    /** Durations (s) of the closed spans called `name` in `run`. */
    std::vector<double> durations(const std::string &name,
                                  const std::string &run) const;

    /** Write every span, then each span name's summed duration and
     *  self time, as one JSON object to `path`; false on error. */
    bool write(const std::string &path) const;

  private:
    struct Rec
    {
        std::string name;
        std::string run;
        uint32_t parent;
        int64_t startNs;
        int64_t endNs; ///< -1 while open
    };
    mutable std::mutex mu_;
    std::vector<Rec> recs_;
    std::string run_;
};

/** RAII span over a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint32_t parent)
        : log_(log), id_(log.open(name, parent))
    {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    uint32_t id_;
};

/**
 * Exact call counts and sampled busy time of one instrumented layer.
 * Busy time is extrapolated from the sampled calls.
 */
struct CallCounter
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> sampled{0};
    std::atomic<uint64_t> sampledNs{0};
    std::atomic<uint64_t> outputs{0}; ///< defense: actions emitted

    double busySeconds() const;
};

/** True for the calls whose duration is measured (1 in 8, hashed so
 *  it never aliases with a periodic call pattern). */
bool sampleCall(uint64_t call_index);

/**
 * What the defense probes report to. While no probe is active the
 * registered factories hand out the bare defense, so the same
 * process can interleave traced and untraced rounds.
 */
struct DefenseProbe
{
    SpanLog *log = nullptr;
    uint32_t parent = SpanLog::kNoParent; ///< parent of "sim.cell"
    CallCounter counter;
    /** Steady-clock ns of the first defended-cell construction. */
    std::atomic<int64_t> firstCellNs{0};
    /** Hydra's row-count cache, summed over the Hydra cells. */
    std::atomic<uint64_t> rccMisses{0};
    std::atomic<uint64_t> rccEvictions{0};
};

/**
 * Register timing decorators for the named built-in defenses through
 * DefenseRegistry::add. The registry exposes no way to fetch the
 * factory it replaces, so the inner defense is built here exactly as
 * the built-in factory builds it; the benchmark's digest check (a
 * traced round must reproduce the untraced round bit for bit) is what
 * proves the two agree.
 */
void installDefenseProbes(const std::vector<std::string> &names);

/** Route the registered decorators to `probe` (nullptr: untraced). */
void setDefenseProbe(DefenseProbe *probe);

/**
 * Replace the "none" factory with one that still returns no defense
 * but stamps the time of its first use: in an adversarial sweep that
 * is the first no-defense reference run, the end of set-up.
 */
void installNoneMarker();

/** Steady-clock ns of the first "none" construction since reset. */
int64_t firstNoneNs();
void resetNoneMarker();

/** Counting, sampled-timing decorator of a DRAM fault model. */
class CountingModel final : public dram::DisturbanceModel
{
  public:
    CountingModel(std::shared_ptr<const dram::DisturbanceModel> inner,
                  CallCounter &counter)
        : inner_(std::move(inner)), counter_(counter)
    {}

    double hcFirst(uint32_t bank, uint32_t phys_row) const override;
    double berAt(uint32_t bank, uint32_t phys_row,
                 double eff_hammers) const override;
    double actWeight(uint32_t bank, uint32_t phys_row,
                     dram::Tick t_agg_on) const override;
    double trueCellFraction(uint32_t bank,
                            uint32_t phys_row) const override;
    double sameDataCoupling(uint32_t bank,
                            uint32_t phys_row) const override;
    double patternJitter(uint32_t bank, uint32_t phys_row,
                         uint8_t victim_fill,
                         uint8_t aggr_fill) const override;

  private:
    template <typename F> double timed(F &&f) const;

    std::shared_ptr<const dram::DisturbanceModel> inner_;
    CallCounter &counter_;
};

/** Timing decorator of a result sink (lives inside an AsyncSink, so
 *  it runs on the sink's writer thread). */
class TimedSink final : public io::ResultSink
{
  public:
    TimedSink(std::unique_ptr<io::ResultSink> inner, SpanLog &log,
              uint32_t parent)
        : inner_(std::move(inner)), log_(log), parent_(parent)
    {}

    void write(const engine::CellResult &row) override;
    void flush() override;

    uint64_t rows() const { return rows_.load(); }
    double busySeconds() const { return busyNs_.load() * 1e-9; }

  private:
    std::unique_ptr<io::ResultSink> inner_;
    SpanLog &log_;
    uint32_t parent_;
    std::atomic<uint64_t> rows_{0};
    std::atomic<uint64_t> busyNs_{0};
};

} // namespace svard::perfbench

#endif // SVARD_PERFBENCH_PROBES_H
