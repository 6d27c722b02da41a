/**
 * @file
 * VulnerabilityModel: the concrete per-row read-disturbance fault model.
 *
 * This is the library's substitute for real DRAM chips: it synthesizes,
 * deterministically from a module's seed, the per-row quantities the
 * paper measures on hardware — HC_first, BER at 128K hammers, RowPress
 * on-time sensitivity, cell orientations — with the spatial structure
 * the paper reports:
 *
 *  - HC_first follows a clipped lognormal spanning Table 5's
 *    [min, max] with mean ~avg; one designated weakest row per bank
 *    carries exactly the module's minimum.
 *  - BER has a periodic component across the bank plus an optional
 *    elevated chunk (Fig. 4) and row noise scaled to hit the module's
 *    published coefficient of variation (Fig. 3).
 *  - For the four Samsung modules of Table 3, selected spatial-feature
 *    bits (row/subarray address, distance to sense amplifiers) shift
 *    HC_first, so the characterization-side F1 analysis can rediscover
 *    them; all other modules get no such correlation.
 *  - Aging (Fig. 10) lowers HC_first of a small, threshold-dependent
 *    fraction of weak rows by one quantization step; strong rows are
 *    unaffected.
 */
#ifndef SVARD_FAULT_VULN_MODEL_H
#define SVARD_FAULT_VULN_MODEL_H

#include <memory>
#include <vector>

#include "dram/disturbance.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"

namespace svard::fault {

/**
 * Fig. 10 stress transform, shared between the static aging mode and
 * the temporal drift model (fault/drift.h): probability that one full
 * 68-day stress period lowers a row's HC_first by one tested step,
 * keyed by the row's pre-stress quantized HC_first.
 */
double agingDropProbability(int64_t quantized_hc);

/** Multiplicative HC_first factor of a one-step Fig. 10 drop: lands
 *  the row just under the previous tested hammer count. */
double agingDropFactor(double hc_first);

/**
 * quantizeHc(clamp(exp(x), lo, hi)), decided in the log domain: `x` is
 * compared with precomputed logs of the tested hammer counts and of the
 * clamp bounds, so no exp is needed. An `x` within kMargin of any of
 * those logs takes the exp + clamp + quantizeHc path instead. glibc
 * documents exp and log as accurate to 1 ULP (~2e-15 absolute for the
 * |log| <= 12 used here), far inside kMargin, so both paths agree for
 * every `x`.
 */
class LogHcQuantizer
{
  public:
    static constexpr double kMargin = 1e-9;

    LogHcQuantizer(double lo, double hi);

    /** Index into dram::testedHammerCounts() of the quantized count. */
    size_t labelIndex(double x) const;

  private:
    double lo_;
    double hi_;
    double logLo_;
    double logHi_;
    size_t loIndex_; ///< label index of quantizeHc(lo)
    size_t hiIndex_; ///< label index of quantizeHc(hi)
    std::vector<double> logLabels_;
};

/** Concrete DisturbanceModel calibrated per module (see file header). */
class VulnerabilityModel : public dram::DisturbanceModel
{
  public:
    /**
     * @param spec module to model
     * @param subarrays the module's subarray map (shared with the device)
     * @param aged apply the Fig. 10 aging transform to HC_first
     */
    VulnerabilityModel(const dram::ModuleSpec &spec,
                       std::shared_ptr<const dram::SubarrayMap> subarrays,
                       bool aged = false);

    // ---- DisturbanceModel interface ----
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

    // ---- extra introspection for analyses and tests ----

    /** Row BER at exactly 128K hammers under the WCDP (Fig. 3/4). */
    double ber128k(uint32_t bank, uint32_t phys_row) const;

    /** Pre-aging HC_first (used by the Fig. 10 experiment). */
    double hcFirstUnaged(uint32_t bank, uint32_t phys_row) const;

    /**
     * Batch form of quantizeHc(hcFirst(bank, r)) for every row r of a
     * bank, bit-identical to the per-row path: out[r] = code[i], where
     * testedHammerCounts()[i] is row r's quantized HC_first. The hash
     * prefix and the weakest row are found once per bank and each row
     * is binned by LogHcQuantizer; the weakest row and aged rows whose
     * Fig. 10 drop fires go through hcFirst.
     *
     * @param code one entry per tested hammer count
     * @param out rowsPerBank entries
     */
    void quantizeBank(uint32_t bank, const std::vector<uint8_t> &code,
                      uint8_t *out) const;

    /** The designated weakest physical row of a bank (carries hcMin). */
    uint32_t weakestRow(uint32_t bank) const;

    /** Relative location of a physical row within the bank, in [0,1). */
    double relativeLocation(uint32_t phys_row) const;

    const dram::ModuleSpec &spec() const { return spec_; }
    const dram::SubarrayMap &subarrays() const { return *subarrays_; }
    bool aged() const { return aged_; }

    /**
     * Quantize a continuous HC_first to the tested hammer counts of
     * Alg. 1: the smallest tested count at which the row flips, or the
     * largest tested count if the row never flips in the tested range
     * (matching how Fig. 5 / Table 5 report such rows).
     */
    static int64_t quantizeHc(double hc_first);

  private:
    double spatialBerFactor(uint32_t phys_row) const;
    double featureShift(uint32_t bank, uint32_t phys_row) const;
    /** Unclamped log HC_first of a non-weakest row; `hc_seed` is
     *  hashSeed({seed, kHcTag, bank, phys_row}). */
    double hcLog(uint32_t bank, uint32_t phys_row, uint64_t hc_seed) const;
    double agingFactor(uint32_t bank, uint32_t phys_row,
                       double hc_unaged) const;

    const dram::ModuleSpec &spec_;
    std::shared_ptr<const dram::SubarrayMap> subarrays_;
    bool aged_;

    // derived calibration (computed once in the constructor)
    double hcSigma_;
    double hcMu_;
    // Clip just under the Table 5 bounds: 0.98x a tested count
    // quantizes to that count (adjacent tested counts are >= 12.5%
    // apart), and keeps rows whose threshold sits at a bound from
    // flapping across a quantization edge under small measurement
    // error (e.g. a near-tie worst-case-pattern pick).
    double hcLo_;
    double hcHi_;
    double berNoiseSigma_;
    double berAmp_;       ///< possibly scaled down to fit the CV budget
    double berChunkAmp_;  ///< likewise
    double berNormalizer_;///< keeps mean BER at spec.berMean
};

} // namespace svard::fault

#endif // SVARD_FAULT_VULN_MODEL_H
