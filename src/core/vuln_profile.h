/**
 * @file
 * Row-level read-disturbance vulnerability profile: the data structure
 * at the heart of Svärd (paper Sec. 6). Each DRAM row is assigned a
 * small vulnerability bin id (<= 16 bins, 4 bits); each bin carries a
 * *safe* HC_first lower bound — the largest tested hammer count at
 * which no row of the bin flipped. Defenses configured from a bin's
 * bound therefore keep the paper's security guarantees (Sec. 6.3).
 */
#ifndef SVARD_CORE_VULN_PROFILE_H
#define SVARD_CORE_VULN_PROFILE_H

#include <cstdint>
#include <string>
#include <vector>

#include "fault/vuln_model.h"

namespace svard::core {

/**
 * Per-row vulnerability bins for one module (all banks), keyed by
 * *physical* row address: the space in which adjacency is +-1 and in
 * which defenses reason about aggressors and victims. (Deployments
 * translate interface addresses through the reverse-engineered in-DRAM
 * mapping before consulting the profile, exactly as the paper's
 * methodology does for hammering.)
 */
class VulnProfile
{
  public:
    /**
     * @param label profile name (e.g. the source module, "S0")
     * @param banks number of banks
     * @param rows_per_bank rows per bank
     * @param bin_bounds safe HC_first lower bound per bin, ascending
     */
    VulnProfile(std::string label, uint32_t banks, uint32_t rows_per_bank,
                std::vector<double> bin_bounds);

    /**
     * Build a profile directly from the fault model (oracle profile):
     * every row's continuous HC_first is quantized to the tested
     * hammer counts and the bin bound is the previous tested count
     * (the largest count observed safe). This matches what a complete
     * characterization run measures; the charz library produces the
     * same structure from actual Alg. 1 measurements.
     *
     * @param num_bins at most 16; tested-hammer-count bins are merged
     *        from the weak end upward to fit.
     */
    static VulnProfile fromModel(const fault::VulnerabilityModel &model,
                                 uint32_t num_bins = 14);

    /** Assign one row's bin (builder API used by the charz pipeline). */
    void setBin(uint32_t bank, uint32_t row, uint8_t bin);

    /** Assign `bin` to rows [row_begin, row_end) of one bank. */
    void fillBins(uint32_t bank, uint32_t row_begin, uint32_t row_end,
                  uint8_t bin);

    uint8_t binOf(uint32_t bank, uint32_t row) const;

    /** Safe HC_first lower bound of a row. */
    double thresholdOf(uint32_t bank, uint32_t row) const;

    /**
     * The module's worst-case safe threshold: the smallest bound among
     * bins that actually contain rows (the paper's "minimum observed
     * HC_first"; bins below the module minimum stay empty and must not
     * anchor the profile's scaling).
     */
    double minThreshold() const;

    /** Largest occupied bin bound. */
    double maxThreshold() const;

    /**
     * Scaled copy for future-chip evaluation (paper Sec. 7.1): all bin
     * bounds multiplied so the minimum bound equals
     * `target_min_hc_first`, preserving the distribution's shape.
     */
    VulnProfile scaledTo(double target_min_hc_first) const;

    /**
     * Re-sample the profile onto a different chip geometry (the
     * simulated system's bank/row counts differ from the
     * characterized module's): each target row inherits the bin of
     * the proportionally-located source row, preserving the spatial
     * structure of the vulnerability distribution.
     */
    VulnProfile resampledTo(uint32_t banks, uint32_t rows_per_bank) const;

    const std::string &label() const { return label_; }
    uint32_t banks() const { return banks_; }
    uint32_t rowsPerBank() const { return rowsPerBank_; }
    uint32_t numBins() const
    {
        return static_cast<uint32_t>(binBounds_.size());
    }
    const std::vector<double> &binBounds() const { return binBounds_; }

    /** Fraction of rows in each bin (profile shape diagnostics). */
    std::vector<double> binOccupancy() const;

    /** Metadata bits needed: bits-per-row x rows (Sec. 6.4). */
    uint64_t metadataBits() const;

  private:
    std::string label_;
    uint32_t banks_;
    uint32_t rowsPerBank_;
    std::vector<double> binBounds_;
    std::vector<std::vector<uint8_t>> bins_; ///< [bank][row]
    // Occupied-bin range, maintained incrementally by setBin (freshly
    // constructed profiles have every row in bin 0).
    mutable uint8_t minOccupied_ = 0;
    mutable uint8_t maxOccupied_ = 0;
    mutable bool occupancyDirty_ = false;
    void refreshOccupancy() const;
};

} // namespace svard::core

#endif // SVARD_CORE_VULN_PROFILE_H
