#include "engine/drift_eval.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "fault/vuln_model.h"
#include "fault_inject/fault_inject.h"

namespace svard::engine {

namespace {

constexpr uint64_t kRowTag = 0x44524f57;   // "DROW"
constexpr uint64_t kFieldTag = 0x44464c44; // "DFLD"

} // anonymous namespace

std::string
DriftSpec::name() const
{
    if (isStatic())
        return "none";
    char buf[160];
    snprintf(buf, sizeof buf, "%s/%s/e%u/g%g", model.c_str(),
             policy.c_str(), epochs, guardband);
    return buf;
}

DriftMetrics
evaluateDrift(const DriftEvalInput &in)
{
    DriftMetrics out;
    if (in.epochs == 0 || in.banks == 0 || in.rowsPerBank == 0)
        return out;

    const uint32_t per_bank =
        std::min(kDriftSampleRowsPerBank, in.rowsPerBank);

    const fault::DriftField field(in.model,
                                  hashSeed({in.seed, kFieldTag}),
                                  in.epochs);

    // Deterministic sample set: per bank, a hashed offset plus an odd
    // stride (coprime with the power-of-two row count) covers the
    // bank without repeats. Each sample is drawn once, keyed by its
    // module-space quantized HC_first (the Fig. 10 stress transform).
    std::vector<fault::DriftField::RowDraw> samples;
    samples.reserve(static_cast<size_t>(in.banks) * per_bank);
    for (uint32_t b = 0; b < in.banks; ++b) {
        const uint64_t h = hashSeed({in.seed, kRowTag, b});
        const uint32_t offset =
            static_cast<uint32_t>(h % in.rowsPerBank);
        const uint32_t stride = static_cast<uint32_t>(
            ((h >> 32) | 1u) % in.rowsPerBank) | 1u;
        for (uint32_t i = 0; i < per_bank; ++i) {
            const uint32_t row =
                (offset + static_cast<uint64_t>(i) * stride) %
                in.rowsPerBank;
            const double hc =
                in.profile ? in.profile->thresholdOf(b, row)
                           : in.uniformHc;
            samples.push_back(field.draw(
                b, row, fault::VulnerabilityModel::quantizeHc(hc)));
        }
    }

    const double g =
        std::min(0.95, in.guardband + in.policy.extraGuardband());

    uint64_t escapes_since_cal = 0;
    uint32_t calib_epoch = 0;
    for (uint32_t e = 1; e <= in.epochs; ++e) {
        if (in.policy.due(e, escapes_since_cal)) {
            faults::check("recal.apply");
            calib_epoch = e;
            escapes_since_cal = 0;
            ++out.recalibrations;
        }
        uint64_t epoch_escapes = 0;
        for (const fault::DriftField::RowDraw &d : samples) {
            const double f_now = field.factorAt(d, e);
            const double f_cal = field.factorAt(d, calib_epoch);
            if (f_now < f_cal * (1.0 - g))
                ++epoch_escapes;
        }
        out.escapes += epoch_escapes;
        escapes_since_cal += epoch_escapes;
    }

    out.escapeRate =
        static_cast<double>(out.escapes) /
        (static_cast<double>(in.epochs) * samples.size());

    // Each recalibration re-probes the sample set; its ACT time is
    // amortized over the cell's whole drift horizon and charged to
    // the controller as extra per-tREFI refresh duty.
    if (out.recalibrations > 0 && in.tRcPs > 0.0 &&
        in.tRefwPs > 0.0) {
        const double acts_per_recal =
            static_cast<double>(samples.size()) * kDriftProbesPerRow;
        const double recal_ps = static_cast<double>(
                                    out.recalibrations) *
                                acts_per_recal * in.tRcPs;
        out.recalCost = std::min(
            kDriftMaxRecalDuty,
            recal_ps / (static_cast<double>(in.epochs) * in.tRefwPs));
    }
    return out;
}

} // namespace svard::engine
