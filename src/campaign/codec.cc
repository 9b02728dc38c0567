#include "campaign/codec.h"

#include <iterator>

#include "util/hash.h"

namespace cmldft::campaign {

namespace {

template <typename Io, typename D>
void DefectFields(Io& io, D& d) {
  io.Enum(d.type);
  io.Str(d.device);
  io.I32(d.terminal_a);
  io.I32(d.terminal_b);
  io.Str(d.node_a);
  io.Str(d.node_b);
  io.F64(d.resistance);
}

/// The reference fields of a ScreeningReport (no outcomes).
template <typename Io, typename R>
void ReferenceFields(Io& io, R& r) {
  io.F64(r.nominal_swing);
  io.F64(r.reference_delay);
  io.F64(r.reference_detector_vout);
  io.F64(r.reference_supply_current);
  io.F64Vec(r.reference_detector_vouts);
}

template <typename Io, typename O>
void OutcomeFields(Io& io, O& o) {
  DefectFields(io, o.defect);
  io.Bool(o.converged);
  io.Bool(o.no_bias_point);
  io.Str(o.error);
  io.Bool(o.logic_fail);
  io.Bool(o.delay_fail);
  io.Bool(o.iddq_fail);
  io.Bool(o.amplitude_detected);
  io.F64(o.max_gate_amplitude);
  io.F64(o.min_detector_vout);
  io.F64Vec(o.detector_vouts);
  io.F64(o.supply_current);
}

}  // namespace

std::string_view PayloadNameOf(RecordType type) {
  // Each payload owns one (singleton, unit) pair of consecutive types.
  constexpr std::string_view kNames[] = {"screening", "pattern",
                                         "characterization"};
  const unsigned t = static_cast<uint8_t>(type);
  return t >= 1 && t <= 2 * std::size(kNames) ? kNames[(t - 1) / 2]
                                              : std::string_view();
}

std::string EncodeReferenceRecord(const core::ScreeningReport& reference) {
  return EncodeRecord(RecordType::kReference,
                      [&](ByteWriter& w) { ReferenceFields(w, reference); });
}

std::string EncodeOutcomeRecord(uint64_t unit_id,
                                const core::DefectOutcome& outcome) {
  return EncodeUnitRecord(RecordType::kOutcome, unit_id, [&](ByteWriter& w) {
    OutcomeFields(w, outcome);
  });
}

util::StatusOr<core::ScreeningReport> DecodeReferenceRecord(
    std::string_view payload) {
  core::ScreeningReport reference;
  CMLDFT_RETURN_IF_ERROR(DecodeRecord(
      payload, RecordType::kReference, "screening reference record",
      [&](ByteReader& r) { ReferenceFields(r, reference); }));
  return reference;
}

util::StatusOr<OutcomeRecord> DecodeOutcomeRecord(std::string_view payload) {
  OutcomeRecord rec;
  CMLDFT_RETURN_IF_ERROR(DecodeUnitRecord(
      payload, RecordType::kOutcome, "defect-outcome record", rec.unit_id,
      [&](ByteReader& r) { OutcomeFields(r, rec.outcome); }));
  return rec;
}

uint64_t CampaignFingerprint(const core::ScreeningOptions& options,
                             const std::vector<defects::Defect>& universe) {
  util::ContentHasher h;
  h.Str("cmldft-campaign-fingerprint-v1");
  h.I64(options.chain_length);
  h.F64(options.frequency);
  h.F64(options.sim_time);
  h.F64(options.detector_drop);
  h.F64(options.logic_swing_fraction);
  h.F64(options.delay_threshold);
  h.F64(options.iddq_fraction);
  const core::DetectorOptions& det = options.detector;
  h.I64(static_cast<int64_t>(det.load_kind));
  h.F64(det.load_cap);
  h.F64(det.load_resistor);
  h.F64(det.bleed_resistor);
  h.F64(det.r0);
  h.F64(det.vtest_test_mode);
  h.Bool(det.multi_emitter);
  h.F64(det.comparator_tail);
  h.F64(det.comparator_rc);
  h.F64(det.comparator_fb_bleed);
  h.F64(det.comparator_beta);
  // The enumeration options themselves are not hashed: their effect is the
  // universe, and the universe is hashed in full — structure, ordering,
  // and electrical values, each defect through the field function of its
  // record. A netlist or enumeration change shows up here.
  h.U64(universe.size());
  for (const defects::Defect& d : universe) DefectFields(h, d);
  return h.Digest();
}

}  // namespace cmldft::campaign
